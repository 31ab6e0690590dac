// Closed-loop load for the client_read and net_push timed phases: one thread
// per worker runs the workload's loop until stopped; after a warm-up the
// calling thread samples the workers' progress in fixed windows.
#ifndef RCBENCH_LOAD_H_
#define RCBENCH_LOAD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "harness.h"

namespace rcb {

// Seconds of the fixed window the throughput and CPU medians are taken over.
inline constexpr double kWindowS = 0.2;

struct LoadControl {
  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};  // latency is sampled after the warm-up
};

struct LoadPhase {
  Windows windows;
  double wall_s = 0.0;    // thread launch to join
  uint64_t requests = 0;  // requests sent inside the windows
};

// Worker must have std::atomic<uint64_t> members `predictions` and
// `requests`, which its loop advances; body(t, control) is worker t's loop.
template <typename Worker, typename Body>
LoadPhase RunClosedLoop(std::vector<Worker>& workers, double warmup_s, double seconds,
                        Body body) {
  LoadPhase phase;
  LoadControl control;
  auto sum = [&](std::atomic<uint64_t> Worker::*field) {
    uint64_t s = 0;
    for (const Worker& w : workers) s += (w.*field).load(std::memory_order_relaxed);
    return s;
  };
  const uint64_t start = NowNs();
  {
    std::vector<std::jthread> threads;
    // Declared after the threads, so it runs first: stop, then join.
    struct StopOnExit {
      LoadControl& control;
      ~StopOnExit() { control.stop.store(true); }
    } stop_on_exit{control};
    for (size_t t = 0; t < workers.size(); ++t) {
      threads.emplace_back([&body, &control, t] { body(t, control); });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
    control.measuring.store(true);
    const uint64_t requests_start = sum(&Worker::requests);
    phase.windows =
        MeasureWindows(seconds, kWindowS, [&] { return sum(&Worker::predictions); });
    phase.requests = sum(&Worker::requests) - requests_start;
  }
  phase.wall_s = SecondsSince(start);
  return phase;
}

}  // namespace rcb

#endif  // RCBENCH_LOAD_H_
