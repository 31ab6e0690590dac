// rcbench: the repository benchmark. One process runs one workload:
//
//   rcbench --workload client_read|net_push|sched_month --seed N --seconds S
//           --trace 0|1 [--quick] [--perturb CHECK] [--out-dir DIR]
//
// It prints a host stamp, the set-up and timed-phase figures, the output
// checks and, as its last line, one JSON object with the keys "correct",
// "attempted", "failed" and "metrics" (the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1). Exit status: 0 when
// every check passed, 1 when a check failed, 2 on a usage or set-up error,
// 3 when the binary is not a Release build without sanitizers.
#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "harness.h"
#include "src/ml/exec_engine.h"
#include "workloads.h"

namespace rcb {

void PrintEngineDispatch(const std::string& model, const rc::ml::Classifier& classifier) {
  const rc::ml::ExecEngine* engine = classifier.engine();
  std::cout << "host: ExecEngine kAuto on " << model << " resolves to "
            << (engine != nullptr
                    ? rc::ml::ExecEngine::ModeName(engine->Resolve(rc::ml::ExecEngine::Mode::kAuto))
                    : "none")
            << "\n";
}

namespace {

// Every per-layer metric, in the order printed; each workload reports all.
const char* const kPerLayer[] = {
    "trace.generate_s", "pipeline.train_s", "store.publish_s", "client.initialize_s",
    "client.hit_ns", "client.unknown_us", "client.many_us", "client.latency_p99_us",
    "client.hit_ratio", "client.model_executions", "client.no_predictions",
    "cache.admit_rejects", "cache.probe_retries", "proc.voluntary_csw_per_kop",
    "core.featurize_ns", "ml.engine_single_ns", "ml.engine_batch16_ns",
    "net.single_rtt_p99_us", "net.many_rtt_p50_us", "net.server_predict_p50_us",
    "store.put_us", "combiner.mean_batch", "proc.sys_cpu_frac", "proc.csw_per_request",
    "sched.replay_s", "sched.predict_s", "sched.self_s", "sched.waves", "sched.keys_per_wave",
    "sched.placements", "sched.oversub_placements", "sched.overload_readings",
    "client.confident_share", "self.bench_share", "self.core_share", "self.net_share",
    "self.store_share", "self.sched_share", "trace.overhead_frac", "trace.unaccounted_frac",
};
const char* const kEndToEnd[] = {"setup_s", "throughput_per_s", "latency_p50_us",
                                 "cpu_us_per_op", "peak_rss_mb"};

// Puts `metrics` in the canonical order; false if one is missing or extra.
bool Canonical(std::vector<Metric>& metrics, std::span<const char* const> names) {
  std::vector<Metric> out;
  for (const char* name : names) {
    auto it = std::find_if(metrics.begin(), metrics.end(),
                           [&](const Metric& m) { return m.name == name; });
    if (it == metrics.end()) {
      std::cerr << "rcbench: metric " << name << " was not measured\n";
      return false;
    }
    out.push_back(*it);
  }
  if (out.size() != metrics.size()) {
    std::cerr << "rcbench: unexpected extra metrics\n";
    return false;
  }
  metrics = std::move(out);
  return true;
}

bool ReleaseBuild() {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#else
  return std::strcmp(RCBENCH_BUILD_TYPE, "Release") == 0;
#endif
}

void PrintHostStamp(const Args& args) {
  cpu_set_t set;
  int affinity = 0;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) affinity = CPU_COUNT(&set);
  std::cout << "host: nproc " << affinity << " (hardware_concurrency "
            << std::thread::hardware_concurrency() << ")\n"
            << "host: ExecEngine::Avx2Available " << (rc::ml::ExecEngine::Avx2Available() ? "yes" : "no")
            << "\n"
            << "host: compiler " << __VERSION__ << ", build type " << RCBENCH_BUILD_TYPE << "\n"
            << "host: git sha " << RCBENCH_GIT_SHA << ", source hash " << args.source_hash << "\n"
            << "run: workload " << args.workload << ", seed " << args.seed << ", seconds "
            << args.seconds << ", trace " << (args.trace ? 1 : 0)
            << (args.quick ? ", quick" : "") << "\n";
}

int PrintUsage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload client_read|net_push|sched_month --seed N --seconds S"
               " --trace 0|1 [--quick] [--perturb CHECK] [--out-dir DIR]"
               " [--source-hash HASH]\n";
  return 2;
}

}  // namespace
}  // namespace rcb

int main(int argc, char** argv) {
  using namespace rcb;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (flag == "--quick") {
      args.quick = true;
    } else if ((flag == "--workload" || flag == "--seed" || flag == "--seconds" ||
                flag == "--trace" || flag == "--perturb" || flag == "--out-dir" ||
                flag == "--source-hash") &&
               (v = value()) != nullptr) {
      if (flag == "--workload") args.workload = v;
      if (flag == "--seed") args.seed = std::strtoull(v, nullptr, 10);
      if (flag == "--seconds") args.seconds = std::atof(v);
      if (flag == "--trace") args.trace = std::atoi(v) != 0;
      if (flag == "--perturb") args.perturb = v;
      if (flag == "--out-dir") args.out_dir = v;
      if (flag == "--source-hash") args.source_hash = v;
    } else {
      return PrintUsage(argv[0]);
    }
  }
  if (args.seconds <= 0) return PrintUsage(argv[0]);
  if (!ReleaseBuild()) {
    std::cerr << "rcbench: refusing to report numbers from a " << RCBENCH_BUILD_TYPE
              << " or sanitizer build\n";
    return 3;
  }
  PrintHostStamp(args);

  Checks checks(args.perturb);
  Report report;
  int rc_setup = 0;
  if (args.workload == "client_read") {
    rc_setup = RunClientRead(args, checks, report);
  } else if (args.workload == "net_push") {
    rc_setup = RunNetPush(args, checks, report);
  } else if (args.workload == "sched_month") {
    rc_setup = RunSchedMonth(args, checks, report);
  } else {
    return PrintUsage(argv[0]);
  }
  if (rc_setup != 0) return rc_setup;
  if (!checks.perturb_matched()) {
    std::cerr << "rcbench: --perturb " << args.perturb << " names no check of "
              << args.workload << "\n";
    return 2;
  }
  if (!Canonical(report.end_to_end, kEndToEnd) ||
      (args.trace && !Canonical(report.per_layer, kPerLayer))) {
    return 2;
  }

  checks.Print(args.workload);
  PrintMetrics("end-to-end (" + args.workload + ")", report.end_to_end);
  if (args.trace) PrintMetrics("per-layer (" + args.workload + ")", report.per_layer);
  std::cout << "operations: " << args.workload << " attempted " << report.attempted
            << ", failed " << report.failed << "\n";
  std::cout << ResultJson(checks.all_passed(), report, args.trace) << std::endl;
  return checks.all_passed() ? 0 : 1;
}
