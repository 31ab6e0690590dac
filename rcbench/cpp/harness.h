// Shared machinery of the repository benchmark: command-line arguments,
// clocks and rusage, order statistics, the Zipf key sampler, the output
// checks, and the metric report whose last line is the JSON result.
#ifndef RCBENCH_HARNESS_H_
#define RCBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/obs/metrics.h"

namespace rcb {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Small inputs and a short timed phase; the same output checks run.
  bool quick = false;
  // Name of one output check whose expected value is perturbed, so the run
  // must report that check as failed (the benchmark's own tests use it).
  std::string perturb;
  // Where Chrome-trace files are written (relative to the working directory).
  std::string out_dir = ".bench_build/rcbench/out";
  // Content hash of the sources, printed in the host stamp.
  std::string source_hash = "unknown";
};

uint64_t NowNs();  // steady clock
double SecondsSince(uint64_t start_ns);

// Process-wide resource usage (all threads).
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  int64_t voluntary_csw = 0;
  int64_t involuntary_csw = 0;
  double max_rss_mb = 0.0;

  double cpu_s() const { return user_s + sys_s; }
};
Usage ReadUsage();
Usage operator-(const Usage& a, const Usage& b);

// Order statistics over a copy; 0 on empty input. Quantile uses the
// nearest-rank definition.
double Median(std::vector<double> values);
double Quantile(std::vector<double> values, double q);

// Latency samples of one load thread in fixed memory: the first kCapacity
// samples, then uniform reservoir replacement (Algorithm R). The storage is
// allocated and written up front, so the benchmark's own memory, and with it
// peak_rss_mb, does not grow with the number of requests a run manages.
class Reservoir {
 public:
  static constexpr size_t kCapacity = size_t{1} << 18;

  Reservoir() : slots_(kCapacity) {}
  void Add(double value);
  void Clear();
  // Appends the kept samples to `out`.
  void AppendTo(std::vector<double>& out) const;

 private:
  std::vector<double> slots_;
  size_t size_ = 0;
  uint64_t seen_ = 0;
  rc::Rng rng_;
};

// Zipf(s) over ranks [0, n), drawn by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Draw(rc::Rng& rng) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

// Output checks. Every check compares a value the program produced with an
// expected value computed outside it (or with a property the method must
// have). `--perturb NAME` shifts the expected value of check NAME so that a
// correct program fails it; a perturbation that names no check is an error.
class Checks {
 public:
  explicit Checks(std::string perturb) : perturb_(std::move(perturb)) {}

  // True when `name` is the perturbed check (the caller shifts its expected
  // value). Also registers `name` as a check of this run.
  bool Perturbed(std::string_view name);
  void Expect(std::string_view name, bool pass, const std::string& detail);
  void ExpectEq(std::string_view name, int64_t actual, int64_t expected);

  bool all_passed() const { return failed_ == 0; }
  bool perturb_matched() const { return perturb_.empty() || perturb_matched_; }
  // Prints one line per check and the list of check names.
  void Print(std::string_view workload) const;

 private:
  std::string perturb_;
  bool perturb_matched_ = false;
  struct Entry {
    std::string name;
    bool pass;
    std::string detail;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> names_;
  int failed_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Everything a workload reports. End-to-end metrics come from untraced runs
// only; the traced run reports the per-layer metrics.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void E2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void Layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
};

// Samples a progress counter in fixed windows for `seconds` from the calling
// thread while workers run: per-window work rate, process CPU per unit of
// work, and the share of the machine's CPU time its hypervisor stole.
struct Windows {
  std::vector<double> rate_per_s;
  std::vector<double> cpu_us_per_unit;
  std::vector<double> steal_share;  // 0 for every window if /proc/stat is unreadable
  double wall_s = 0.0;
  uint64_t units = 0;
  Usage usage;  // over the whole measured span

  // Medians over the least-stolen half of the windows (every window whose
  // steal share is at most the median share): the end-to-end throughput and
  // CPU figures. Steal comes in bursts of a fraction of a second on a shared
  // host and cuts a closed loop's rate several times over its own share.
  double Throughput() const { return LeastStolenMedian(rate_per_s); }
  double CpuPerUnit() const { return LeastStolenMedian(cpu_us_per_unit); }

 private:
  double LeastStolenMedian(const std::vector<double>& values) const;
};
Windows MeasureWindows(double seconds, double window_s,
                       const std::function<uint64_t()>& progress);

// Registry readouts (summed over label sets; 0 when absent).
uint64_t CounterSum(const rc::obs::MetricsRegistry& registry, std::string_view name);
// Quantile / mean of the first histogram with this name (lifetime values).
double HistQuantile(const rc::obs::MetricsRegistry& registry, std::string_view name,
                    double q);
double HistMean(const rc::obs::MetricsRegistry& registry, std::string_view name);

// One-line JSON result: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, const Report& report, bool traced);
// Prints a "name value unit" table of metrics.
void PrintMetrics(const std::string& title, const std::vector<Metric>& metrics);

// The process's start, for setup_s (captured at static initialization).
uint64_t ProcessStartNs();

}  // namespace rcb

#endif  // RCBENCH_HARNESS_H_
