#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

namespace rcb {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

namespace {
const uint64_t kProcessStartNs = NowNs();

double TimevalS(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

// Shortest round-trip decimal form, so every measured digit is kept.
std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

uint64_t ProcessStartNs() { return kProcessStartNs; }

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = TimevalS(ru.ru_utime);
  u.sys_s = TimevalS(ru.ru_stime);
  u.voluntary_csw = ru.ru_nvcsw;
  u.involuntary_csw = ru.ru_nivcsw;
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

Usage operator-(const Usage& a, const Usage& b) {
  Usage d;
  d.user_s = a.user_s - b.user_s;
  d.sys_s = a.sys_s - b.sys_s;
  d.voluntary_csw = a.voluntary_csw - b.voluntary_csw;
  d.involuntary_csw = a.involuntary_csw - b.involuntary_csw;
  d.max_rss_mb = a.max_rss_mb;
  return d;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

void Reservoir::Add(double value) {
  ++seen_;
  if (size_ < slots_.size()) {
    slots_[size_++] = value;
    return;
  }
  const uint64_t j = rng_.NextU64() % seen_;
  if (j < slots_.size()) slots_[j] = value;
}

void Reservoir::Clear() {
  size_ = 0;
  seen_ = 0;
}

void Reservoir::AppendTo(std::vector<double>& out) const {
  out.insert(out.end(), slots_.begin(), slots_.begin() + static_cast<ptrdiff_t>(size_));
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Draw(rc::Rng& rng) const {
  double u = rng.NextDouble();
  size_t i = static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(i, cdf_.size() - 1);
}

bool Checks::Perturbed(std::string_view name) {
  if (std::find(names_.begin(), names_.end(), name) == names_.end()) {
    names_.emplace_back(name);
  }
  if (name != perturb_) return false;
  perturb_matched_ = true;
  return true;
}

void Checks::Expect(std::string_view name, bool pass, const std::string& detail) {
  Perturbed(name);
  entries_.push_back({std::string(name), pass, detail});
  if (!pass) ++failed_;
}

void Checks::ExpectEq(std::string_view name, int64_t actual, int64_t expected) {
  std::ostringstream detail;
  detail << "actual " << actual << ", expected " << expected;
  Expect(name, actual == expected, detail.str());
}

void Checks::Print(std::string_view workload) const {
  std::cout << "-- output checks (" << workload << ")\n";
  for (const Entry& e : entries_) {
    std::cout << (e.pass ? "  ok     " : "  FAILED ") << e.name << ": " << e.detail << "\n";
  }
  std::cout << "checks:";
  for (const std::string& n : names_) std::cout << " " << n;
  std::cout << "\n";
}

namespace {
// Host-wide CPU time stolen from this machine by its hypervisor, and all CPU
// time, in clock ticks (the "cpu" line of /proc/stat); zeros if unreadable.
std::pair<uint64_t, uint64_t> StealAndTotalTicks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  uint64_t total = 0, steal = 0, value = 0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}
}  // namespace

Windows MeasureWindows(double seconds, double window_s,
                       const std::function<uint64_t()>& progress) {
  Windows w;
  const auto [steal_start, total_start] = StealAndTotalTicks();
  const uint64_t window_ns = static_cast<uint64_t>(window_s * 1e9);
  const uint64_t start = NowNs();
  const Usage u_start = ReadUsage();
  const uint64_t units_start = progress();
  uint64_t t_prev = start;
  uint64_t units_prev = units_start;
  Usage u_prev = u_start;
  uint64_t steal_prev = steal_start;
  uint64_t total_prev = total_start;
  const size_t windows = std::max<size_t>(1, static_cast<size_t>(seconds / window_s + 0.5));
  for (size_t i = 1; i <= windows; ++i) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(start + i * window_ns)));
    const uint64_t t = NowNs();
    const uint64_t units = progress();
    const Usage u = ReadUsage();
    const auto [steal, total] = StealAndTotalTicks();
    const double dt = static_cast<double>(t - t_prev) / 1e9;
    const double du = static_cast<double>(units - units_prev);
    if (du > 0) {
      w.rate_per_s.push_back(du / dt);
      w.cpu_us_per_unit.push_back((u - u_prev).cpu_s() * 1e6 / du);
      w.steal_share.push_back(total > total_prev ? static_cast<double>(steal - steal_prev) /
                                                       static_cast<double>(total - total_prev)
                                                 : 0.0);
    }
    t_prev = t;
    units_prev = units;
    u_prev = u;
    steal_prev = steal;
    total_prev = total;
  }
  w.wall_s = static_cast<double>(t_prev - start) / 1e9;
  w.units = units_prev - units_start;
  w.usage = u_prev - u_start;
  std::cout << "windows: " << w.rate_per_s.size() << " x " << window_s
            << " s, rate quartiles " << Quantile(w.rate_per_s, 0.25) << " / "
            << Quantile(w.rate_per_s, 0.5) << " / " << Quantile(w.rate_per_s, 0.75)
            << " per s, overall " << static_cast<double>(w.units) / w.wall_s
            << " per s, least-stolen half " << w.Throughput() << " per s\n";
  if (total_prev > total_start) {
    std::cout << "host: CPU time stolen by the hypervisor during the windows "
              << 100.0 * static_cast<double>(steal_prev - steal_start) /
                     static_cast<double>(total_prev - total_start)
              << "% (median window " << 100.0 * Median(w.steal_share) << "%)\n";
  }
  return w;
}

double Windows::LeastStolenMedian(const std::vector<double>& values) const {
  const double cut = Median(steal_share);
  std::vector<double> kept;
  for (size_t i = 0; i < values.size(); ++i) {
    if (steal_share[i] <= cut) kept.push_back(values[i]);
  }
  return Median(std::move(kept));
}

uint64_t CounterSum(const rc::obs::MetricsRegistry& registry, std::string_view name) {
  uint64_t sum = 0;
  for (const rc::obs::CounterSample& c : registry.Collect().counters) {
    if (c.info.name == name) sum += c.value;
  }
  return sum;
}

namespace {
const rc::obs::HistogramSample* FindHist(const rc::obs::RegistrySnapshot& snap,
                                         std::string_view name) {
  for (const rc::obs::HistogramSample& h : snap.histograms) {
    if (h.info.name == name) return &h;
  }
  return nullptr;
}
}  // namespace

double HistQuantile(const rc::obs::MetricsRegistry& registry, std::string_view name,
                    double q) {
  rc::obs::RegistrySnapshot snap = registry.Collect();
  const rc::obs::HistogramSample* h = FindHist(snap, name);
  return h != nullptr && h->hist.count > 0 ? h->hist.Quantile(q) : 0.0;
}

double HistMean(const rc::obs::MetricsRegistry& registry, std::string_view name) {
  rc::obs::RegistrySnapshot snap = registry.Collect();
  const rc::obs::HistogramSample* h = FindHist(snap, name);
  return h != nullptr ? h->hist.Mean() : 0.0;
}

std::string ResultJson(bool correct, const Report& report, bool traced) {
  const std::vector<Metric>& metrics = traced ? report.per_layer : report.end_to_end;
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << metrics[i].name << "\": {\"value\": " << Num(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

void PrintMetrics(const std::string& title, const std::vector<Metric>& metrics) {
  std::cout << "-- " << title << "\n";
  for (const Metric& m : metrics) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    std::cout << line;
  }
}

}  // namespace rcb
