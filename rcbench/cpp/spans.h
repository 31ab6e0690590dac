// Spans for the traced run, recorded in the benchmark's own code around
// every call it makes into a layer of the program (nothing inside src/ is
// instrumented). A span has a name "<layer>/<operation>", a start, an end,
// the span that encloses it, and a request id. Each thread owns one
// SpanSink: it keeps the spans in memory (up to a cap, for the Chrome-trace
// file written at the end) and aggregates every span's self time — its
// duration minus the part covered by its child spans — per name, exactly,
// whether or not the span itself was kept.
#ifndef RCBENCH_SPANS_H_
#define RCBENCH_SPANS_H_

#include <array>
#include <cstdint>
#include <map>
#include <utility>
#include <string>
#include <vector>

namespace rcb {

struct SpanRecord {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t id;
  uint64_t parent;  // 0 for a root span
  uint64_t request;
  uint32_t tid;
};

struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

class SpanSink {
 public:
  SpanSink(uint32_t tid, size_t keep_cap);

  void Begin(const char* name, uint64_t request);
  void End();

  uint32_t tid() const { return tid_; }
  const std::vector<SpanRecord>& kept() const { return kept_; }
  // Self time per span name. Keys are the string literals passed to Begin.
  const std::map<std::string, SpanTotals>& totals() const;
  void Reset();

 private:
  struct Open {
    const char* name;
    uint64_t start_ns;
    uint64_t id;
    uint64_t request;
    uint64_t child_ns;
  };
  static constexpr size_t kMaxDepth = 16;

  uint32_t tid_;
  size_t keep_cap_;
  uint64_t next_id_ = 1;
  size_t depth_ = 0;
  std::array<Open, kMaxDepth> stack_{};
  std::vector<SpanRecord> kept_;
  // Keyed by name pointer on the hot path (a handful of names per thread, so
  // a linear scan), folded into totals_ on demand.
  std::vector<std::pair<const char*, SpanTotals>> by_ptr_;
  mutable std::map<std::string, SpanTotals> totals_;
};

// RAII span; a null sink records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanSink* sink, const char* name, uint64_t request = 0) : sink_(sink) {
    if (sink_ != nullptr) sink_->Begin(name, request);
  }
  ~ScopedSpan() {
    if (sink_ != nullptr) sink_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanSink* sink_;
};

// Self time per layer ("<layer>" is the part of a span name before '/'),
// summed over a set of sinks.
struct LayerSelf {
  std::string layer;
  uint64_t spans = 0;
  double self_s = 0.0;
};
std::vector<LayerSelf> SelfByLayer(const std::vector<const SpanSink*>& sinks);
double TotalSelfS(const std::vector<LayerSelf>& layers);
void PrintSelfTable(const std::string& title, const std::vector<LayerSelf>& layers,
                    double wall_s, int threads);

// Writes every kept span as a Chrome-trace "complete" event ("ph":"X").
bool WriteChromeTrace(const std::string& path, const std::vector<const SpanSink*>& sinks,
                      uint64_t origin_ns);

}  // namespace rcb

#endif  // RCBENCH_SPANS_H_
