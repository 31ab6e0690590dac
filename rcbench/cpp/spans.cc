#include "spans.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "harness.h"

namespace rcb {

SpanSink::SpanSink(uint32_t tid, size_t keep_cap) : tid_(tid), keep_cap_(keep_cap) {
  kept_.reserve(keep_cap_);
}

void SpanSink::Begin(const char* name, uint64_t request) {
  if (depth_ == kMaxDepth) std::abort();  // nesting deeper than any workload's spans
  const uint64_t id = (static_cast<uint64_t>(tid_) << 40) | next_id_++;
  stack_[depth_++] = Open{name, NowNs(), id, request, 0};
}

void SpanSink::End() {
  const uint64_t end = NowNs();
  const Open& open = stack_[--depth_];
  const uint64_t dur = end - open.start_ns;
  SpanTotals* found = nullptr;
  for (auto& [name, totals] : by_ptr_) {
    if (name == open.name) {
      found = &totals;
      break;
    }
  }
  if (found == nullptr) found = &by_ptr_.emplace_back(open.name, SpanTotals{}).second;
  SpanTotals& t = *found;
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur > open.child_ns ? dur - open.child_ns : 0;
  const uint64_t parent = depth_ > 0 ? stack_[depth_ - 1].id : 0;
  if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
  if (kept_.size() < keep_cap_) {
    kept_.push_back(
        SpanRecord{open.name, open.start_ns, end, open.id, parent, open.request, tid_});
  }
}

const std::map<std::string, SpanTotals>& SpanSink::totals() const {
  totals_.clear();
  for (const auto& [name, t] : by_ptr_) {
    SpanTotals& dst = totals_[name];
    dst.count += t.count;
    dst.total_ns += t.total_ns;
    dst.self_ns += t.self_ns;
  }
  return totals_;
}

void SpanSink::Reset() {
  depth_ = 0;
  kept_.clear();
  by_ptr_.clear();
  totals_.clear();
}

std::vector<LayerSelf> SelfByLayer(const std::vector<const SpanSink*>& sinks) {
  std::map<std::string, LayerSelf> by_layer;
  for (const SpanSink* sink : sinks) {
    for (const auto& [name, t] : sink->totals()) {
      std::string layer = name.substr(0, name.find('/'));
      LayerSelf& l = by_layer[layer];
      l.layer = layer;
      l.spans += t.count;
      l.self_s += static_cast<double>(t.self_ns) / 1e9;
    }
  }
  std::vector<LayerSelf> out;
  for (auto& [_, l] : by_layer) out.push_back(l);
  return out;
}

double TotalSelfS(const std::vector<LayerSelf>& layers) {
  double sum = 0.0;
  for (const LayerSelf& l : layers) sum += l.self_s;
  return sum;
}

void PrintSelfTable(const std::string& title, const std::vector<LayerSelf>& layers,
                    double wall_s, int threads) {
  const double total = TotalSelfS(layers);
  std::cout << "-- self time by layer: " << title << " (wall " << wall_s << " s x "
            << threads << " thread(s))\n";
  std::cout << "  layer          spans          self_s    share\n";
  for (const LayerSelf& l : layers) {
    char line[128];
    std::snprintf(line, sizeof(line), "  %-10s %10llu %14.6f %7.2f%%\n", l.layer.c_str(),
                  static_cast<unsigned long long>(l.spans), l.self_s,
                  total > 0 ? 100.0 * l.self_s / total : 0.0);
    std::cout << line;
  }
  char line[128];
  std::snprintf(line, sizeof(line), "  %-10s %10s %14.6f\n", "sum", "", total);
  std::cout << line;
}

bool WriteChromeTrace(const std::string& path, const std::vector<const SpanSink*>& sinks,
                      uint64_t origin_ns) {
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  bool first = true;
  char buf[512];
  for (const SpanSink* sink : sinks) {
    for (const SpanRecord& s : sink->kept()) {
      std::string name = s.name;
      std::string layer = name.substr(0, name.find('/'));
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                    "\"dur\": %.3f, \"pid\": 1, \"tid\": %u, \"args\": {\"id\": %llu, "
                    "\"parent\": %llu, \"request\": %llu}}",
                    first ? "" : ",\n", s.name, layer.c_str(),
                    static_cast<double>(s.start_ns - origin_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    static_cast<unsigned long long>(s.request));
      out << buf;
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace rcb
