// Span records: what a TraceSpan leaves in TraceStore when it ends — nothing
// when unsampled; otherwise its name, start, duration and the small
// per-thread tid, with every span of concurrent threads landing.
#include "src/obs/trace_context.h"

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace rc::obs {
namespace {

// Tracer and TraceStore are process singletons, so every test resets both
// on entry and exit.
class TraceEventsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceStore::Global().Configure({});  // defaults
    TraceStore::Global().Clear();
    Tracer::Global().SetSampleEvery(0);
  }
  void TearDown() override {
    Tracer::Global().SetSampleEvery(0);
    TraceStore::Global().Clear();
  }
};

// The number following the first `"key":` in `json` at or after `from`.
double NumberAfter(const std::string& json, const std::string& key, size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  size_t pos = json.find(needle, from);
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << json;
  if (pos == std::string::npos) return -1;
  return std::stod(json.substr(pos + needle.size()));
}

TEST_F(TraceEventsTest, DisabledSpansRecordNothing) {
  {
    TraceSpan span("test/disabled");
    // Sampling is off, so a would-be root is unsampled too.
    TraceSpan root("test/disabled-root", Tracer::Global().StartTrace());
    EXPECT_FALSE(root.context().valid());
  }
  EXPECT_EQ(RecordSpanUnder("test/disabled-synthetic", TraceContext{}, 0, 1000), 0u);
  EXPECT_EQ(TraceStore::Global().finished_count(), 0u);
  std::string json = TraceStore::Global().TracezJson();
  EXPECT_EQ(json.find("test/disabled"), std::string::npos) << json;
  EXPECT_EQ(NumberAfter(json, "active"), 0);
}

TEST_F(TraceEventsTest, SpanRecordsNameAndDuration) {
  Tracer::Global().SetSampleEvery(1);
  {
    TraceSpan span("test/span", Tracer::Global().StartTrace());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(TraceStore::Global().finished_count(), 1u);
  std::string json = TraceStore::Global().TracezJson();
  size_t span_pos = json.find("\"name\":\"test/span\"");
  ASSERT_NE(span_pos, std::string::npos) << json;
  EXPECT_GT(NumberAfter(json, "start_us", span_pos), 0);
  EXPECT_GE(NumberAfter(json, "dur_us", span_pos), 2000);
  EXPECT_GT(NumberAfter(json, "tid", span_pos), 0);
  // The root span's duration classifies the trace.
  EXPECT_GE(NumberAfter(json, "root_duration_us"), 2000);
}

TEST_F(TraceEventsTest, ThreadsGetDistinctTids) {
  Tracer::Global().SetSampleEvery(1);
  std::thread other([] { TraceSpan span("test/other-thread", Tracer::Global().StartTrace()); });
  other.join();
  {
    TraceSpan span("test/main-thread", Tracer::Global().StartTrace());
  }
  std::string json = TraceStore::Global().TracezJson();
  EXPECT_NE(json.find("\"name\":\"test/other-thread\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"test/main-thread\""), std::string::npos) << json;
  std::set<int> tids;
  const std::string key = "\"tid\":";
  for (size_t pos = json.find(key); pos != std::string::npos; pos = json.find(key, pos + 1)) {
    tids.insert(std::stoi(json.substr(pos + key.size())));
  }
  EXPECT_EQ(tids.size(), 2u) << json;
  EXPECT_EQ(tids.count(0), 0u);  // tids start at 1
}

TEST_F(TraceEventsTest, ConcurrentSpansAllLand) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  // Room for every trace, so a thread preempted between recording its root
  // span and finishing the trace cannot see it evicted by the others.
  TraceStore::Options options;
  options.max_active_traces = 2 * kThreads * kPerThread;
  TraceStore::Global().Configure(options);
  Tracer::Global().SetSampleEvery(1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        TraceSpan span("test/concurrent", Tracer::Global().StartTrace());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(TraceStore::Global().finished_count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace rc::obs
