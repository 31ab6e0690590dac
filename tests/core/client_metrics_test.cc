// rc::obs integration at the client boundary: the registry-backed
// instruments must count the client's activity exactly, the degraded-reason
// gauge and breaker-trip counter must move through an injected outage, and a
// shared registry must keep two clients' series apart via labels.
#include "src/core/client.h"

#include <chrono>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/faults.h"
#include "src/core/offline_pipeline.h"
#include "src/obs/export.h"
#include "src/trace/workload_model.h"
#include "tests/scoped_temp_dir.h"

namespace rc::core {
namespace {

namespace faults = rc::faults;
using rc::store::KvStore;
using rc::trace::Trace;
using rc::trace::WorkloadConfig;
using rc::trace::WorkloadModel;

class ClientMetricsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.target_vm_count = 1000;
    config.num_subscriptions = 60;
    config.seed = 4242;
    trace_ = new Trace(WorkloadModel(config).Generate());
    PipelineConfig pipeline_config;
    pipeline_config.rf.num_trees = 4;
    pipeline_config.gbt.num_rounds = 4;
    OfflinePipeline pipeline(pipeline_config);
    trained_ = new TrainedModels(pipeline.Run(*trace_));
  }

  void SetUp() override {
    faults::Registry::Global().DisarmAll();
    store_ = std::make_unique<KvStore>();
    OfflinePipeline::Publish(*trained_, *store_);
  }

  void TearDown() override { faults::Registry::Global().DisarmAll(); }

  ClientInputs KnownInput() const {
    static const rc::trace::VmSizeCatalog catalog;
    for (const auto& vm : trace_->vms()) {
      if (trained_->feature_data.contains(vm.subscription_id)) {
        return InputsFromVm(vm, catalog);
      }
    }
    ADD_FAILURE() << "no VM with feature data";
    return {};
  }

  // A subscription the published feature data does not know.
  ClientInputs UnknownInput(uint64_t i) const {
    ClientInputs inputs = KnownInput();
    inputs.subscription_id = 900'000'000 + i;
    return inputs;
  }

  static uint64_t Count(const Client& client, std::string_view name) {
    return client.metrics().GetCounter(name).Value();
  }

  static const Trace* trace_;
  static const TrainedModels* trained_;
  std::unique_ptr<KvStore> store_;
};

const Trace* ClientMetricsTest::trace_ = nullptr;
const TrainedModels* ClientMetricsTest::trained_ = nullptr;

TEST_F(ClientMetricsTest, InstrumentsCountClientActivity) {
  ClientConfig config;
  config.predict_latency_sample_every = 1;  // time every call
  Client client(store_.get(), config);
  ASSERT_TRUE(client.Initialize());
  ClientInputs input = KnownInput();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.PredictSingle("VM_P95UTIL", input).valid);
  }

  // One miss executes the model; the four repeats hit the result cache.
  rc::obs::MetricsRegistry& reg = client.metrics();
  EXPECT_EQ(reg.GetCounter("rc_client_result_hits").Value(), 4u);
  EXPECT_EQ(reg.GetCounter("rc_client_result_misses").Value(), 1u);
  EXPECT_EQ(reg.GetCounter("rc_client_model_executions").Value(), 1u);
  EXPECT_GT(reg.GetCounter("rc_client_store_fetches").Value(), 0u);
  // Every prediction was timed (sample_every = 1).
  EXPECT_EQ(reg.GetHistogram("rc_client_predict_latency_us").TakeSnapshot().count, 5u);
  // Store reads happened during Initialize and are timed unconditionally.
  EXPECT_GT(reg.GetHistogram("rc_client_store_read_latency_us").TakeSnapshot().count, 0u);
}

TEST_F(ClientMetricsTest, DegradedGaugeAndBreakerTripsMoveThroughAnOutage) {
  ClientConfig config;
  config.store_max_retries = 0;
  config.breaker_failure_threshold = 2;
  config.breaker_open_us = 1000;  // short cooldown so the window can heal
  Client client(store_.get(), config);
  ASSERT_TRUE(client.Initialize());
  rc::obs::Gauge& degraded = client.metrics().GetGauge("rc_client_degraded_reason");
  rc::obs::Counter& trips = client.metrics().GetCounter("rc_client_breaker_trips");
  EXPECT_DOUBLE_EQ(degraded.Value(), 0.0);
  EXPECT_EQ(trips.Value(), 0u);

  // Injected store-read error storm: reload fails, breaker trips, gauge
  // reports DegradedReason::kStoreErrors (2).
  {
    faults::FaultSpec err;
    err.kind = faults::FaultKind::kError;
    faults::ScopedFault storm("client/store_read", err);
    client.ForceReloadCache();
  }
  EXPECT_DOUBLE_EQ(degraded.Value(), 2.0);
  EXPECT_EQ(client.degraded_reason(), DegradedReason::kStoreErrors);
  EXPECT_GE(trips.Value(), 1u);

  // Store outage: gauge moves to kStoreOutage (1).
  store_->SetAvailable(false);
  client.ForceReloadCache();
  EXPECT_DOUBLE_EQ(degraded.Value(), 1.0);

  // Heal: wait out the breaker cooldown, clean reload clears the gauge.
  store_->SetAvailable(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  client.ForceReloadCache();
  EXPECT_DOUBLE_EQ(degraded.Value(), 0.0);

  // The whole story is visible in the exposition text.
  std::string text = rc::obs::PrometheusText(client.metrics());
  EXPECT_NE(text.find("rc_client_breaker_trips"), std::string::npos);
  EXPECT_NE(text.find("rc_client_degraded_reason 0"), std::string::npos) << text;
}

TEST_F(ClientMetricsTest, SharedRegistrySplitsClientsByLabel) {
  rc::obs::MetricsRegistry shared;
  ClientConfig a_config;
  a_config.metrics = &shared;
  a_config.metric_labels = {{"client", "a"}};
  ClientConfig b_config;
  b_config.metrics = &shared;
  b_config.metric_labels = {{"client", "b"}};
  Client a(store_.get(), a_config);
  Client b(store_.get(), b_config);
  ASSERT_TRUE(a.Initialize());
  ASSERT_TRUE(b.Initialize());

  ClientInputs input = KnownInput();
  ASSERT_TRUE(a.PredictSingle("VM_P95UTIL", input).valid);

  EXPECT_EQ(shared.GetCounter("rc_client_result_misses", {{"client", "a"}}).Value(), 1u);
  EXPECT_EQ(shared.GetCounter("rc_client_result_misses", {{"client", "b"}}).Value(), 0u);
}

TEST_F(ClientMetricsTest, LatencySamplingCanBeDisabled) {
  ClientConfig config;
  config.predict_latency_sample_every = 0;  // never time the hot path
  Client client(store_.get(), config);
  ASSERT_TRUE(client.Initialize());
  ClientInputs input = KnownInput();
  for (int i = 0; i < 10; ++i) client.PredictSingle("VM_P95UTIL", input);
  EXPECT_EQ(
      client.metrics().GetHistogram("rc_client_predict_latency_us").TakeSnapshot().count,
      0u);
}

// The paper's no-prediction case in push mode with no disk mirror: there is
// nothing to fetch, so the snapshot answers and no ClientState is copied or
// published, on every path that reaches the miss.
TEST_F(ClientMetricsTest, UnknownSubscriptionsInPushModePublishNoState) {
  Client client(store_.get(), ClientConfig{});
  ASSERT_TRUE(client.Initialize());
  const ClientInputs known = KnownInput();
  const Prediction known_answer = client.PredictSingle("VM_P95UTIL", known);
  ASSERT_TRUE(known_answer.valid);
  const uint64_t publishes = Count(client, "rc_client_state_publishes");
  EXPECT_EQ(publishes, 1u);  // Initialize's load
  const uint64_t none_before = Count(client, "rc_client_no_predictions");

  for (uint64_t i = 0; i < 10'000; ++i) {
    ASSERT_FALSE(client.PredictSingle("VM_P95UTIL", UnknownInput(i % 64)).valid);
  }
  EXPECT_EQ(Count(client, "rc_client_no_predictions"), none_before + 10'000);

  // PredictMany: unknown rows take the slow partition, known rows the batch.
  const std::vector<ClientInputs> batch = {known, UnknownInput(1), known, UnknownInput(2)};
  for (int i = 0; i < 1'000; ++i) {
    const std::vector<Prediction> out = client.PredictMany("VM_P95UTIL", batch);
    ASSERT_EQ(out.size(), batch.size());
    for (size_t r : {0u, 2u}) {
      ASSERT_TRUE(out[r].valid);
      EXPECT_EQ(out[r].bucket, known_answer.bucket);
      EXPECT_EQ(out[r].score, known_answer.score);
    }
    ASSERT_FALSE(out[1].valid);
    ASSERT_FALSE(out[3].valid);
  }
  EXPECT_EQ(Count(client, "rc_client_no_predictions"), none_before + 12'000);

  // PredictMany for a model the snapshot lacks: every row is a final miss.
  for (const Prediction& p : client.PredictMany("NOT_A_MODEL", batch)) EXPECT_FALSE(p.valid);
  EXPECT_EQ(Count(client, "rc_client_no_predictions"), none_before + 12'004);
  EXPECT_EQ(Count(client, "rc_client_state_publishes"), publishes);
}

// Pull mode and a disk mirror can still fill a miss, so those misses keep the
// locked fill path: each one copies and publishes the state.
TEST_F(ClientMetricsTest, UnknownSubscriptionsStillFillInPullModeAndWithDiskMirror) {
  const rc::testing::ScopedTempDir disk;
  ClientConfig pull;
  pull.mode = CacheMode::kPull;
  ClientConfig mirrored;
  mirrored.disk_cache_dir = disk.path().string();
  for (const ClientConfig& config : {pull, mirrored}) {
    Client client(store_.get(), config);
    ASSERT_TRUE(client.Initialize());
    const ClientInputs known = KnownInput();
    ASSERT_TRUE(client.PredictSingle("VM_P95UTIL", known).valid);
    const uint64_t publishes = Count(client, "rc_client_state_publishes");
    const uint64_t none_before = Count(client, "rc_client_no_predictions");
    for (uint64_t i = 0; i < 10; ++i) {
      EXPECT_FALSE(client.PredictSingle("VM_P95UTIL", UnknownInput(i)).valid);
    }
    EXPECT_EQ(Count(client, "rc_client_state_publishes"), publishes + 10);
    const std::vector<ClientInputs> batch = {known, UnknownInput(1)};
    const std::vector<Prediction> out = client.PredictMany("VM_P95UTIL", batch);
    EXPECT_TRUE(out[0].valid);
    EXPECT_FALSE(out[1].valid);
    EXPECT_EQ(Count(client, "rc_client_state_publishes"), publishes + 11);
    EXPECT_EQ(Count(client, "rc_client_no_predictions"), none_before + 11);
  }
}

// A final no-prediction is answered before the client's combiner: it never
// enters (or parks in) a coalescing window.
TEST_F(ClientMetricsTest, UnknownSubscriptionNeverEntersTheCombiner) {
  ClientConfig config;
  config.combiner.enabled = true;
  Client client(store_.get(), config);
  ASSERT_TRUE(client.Initialize());
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(client.PredictSingle("VM_P95UTIL", UnknownInput(i)).valid);
  }
  EXPECT_FALSE(client.PredictSingle("NOT_A_MODEL", KnownInput()).valid);
  EXPECT_EQ(Count(client, "rc_combiner_requests"), 0u);
  EXPECT_EQ(Count(client, "rc_client_no_predictions"), 101u);
  EXPECT_EQ(Count(client, "rc_client_state_publishes"), 1u);
  // A servable miss still goes through the combiner.
  EXPECT_TRUE(client.PredictSingle("VM_P95UTIL", KnownInput()).valid);
  EXPECT_EQ(Count(client, "rc_combiner_requests"), 1u);
}

}  // namespace
}  // namespace rc::core
