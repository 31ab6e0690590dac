// Parity oracle for the rc::cache result cache (ISSUE 10): a client with
// the admission-controlled cache must return bit-identical Predictions to a
// cache-off client over the same store state, epoch invalidation semantics
// must hold under a republish storm, and the warm hit path must perform
// zero shard-mutex acquisitions (rc::cache::ShardLockAcquisitions hook).
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/cache/sharded_cache.h"
#include "src/core/client.h"
#include "src/core/offline_pipeline.h"
#include "src/trace/workload_model.h"
#include "tests/client_counter.h"

namespace rc::core {
namespace {

using rc::store::KvStore;
using rc::testing::ClientCounter;
using rc::trace::Trace;
using rc::trace::WorkloadConfig;
using rc::trace::WorkloadModel;

bool BitIdentical(const Prediction& a, const Prediction& b) {
  return a.valid == b.valid && a.bucket == b.bucket &&
         std::memcmp(&a.score, &b.score, sizeof(double)) == 0;
}

class ClientCacheParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.target_vm_count = 4000;
    config.num_subscriptions = 200;
    config.seed = 1234;
    trace_ = new Trace(WorkloadModel(config).Generate());
    PipelineConfig pipeline_config;
    pipeline_config.rf.num_trees = 8;
    pipeline_config.gbt.num_rounds = 8;
    OfflinePipeline pipeline(pipeline_config);
    trained_ = new TrainedModels(pipeline.Run(*trace_));
  }

  void SetUp() override {
    store_ = std::make_unique<KvStore>();
    OfflinePipeline::Publish(*trained_, *store_);
  }

  // Inputs for subscriptions present in the published feature data.
  std::vector<ClientInputs> KnownInputSet(size_t limit) const {
    static const rc::trace::VmSizeCatalog catalog;
    std::vector<ClientInputs> inputs;
    for (const auto& vm : trace_->vms()) {
      if (inputs.size() >= limit) break;
      if (trained_->feature_data.contains(vm.subscription_id)) {
        inputs.push_back(InputsFromVm(vm, catalog));
      }
    }
    EXPECT_FALSE(inputs.empty());
    return inputs;
  }

  static const Trace* trace_;
  static const TrainedModels* trained_;
  std::unique_ptr<KvStore> store_;
};

const Trace* ClientCacheParityTest::trace_ = nullptr;
const TrainedModels* ClientCacheParityTest::trained_ = nullptr;

TEST_F(ClientCacheParityTest, CachedResultsBitIdenticalToCacheOff) {
  ClientConfig cached_config;  // default: W-TinyLFU cache on
  Client cached(store_.get(), cached_config);
  ASSERT_TRUE(cached.Initialize());

  ClientConfig uncached_config;
  uncached_config.result_cache_capacity = 0;  // every call executes
  Client uncached(store_.get(), uncached_config);
  ASSERT_TRUE(uncached.Initialize());

  const std::vector<ClientInputs> inputs = KnownInputSet(200);
  const std::vector<std::string> models = {"VM_P95UTIL", "VM_AVGUTIL"};
  // Two passes: pass 0 fills the cache, pass 1 serves hits — both must be
  // bit-identical to the always-execute client.
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& model : models) {
      for (const auto& in : inputs) {
        const Prediction a = cached.PredictSingle(model, in);
        const Prediction b = uncached.PredictSingle(model, in);
        ASSERT_TRUE(BitIdentical(a, b))
            << "pass " << pass << " model " << model << " valid " << a.valid
            << "/" << b.valid << " bucket " << a.bucket << "/" << b.bucket;
      }
    }
  }
  // The second pass actually exercised the cache.
  EXPECT_GT(ClientCounter(cached, "rc_client_result_hits"), 0u);
  EXPECT_EQ(ClientCounter(uncached, "rc_client_result_hits"), 0u);
}

TEST_F(ClientCacheParityTest, AdmissionOffParityHolds) {
  ClientConfig config;
  config.result_cache_admission = false;  // plain-LRU arm, same oracle
  Client cached(store_.get(), config);
  ASSERT_TRUE(cached.Initialize());

  ClientConfig uncached_config;
  uncached_config.result_cache_capacity = 0;
  Client uncached(store_.get(), uncached_config);
  ASSERT_TRUE(uncached.Initialize());

  const std::vector<ClientInputs> inputs = KnownInputSet(100);
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& in : inputs) {
      ASSERT_TRUE(BitIdentical(cached.PredictSingle("VM_P95UTIL", in),
                               uncached.PredictSingle("VM_P95UTIL", in)));
    }
  }
}

TEST_F(ClientCacheParityTest, RepublishStormPreservesEpochSemantics) {
  // Readers hammer predictions while feature data republishes churn the
  // snapshot and invalidate the result cache. Afterwards, every cached
  // answer must match a cache-off client built on the final store state —
  // i.e. no pre-invalidation result survived an invalidation.
  Client cached(store_.get(), ClientConfig{});
  ASSERT_TRUE(cached.Initialize());
  const std::vector<ClientInputs> inputs = KnownInputSet(64);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  readers.reserve(3);
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      size_t i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        cached.PredictSingle("VM_P95UTIL", inputs[i % inputs.size()]);
        ++i;
      }
    });
  }
  // The storm: republish feature data for the subscriptions under test with
  // changing contents, so a stale cached result is actually wrong.
  for (int round = 0; round < 30; ++round) {
    for (size_t i = 0; i < 8 && i < inputs.size(); ++i) {
      SubscriptionFeatures features;
      features.subscription_id = inputs[i].subscription_id;
      features.vm_count = 1 + (round % 5);
      store_->Put(FeatureKey(features.subscription_id), features.Serialize());
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();

  ClientConfig reference_config;
  reference_config.result_cache_capacity = 0;
  Client reference(store_.get(), reference_config);
  ASSERT_TRUE(reference.Initialize());
  for (const auto& in : inputs) {
    const Prediction a = cached.PredictSingle("VM_P95UTIL", in);
    const Prediction b = reference.PredictSingle("VM_P95UTIL", in);
    ASSERT_TRUE(BitIdentical(a, b)) << "stale result survived invalidation";
  }
}

TEST_F(ClientCacheParityTest, WarmHitPathTakesZeroShardLocks) {
  Client client(store_.get(), ClientConfig{});
  ASSERT_TRUE(client.Initialize());
  const std::vector<ClientInputs> inputs = KnownInputSet(32);
  // Warm: every key inserted (insert takes the shard writer lock, once).
  for (const auto& in : inputs) client.PredictSingle("VM_P95UTIL", in);
  const uint64_t hits_before = ClientCounter(client, "rc_client_result_hits");
  const uint64_t locks_before = rc::cache::ShardLockAcquisitions();
  for (int round = 0; round < 50; ++round) {
    for (const auto& in : inputs) client.PredictSingle("VM_P95UTIL", in);
  }
  EXPECT_EQ(rc::cache::ShardLockAcquisitions(), locks_before)
      << "a warm PredictSingle hit acquired a cache shard mutex";
  EXPECT_EQ(ClientCounter(client, "rc_client_result_hits"), hits_before + 50 * inputs.size());
}

}  // namespace
}  // namespace rc::core
