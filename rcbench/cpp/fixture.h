// Set-up of the program for the three workloads, timed stage by stage, and
// the reference answers computed outside the Client.
//
//  * ClientFixture (client_read, net_push): a characterization trace, the
//    OfflinePipeline's six models published to a KvStore, an initialized
//    push-mode core::Client, and (net_push) an rc::net::Server.
//  * SchedFixture (sched_month): the Section 6.2 two-month first-party trace,
//    VM_P95UTIL trained on month 1, published, and an initialized Client.
//
// Every set-up repeats `reps` times in one run (the previous one torn down
// first) and setup_s reports the median, because the host's speed drifts on
// a scale of seconds. The first repetition is timed from process start.
#ifndef RCBENCH_FIXTURE_H_
#define RCBENCH_FIXTURE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.h"
#include "spans.h"
#include "src/core/client.h"
#include "src/core/featurizer.h"
#include "src/core/model_spec.h"
#include "src/core/offline_pipeline.h"
#include "src/ml/random_forest.h"
#include "src/net/server.h"
#include "src/obs/metrics.h"
#include "src/sched/policies.h"
#include "src/sched/simulator.h"
#include "src/store/kv_store.h"
#include "src/trace/trace.h"

namespace rcb {

struct SetupTimes {
  double generate_s = 0.0;
  double train_s = 0.0;
  double publish_s = 0.0;
  double initialize_s = 0.0;
  double server_start_s = 0.0;
  double total_s = 0.0;  // start of the repetition to the last stage's end
};

// Medians over the set-up repetitions.
SetupTimes MedianTimes(const std::vector<SetupTimes>& reps);
void ReportSetup(const std::vector<SetupTimes>& reps, Report& report);

struct ClientFixture {
  rc::trace::Trace trace;
  rc::core::TrainedModels trained;  // the pipeline's own classifiers
  rc::obs::MetricsRegistry registry;
  std::unique_ptr<rc::store::KvStore> store;
  std::unique_ptr<rc::core::Client> client;
  std::unique_ptr<rc::net::Server> server;
  std::vector<std::string> models;  // published model names, sorted
  SetupTimes times;
};

struct ClientFixtureOptions {
  int64_t vms = 30'000;  // characterization trace size (90 days)
  bool with_server = false;
  int server_workers = 2;
};

std::unique_ptr<ClientFixture> BuildClientFixture(const ClientFixtureOptions& options,
                                                  uint64_t seed, uint64_t start_ns,
                                                  SpanSink* sink);

// Distinct client inputs built from the trace's VMs whose subscription has
// pushed feature data (the "usable" inputs), in a seed-shuffled order.
std::vector<rc::core::ClientInputs> KnownInputs(const ClientFixture& fx, uint64_t seed);
// Inputs whose subscription has no pushed feature data (the paper's
// no-prediction case): known inputs with fresh subscription ids.
std::vector<rc::core::ClientInputs> UnknownInputs(const ClientFixture& fx, size_t n);

// Reference answers computed outside the Client: the spec's Featurizer on
// the feature records as published, scored by the pipeline's own
// Classifier::PredictScored. No-prediction when the subscription has no
// feature data. A published record stores its fractions and means as f32,
// so the reference decodes each record from its published bytes, exactly
// as a client receives it, rather than using the pipeline's f64 snapshot.
class Reference {
 public:
  using Features = std::unordered_map<uint64_t, rc::core::SubscriptionFeatures>;
  // `models` maps a model name to its classifier and spec.
  Reference(const Features& features,
            std::map<std::string, std::pair<const rc::ml::Classifier*, rc::core::ModelSpec>> models);
  explicit Reference(const ClientFixture& fx);

  rc::core::Prediction operator()(const std::string& model,
                                  const rc::core::ClientInputs& inputs) const;

 private:
  struct Entry {
    const rc::ml::Classifier* classifier;
    rc::core::Featurizer featurizer;
  };
  Features features_;  // decoded from the published bytes
  std::map<std::string, Entry> models_;
};

// Exact equality of two answers (validity, bucket and score).
inline bool SameAnswer(const rc::core::Prediction& a, const rc::core::Prediction& b) {
  return a.valid == b.valid && (!a.valid || (a.bucket == b.bucket && a.score == b.score));
}

struct SchedFixture {
  rc::trace::Trace trace;
  std::unique_ptr<rc::ml::RandomForest> model;
  // The feature-data snapshot published with the model (month 1).
  std::unordered_map<uint64_t, rc::core::SubscriptionFeatures> feature_data;
  rc::obs::MetricsRegistry registry;
  std::unique_ptr<rc::store::KvStore> store;
  std::unique_ptr<rc::core::Client> client;
  SetupTimes times;
};

struct SchedFixtureOptions {
  int64_t monthly_vms = 368'000;
  size_t max_train_rows = 100'000;
  int trees = 32;
  int depth = 13;
};

std::unique_ptr<SchedFixture> BuildSchedFixture(const SchedFixtureOptions& options,
                                                uint64_t seed, uint64_t start_ns,
                                                SpanSink* sink);

// Month-2 placement requests of a two-month trace, rebased to start at 0.
std::vector<rc::sched::VmRequest> MonthTwoRequests(const rc::trace::Trace& trace);

// One RC-informed-soft replay (Section 6.2) of `requests` on `cluster`,
// predicting through `client` with one PredictMany per arrival wave.
struct ReplayStats {
  rc::sched::SimResult result;
  double wall_s = 0.0;
  Usage usage;  // process resource usage over the replay
  double predict_s = 0.0;         // time inside the predictor callbacks
  int64_t waves = 0;
  int64_t keys = 0;               // predictions asked for
  int64_t confident = 0;          // answered with score >= 0.6
  int64_t single_calls = 0;       // per-VM predictor calls (0 when prefetched)
  std::vector<double> wave_us;    // PredictMany wall time per wave
  std::vector<double> day_rate;   // arrivals per wall second, per simulated day
  std::vector<double> day_cpu_us; // process CPU per arrival, per simulated day
};
ReplayStats Replay(rc::core::Client& client, const std::vector<rc::sched::VmRequest>& requests,
                   const rc::sched::ClusterConfig& cluster, rc::SimTime horizon, SpanSink* sink);

// Repeats `build` `reps` times (tearing the previous result down first) and
// returns the last; times[i] is repetition i (the first from process start).
template <typename T>
std::unique_ptr<T> RepeatSetup(int reps, std::vector<SetupTimes>& times,
                               const std::function<std::unique_ptr<T>(uint64_t)>& build) {
  std::unique_ptr<T> fx;
  for (int i = 0; i < reps; ++i) {
    fx.reset();
    const uint64_t start = i == 0 ? ProcessStartNs() : NowNs();
    fx = build(start);
    if (fx == nullptr) return nullptr;
    times.push_back(fx->times);
  }
  return fx;
}

}  // namespace rcb

#endif  // RCBENCH_FIXTURE_H_
