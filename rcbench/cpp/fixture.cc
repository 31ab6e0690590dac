#include "fixture.h"

#include <algorithm>
#include <iostream>
#include <optional>
#include <unordered_set>

#include "src/common/buckets.h"
#include "src/core/featurizer.h"
#include "src/core/model_spec.h"
#include "src/trace/vm_size_catalog.h"
#include "src/trace/workload_model.h"

namespace rcb {

using rc::core::ClientInputs;
using rc::core::Prediction;

namespace {

const rc::trace::VmSizeCatalog& Catalog() {
  static const rc::trace::VmSizeCatalog catalog;
  return catalog;
}

// The Section 3 characterization workload (three months, mixed parties).
rc::trace::WorkloadConfig CharacterizationWorkload(int64_t vms, uint64_t seed) {
  rc::trace::WorkloadConfig config;
  config.target_vm_count = vms;
  config.num_subscriptions = std::max<int>(500, static_cast<int>(vms / 25));
  config.duration = 90 * rc::kDay;
  config.seed = seed;
  return config;
}

// The Section 6.2 first-party workload (71% production tags, lighter
// lifetime tail, no >100-VM deployments), as the scheduler benches use it.
rc::trace::WorkloadConfig SchedulerWorkload(int64_t vms, uint64_t seed) {
  rc::trace::WorkloadConfig config;
  config.target_vm_count = vms;
  config.duration = 60 * rc::kDay;
  config.num_subscriptions = 4000;
  config.seed = seed;
  config.frac_first_party = 1.0;
  config.first_party_production_prob = 0.71;
  config.lifetime_cap_days = 15.0;
  config.lifetime_tail_alpha = 1.0;
  config.popularity_cap = 0.0015;
  config.resident_interactive_vm_frac = 0.002;
  config.deploy_vms_marginal = {0.49, 0.41, 0.10, 0.0};
  config.arrivals.weibull_shape = 0.9;
  config.arrivals.night_level = 0.6;
  config.arrivals.weekend_level = 0.8;
  return config;
}

}  // namespace

SetupTimes MedianTimes(const std::vector<SetupTimes>& reps) {
  auto med = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : reps) v.push_back(t.*field);
    return Median(v);
  };
  SetupTimes m;
  m.generate_s = med(&SetupTimes::generate_s);
  m.train_s = med(&SetupTimes::train_s);
  m.publish_s = med(&SetupTimes::publish_s);
  m.initialize_s = med(&SetupTimes::initialize_s);
  m.server_start_s = med(&SetupTimes::server_start_s);
  m.total_s = med(&SetupTimes::total_s);
  return m;
}

void ReportSetup(const std::vector<SetupTimes>& reps, Report& report) {
  for (size_t i = 0; i < reps.size(); ++i) {
    const SetupTimes& t = reps[i];
    std::cout << "setup " << i << ": generate " << t.generate_s << " s, train " << t.train_s
              << " s, publish " << t.publish_s << " s, initialize " << t.initialize_s
              << " s, server start " << t.server_start_s << " s, total " << t.total_s
              << " s\n";
  }
  SetupTimes m = MedianTimes(reps);
  report.E2e("setup_s", m.total_s, "s");
  report.Layer("trace.generate_s", m.generate_s, "s");
  report.Layer("pipeline.train_s", m.train_s, "s");
  report.Layer("store.publish_s", m.publish_s, "s");
  report.Layer("client.initialize_s", m.initialize_s, "s");
}

std::unique_ptr<ClientFixture> BuildClientFixture(const ClientFixtureOptions& options,
                                                  uint64_t seed, uint64_t start_ns,
                                                  SpanSink* sink) {
  auto fx = std::make_unique<ClientFixture>();
  ScopedSpan root(sink, "bench/setup");
  uint64_t t = NowNs();
  {
    ScopedSpan span(sink, "trace/generate");
    fx->trace = rc::trace::WorkloadModel(CharacterizationWorkload(options.vms, seed)).Generate();
  }
  fx->times.generate_s = SecondsSince(t);

  t = NowNs();
  {
    ScopedSpan span(sink, "core/pipeline_run");
    // bench/bench_common's DefaultPipelineConfig sizes, trained on one
    // thread so set-up time does not depend on what else the host runs.
    rc::core::PipelineConfig config;
    config.train_begin = 0;
    config.train_end = 60 * rc::kDay;
    config.rf.num_trees = 16;
    config.rf.tree.max_depth = 10;
    config.rf.tree.min_samples_leaf = 16;
    config.rf.num_threads = 1;
    config.gbt.num_rounds = 40;
    config.seed = seed + 1;
    config.metrics = &fx->registry;
    fx->trained = rc::core::OfflinePipeline(config).Run(fx->trace);
  }
  fx->times.train_s = SecondsSince(t);

  t = NowNs();
  {
    ScopedSpan span(sink, "store/publish");
    rc::store::KvStore::Options store_options;
    store_options.metrics = &fx->registry;
    fx->store = std::make_unique<rc::store::KvStore>(store_options);
    rc::core::OfflinePipeline::Publish(fx->trained, *fx->store, &fx->registry);
  }
  fx->times.publish_s = SecondsSince(t);

  t = NowNs();
  {
    ScopedSpan span(sink, "core/initialize");
    rc::core::ClientConfig config;  // push mode, the defaults
    config.metrics = &fx->registry;
    fx->client = std::make_unique<rc::core::Client>(fx->store.get(), config);
    if (!fx->client->Initialize()) return nullptr;
  }
  fx->times.initialize_s = SecondsSince(t);
  for (const auto& [name, _] : fx->trained.models) fx->models.push_back(name);

  if (options.with_server) {
    t = NowNs();
    ScopedSpan span(sink, "net/server_start");
    // rc_server's defaults: a shared combiner with a 40 us window.
    rc::net::ServerConfig config;
    config.num_workers = options.server_workers;
    config.metrics = &fx->registry;
    config.combiner_mode = rc::net::CombinerMode::kShared;
    config.combiner_max_wait_us = 40;
    fx->server = std::make_unique<rc::net::Server>(fx->client.get(), config);
    if (!fx->server->Start()) return nullptr;
    fx->times.server_start_s = SecondsSince(t);
  }
  fx->times.total_s = SecondsSince(start_ns);
  return fx;
}

std::vector<ClientInputs> KnownInputs(const ClientFixture& fx, uint64_t seed) {
  std::vector<ClientInputs> out;
  std::unordered_set<uint64_t> seen;
  for (const rc::trace::VmRecord& vm : fx.trace.vms()) {
    if (!fx.trained.feature_data.contains(vm.subscription_id)) continue;
    ClientInputs in = rc::core::InputsFromVm(vm, Catalog());
    if (seen.insert(in.CacheKey("")).second) out.push_back(in);
  }
  rc::Rng rng(seed ^ 0x5eedf00dULL);
  rng.Shuffle(out);
  return out;
}

std::vector<ClientInputs> UnknownInputs(const ClientFixture& fx, size_t n) {
  std::vector<ClientInputs> known = KnownInputs(fx, 0);
  std::vector<ClientInputs> out;
  uint64_t next_id = 0xB0000000ULL;
  for (size_t i = 0; i < n && !known.empty(); ++i) {
    ClientInputs in = known[i % known.size()];
    while (fx.trained.feature_data.contains(next_id)) ++next_id;
    in.subscription_id = next_id++;
    out.push_back(in);
  }
  return out;
}

Reference::Reference(
    const Features& features,
    std::map<std::string, std::pair<const rc::ml::Classifier*, rc::core::ModelSpec>> models)
    : features_(features.size()) {
  for (const auto& [sub_id, record] : features) {
    features_.emplace(sub_id, rc::core::SubscriptionFeatures::Deserialize(record.Serialize()));
  }
  for (const auto& [name, entry] : models) {
    models_.emplace(name, Entry{entry.first, rc::core::Featurizer(entry.second.metric,
                                                                  entry.second.encoding)});
  }
}

namespace {
std::map<std::string, std::pair<const rc::ml::Classifier*, rc::core::ModelSpec>> PipelineModels(
    const ClientFixture& fx) {
  std::map<std::string, std::pair<const rc::ml::Classifier*, rc::core::ModelSpec>> out;
  for (const auto& [name, model] : fx.trained.models) {
    out.emplace(name, std::make_pair(model.get(), fx.trained.specs.at(name)));
  }
  return out;
}
}  // namespace

Reference::Reference(const ClientFixture& fx)
    : Reference(fx.trained.feature_data, PipelineModels(fx)) {}

Prediction Reference::operator()(const std::string& model, const ClientInputs& inputs) const {
  auto history = features_.find(inputs.subscription_id);
  if (history == features_.end()) return Prediction::None();
  const Entry& entry = models_.at(model);
  std::vector<double> row = entry.featurizer.Encode(inputs, history->second);
  auto scored = entry.classifier->PredictScored(row);
  return Prediction::Of(scored.label, scored.score);
}

std::unique_ptr<SchedFixture> BuildSchedFixture(const SchedFixtureOptions& options,
                                                uint64_t seed, uint64_t start_ns,
                                                SpanSink* sink) {
  auto fx = std::make_unique<SchedFixture>();
  ScopedSpan root(sink, "bench/setup");
  uint64_t t = NowNs();
  {
    ScopedSpan span(sink, "trace/generate");
    fx->trace =
        rc::trace::WorkloadModel(SchedulerWorkload(2 * options.monthly_vms, seed)).Generate();
  }
  fx->times.generate_s = SecondsSince(t);

  const rc::Metric metric = rc::Metric::kP95Cpu;
  const rc::core::FeatureEncoding encoding = rc::core::OfflinePipeline::EncodingFor(metric);
  rc::core::Featurizer featurizer(metric, encoding);
  auto& snapshot = fx->feature_data;
  t = NowNs();
  {
    ScopedSpan span(sink, "core/pipeline_train");
    // VM_P95UTIL on month 1, as bench/sched_common trains it: a subsample of
    // 100k examples, a 32-tree depth-13 Random Forest (one thread).
    auto examples = rc::core::OfflinePipeline::BuildExamples(fx->trace, metric, 0,
                                                             30 * rc::kDay, false);
    if (examples.size() > options.max_train_rows) {
      rc::Rng rng(seed + 1);
      rng.Shuffle(examples);
      examples.resize(options.max_train_rows);
    }
    rc::ml::Dataset data = rc::core::OfflinePipeline::ToDataset(examples, featurizer);
    rc::ml::RandomForestConfig rf;
    rf.num_trees = options.trees;
    rf.tree.max_depth = options.depth;
    rf.seed = seed + 2;
    rf.num_threads = 1;
    fx->model = std::make_unique<rc::ml::RandomForest>(rc::ml::RandomForest::Fit(data, rf));
    snapshot = rc::core::OfflinePipeline::BuildFeatureSnapshot(fx->trace, 30 * rc::kDay, false);
  }
  fx->times.train_s = SecondsSince(t);

  t = NowNs();
  {
    ScopedSpan span(sink, "store/publish");
    rc::store::KvStore::Options store_options;
    store_options.metrics = &fx->registry;
    fx->store = std::make_unique<rc::store::KvStore>(store_options);
    rc::core::ModelSpec spec;
    spec.name = rc::MetricModelName(metric);
    spec.metric = metric;
    spec.encoding = encoding;
    spec.model_family = fx->model->type_name();
    spec.num_features = static_cast<uint32_t>(featurizer.num_features());
    spec.version = 1;
    fx->store->Put(rc::core::SpecKey(spec.name), spec.Serialize());
    fx->store->Put(rc::core::ModelKey(spec.name), fx->model->SerializeTagged());
    for (const auto& [sub_id, features] : snapshot) {
      fx->store->Put(rc::core::FeatureKey(sub_id), features.Serialize());
    }
  }
  fx->times.publish_s = SecondsSince(t);

  t = NowNs();
  {
    ScopedSpan span(sink, "core/initialize");
    rc::core::ClientConfig config;
    config.metrics = &fx->registry;
    fx->client = std::make_unique<rc::core::Client>(fx->store.get(), config);
    if (!fx->client->Initialize()) return nullptr;
  }
  fx->times.initialize_s = SecondsSince(t);
  fx->times.total_s = SecondsSince(start_ns);
  return fx;
}

std::vector<rc::sched::VmRequest> MonthTwoRequests(const rc::trace::Trace& trace) {
  std::vector<rc::sched::VmRequest> out;
  for (rc::sched::VmRequest req : rc::sched::RequestsFromTrace(trace, 60 * rc::kDay)) {
    if (req.arrival < 30 * rc::kDay) continue;
    req.arrival -= 30 * rc::kDay;
    req.departure -= 30 * rc::kDay;
    out.push_back(req);
  }
  return out;
}

ReplayStats Replay(rc::core::Client& client, const std::vector<rc::sched::VmRequest>& requests,
                   const rc::sched::ClusterConfig& cluster_config, rc::SimTime horizon,
                   SpanSink* sink) {
  ReplayStats stats;
  rc::obs::MetricsRegistry sim_metrics;  // keeps rc_sched_*/rc_sim_* per replay
  rc::sched::Cluster cluster(cluster_config);
  rc::sched::PolicyConfig policy_config;
  policy_config.kind = rc::sched::PolicyKind::kRcInformedSoft;
  policy_config.metrics = &sim_metrics;
  const std::string model = "VM_P95UTIL";

  rc::sched::UtilPredictor predictor = [&](const rc::sched::VmRequest& vm) {
    ScopedSpan span(sink, "core/predict_single");
    ++stats.single_calls;
    ++stats.keys;
    Prediction p = client.PredictSingle(model, rc::core::InputsFromVm(*vm.source, Catalog()));
    if (p.valid && p.score >= 0.6) ++stats.confident;
    return p;
  };
  // Simulated-day windows: from the first wave of one day to the first wave
  // of the next, arrivals handled per wall second and CPU per arrival.
  struct Mark {
    uint64_t ns;
    int64_t keys;
    Usage usage;
  };
  std::optional<Mark> day_start;
  int64_t day = -1;
  auto close_day = [&](const Mark& end) {
    if (!day_start.has_value() || end.keys == day_start->keys) return;
    const double n = static_cast<double>(end.keys - day_start->keys);
    stats.day_rate.push_back(n * 1e9 / static_cast<double>(end.ns - day_start->ns));
    stats.day_cpu_us.push_back((end.usage - day_start->usage).cpu_s() * 1e6 / n);
  };
  std::vector<ClientInputs> inputs;
  rc::sched::BatchUtilPredictor batch = [&](std::span<const rc::sched::VmRequest> vms) {
    if (!vms.empty() && vms.front().arrival / rc::kDay != day) {
      const Mark mark{NowNs(), stats.keys, ReadUsage()};
      close_day(mark);
      day_start = mark;
      day = vms.front().arrival / rc::kDay;
    }
    const uint64_t t0 = NowNs();
    ScopedSpan span(sink, "core/predict_many", static_cast<uint64_t>(stats.waves));
    inputs.clear();
    for (const rc::sched::VmRequest& vm : vms) {
      inputs.push_back(rc::core::InputsFromVm(*vm.source, Catalog()));
    }
    std::vector<Prediction> out = client.PredictMany(model, inputs);
    for (const Prediction& p : out) {
      if (p.valid && p.score >= 0.6) ++stats.confident;
    }
    ++stats.waves;
    stats.keys += static_cast<int64_t>(out.size());
    const double us = static_cast<double>(NowNs() - t0) / 1e3;
    stats.wave_us.push_back(us);
    stats.predict_s += us / 1e6;
    return out;
  };
  rc::sched::SchedulingPolicy policy(policy_config, &cluster, std::move(predictor),
                                     std::move(batch));
  rc::sched::SimConfig sim_config;
  sim_config.cluster = cluster_config;
  sim_config.horizon = horizon;
  sim_config.metrics = &sim_metrics;
  rc::sched::ClusterSimulator simulator(sim_config);

  const Usage u0 = ReadUsage();
  const uint64_t t0 = NowNs();
  {
    ScopedSpan span(sink, "sched/replay");
    stats.result = simulator.Run(requests, policy);
  }
  const Mark end{NowNs(), stats.keys, ReadUsage()};
  close_day(end);
  stats.wall_s = static_cast<double>(end.ns - t0) / 1e9;
  stats.usage = end.usage - u0;
  return stats;
}

}  // namespace rcb
