#include "probes.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <unordered_set>

#include "fixture.h"
#include "src/core/model_spec.h"
#include "src/ml/exec_engine.h"
#include "src/net/client.h"
#include "src/net/server.h"

namespace rcb {

using rc::core::ClientInputs;
using rc::core::Prediction;

namespace {

constexpr size_t kProbeKeys = 256;
constexpr int kGroups = 200;

// Folded into a printed checksum so no probed call can be optimized away.
double g_probe_sink = 0.0;

double NsSince(uint64_t t0) { return static_cast<double>(NowNs() - t0); }

}  // namespace

ProbeTarget TargetFor(const ClientFixture& fx, std::vector<ClientInputs> known,
                      std::vector<ClientInputs> unknown) {
  ProbeTarget target;
  target.client = fx.client.get();
  target.store = fx.store.get();
  target.model = "VM_P95UTIL";
  target.classifier = fx.trained.models.at(target.model).get();
  target.encoding = fx.trained.specs.at(target.model).encoding;
  target.metric = fx.trained.specs.at(target.model).metric;
  target.features = &fx.trained.feature_data;
  target.known = std::move(known);
  target.unknown = std::move(unknown);
  return target;
}

void ReportClientCounters(const rc::obs::MetricsRegistry& registry, Report& report) {
  const uint64_t hits = CounterSum(registry, "rc_client_result_hits");
  const uint64_t misses = CounterSum(registry, "rc_client_result_misses");
  auto count = [&](const char* name) { return static_cast<double>(CounterSum(registry, name)); };
  report.Layer("client.hit_ratio",
               hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                                 : 0.0,
               "ratio");
  report.Layer("client.model_executions", count("rc_client_model_executions"), "count");
  report.Layer("client.no_predictions", count("rc_client_no_predictions"), "count");
  report.Layer("cache.admit_rejects", count("rc_cache_admit_rejects"), "count");
  report.Layer("cache.probe_retries", count("rc_cache_probe_retries"), "count");
}

void ReportProcess(const Usage& usage, double predictions, double requests, Report& report) {
  report.Layer("proc.voluntary_csw_per_kop",
               static_cast<double>(usage.voluntary_csw) * 1000.0 / std::max(1.0, predictions),
               "count");
  report.Layer("proc.sys_cpu_frac", usage.cpu_s() > 0 ? usage.sys_s / usage.cpu_s() : 0.0,
               "ratio");
  report.Layer("proc.csw_per_request",
               static_cast<double>(usage.voluntary_csw + usage.involuntary_csw) /
                   std::max(1.0, requests),
               "count");
}

void ProbeClientLayers(const ProbeTarget& t, SpanSink* sink, Report& report) {
  rc::core::Client& client = *t.client;
  const size_t n = std::min(kProbeKeys, t.known.size());
  const std::vector<ClientInputs> keys(t.known.begin(), t.known.begin() + n);
  for (const ClientInputs& in : keys) client.PredictSingle(t.model, in);  // fill the cache

  std::vector<double> hit_ns;
  for (int g = 0; g < kGroups; ++g) {
    ScopedSpan span(sink, "core/probe_hit_group");
    const uint64_t t0 = NowNs();
    for (const ClientInputs& in : keys) g_probe_sink += client.PredictSingle(t.model, in).score;
    hit_ns.push_back(NsSince(t0) / static_cast<double>(n));
  }
  report.Layer("client.hit_ns", Median(hit_ns), "ns");

  std::vector<double> unknown_us;
  for (int i = 0; i < kGroups && !t.unknown.empty(); ++i) {
    ScopedSpan span(sink, "core/probe_unknown");
    const uint64_t t0 = NowNs();
    g_probe_sink += client.PredictSingle(t.model, t.unknown[i % t.unknown.size()]).score;
    unknown_us.push_back(NsSince(t0) / 1e3);
  }
  report.Layer("client.unknown_us", Median(unknown_us), "us");

  std::vector<double> many_us;
  for (int i = 0; i < kGroups && n >= 16; ++i) {
    const size_t off = (static_cast<size_t>(i) * 16) % (n - 15);
    std::span<const ClientInputs> batch(keys.data() + off, 16);
    ScopedSpan span(sink, "core/probe_many");
    const uint64_t t0 = NowNs();
    g_probe_sink += client.PredictMany(t.model, batch)[0].score;
    many_us.push_back(NsSince(t0) / 1e3);
  }
  report.Layer("client.many_us", Median(many_us), "us");

  // Featurizer and ExecEngine on the same keys, outside the Client.
  rc::core::Featurizer featurizer(t.metric, t.encoding);
  const size_t nf = featurizer.num_features();
  std::vector<const rc::core::SubscriptionFeatures*> histories;
  std::vector<const ClientInputs*> inputs;
  for (const ClientInputs& in : keys) {
    auto it = t.features->find(in.subscription_id);
    if (it == t.features->end()) continue;
    histories.push_back(&it->second);
    inputs.push_back(&in);
  }
  const size_t rows = inputs.size();
  std::vector<double> X(rows * nf);
  std::vector<double> featurize_ns;
  for (int g = 0; g < kGroups && rows > 0; ++g) {
    ScopedSpan span(sink, "core/probe_featurize_group");
    const uint64_t t0 = NowNs();
    for (size_t r = 0; r < rows; ++r) {
      featurizer.EncodeTo(*inputs[r], *histories[r], {X.data() + r * nf, nf});
    }
    featurize_ns.push_back(NsSince(t0) / static_cast<double>(rows));
  }
  report.Layer("core.featurize_ns", Median(featurize_ns), "ns");

  const rc::ml::ExecEngine* engine = t.classifier->engine();
  std::vector<double> single_ns, batch_ns;
  if (engine != nullptr && rows >= 16) {
    const size_t k = static_cast<size_t>(engine->num_classes());
    std::vector<double> proba(16 * k);
    for (int g = 0; g < kGroups; ++g) {
      ScopedSpan span(sink, "ml/probe_engine_single_group");
      const uint64_t t0 = NowNs();
      for (size_t r = 0; r < rows; ++r) {
        g_probe_sink += engine->PredictScored({X.data() + r * nf, nf}, {proba.data(), k}).score;
      }
      single_ns.push_back(NsSince(t0) / static_cast<double>(rows));
    }
    const size_t batches = rows / 16;
    for (int g = 0; g < kGroups; ++g) {
      ScopedSpan span(sink, "ml/probe_engine_batch16_group");
      const uint64_t t0 = NowNs();
      for (size_t b = 0; b < batches; ++b) {
        engine->PredictBatch(X.data() + b * 16 * nf, 16, nf, proba.data());
        g_probe_sink += proba[0];
      }
      batch_ns.push_back(NsSince(t0) / static_cast<double>(batches));
    }
  }
  report.Layer("ml.engine_single_ns", Median(single_ns), "ns");
  report.Layer("ml.engine_batch16_ns", Median(batch_ns), "ns");
  std::cout << "probe checksum " << g_probe_sink << "\n";
}

void ProbeStorePut(const ProbeTarget& t, SpanSink* sink, Report& report) {
  std::unordered_set<uint64_t> subs;
  std::vector<double> put_us;
  for (const ClientInputs& in : t.known) {
    if (subs.size() == 64) break;
    if (!subs.insert(in.subscription_id).second) continue;
    const std::string key = rc::core::FeatureKey(in.subscription_id);
    std::optional<rc::store::VersionedBlob> blob = t.store->Get(key);
    if (!blob.has_value()) continue;
    ScopedSpan span(sink, "store/probe_put");
    const uint64_t t0 = NowNs();
    t.store->Put(key, std::move(blob->data));
    put_us.push_back(NsSince(t0) / 1e3);
  }
  report.Layer("store.put_us", Median(put_us), "us");
}

void ProbeNet(const ProbeTarget& t, rc::obs::MetricsRegistry& registry, SpanSink* sink,
              Report& report) {
  rc::net::ServerConfig server_config;
  server_config.num_workers = 2;
  server_config.metrics = &registry;
  server_config.combiner_mode = rc::net::CombinerMode::kShared;
  rc::net::Server server(t.client, server_config);
  std::vector<double> single_us, many_us;
  if (server.Start()) {
    rc::net::ClientConfig config;
    config.port = server.port();
    config.pool_size = 1;
    config.default_deadline_us = 5'000'000;
    rc::net::Client net(config);
    const size_t n = std::min(kProbeKeys, t.known.size());
    Prediction p;
    for (int i = 0; i < 2000; ++i) {
      ScopedSpan span(sink, "net/probe_single");
      const uint64_t t0 = NowNs();
      if (net.PredictSingle(t.model, t.known[static_cast<size_t>(i) % n], &p) ==
          rc::net::Status::kOk) {
        single_us.push_back(NsSince(t0) / 1e3);
      }
    }
    std::vector<Prediction> out;
    for (int i = 0; i < 300 && n >= 16; ++i) {
      const size_t off = (static_cast<size_t>(i) * 16) % (n - 15);
      ScopedSpan span(sink, "net/probe_many");
      const uint64_t t0 = NowNs();
      if (net.PredictMany(t.model, {t.known.data() + off, 16}, &out) ==
          rc::net::Status::kOk) {
        many_us.push_back(NsSince(t0) / 1e3);
      }
    }
  }
  report.Layer("net.single_rtt_p99_us", Quantile(single_us, 0.99), "us");
  report.Layer("net.many_rtt_p50_us", Median(many_us), "us");
  report.Layer("net.server_predict_p50_us",
               HistQuantile(registry, "rc_net_request_latency_us", 0.5), "us");
}

void ReportReplayLayers(const std::vector<ReplayStats>& replays, Report& report) {
  std::vector<double> replay_s, predict_s, self_s;
  for (const ReplayStats& r : replays) {
    replay_s.push_back(r.wall_s);
    predict_s.push_back(r.predict_s);
    self_s.push_back(r.wall_s - r.predict_s);
  }
  const ReplayStats& first = replays.front();
  report.Layer("sched.replay_s", Median(replay_s), "s");
  report.Layer("sched.predict_s", Median(predict_s), "s");
  report.Layer("sched.self_s", Median(self_s), "s");
  report.Layer("sched.waves", static_cast<double>(first.waves), "count");
  report.Layer("sched.keys_per_wave",
               first.waves > 0 ? static_cast<double>(first.keys) / first.waves : 0.0, "count");
  report.Layer("sched.placements",
               static_cast<double>(first.result.total_vms - first.result.failures), "count");
  report.Layer("sched.oversub_placements", static_cast<double>(first.result.oversub_placements),
               "count");
  report.Layer("sched.overload_readings", static_cast<double>(first.result.overload_readings),
               "count");
  report.Layer("client.confident_share",
               first.keys > 0 ? static_cast<double>(first.confident) / first.keys : 0.0,
               "ratio");
}

void ProbeSched(const ProbeTarget& t, const rc::trace::Trace& trace, SpanSink* sink,
                Report& report) {
  constexpr rc::SimTime kFrom = 60 * rc::kDay;
  std::vector<rc::sched::VmRequest> requests;
  for (rc::sched::VmRequest req : rc::sched::RequestsFromTrace(trace, kFrom + rc::kWeek)) {
    if (req.arrival < kFrom) continue;
    req.arrival -= kFrom;
    req.departure -= kFrom;
    requests.push_back(req);
  }
  std::vector<ReplayStats> replays;
  replays.push_back(Replay(*t.client, requests, rc::sched::ClusterConfig{64, 16, 112.0},
                           rc::kWeek, sink));
  ReportReplayLayers(replays, report);
}

void ReportTracing(const Args& args, const std::vector<const SpanSink*>& phase_sinks,
                   const std::vector<const SpanSink*>& all_sinks, double phase_wall_s,
                   int threads, double untraced_rate, double traced_rate, Checks& checks,
                   Report& report) {
  std::vector<LayerSelf> layers = SelfByLayer(phase_sinks);
  PrintSelfTable(args.workload + " traced timed phase", layers, phase_wall_s, threads);
  const double total = TotalSelfS(layers);
  for (const char* layer : {"bench", "core", "net", "store", "sched"}) {
    double self = 0.0;
    for (const LayerSelf& l : layers) {
      if (l.layer == layer) self = l.self_s;
    }
    report.Layer(std::string("self.") + layer + "_share", total > 0 ? self / total : 0.0,
                 "ratio");
  }
  const double overhead = untraced_rate > 0 ? 1.0 - traced_rate / untraced_rate : 0.0;
  const double unaccounted = 1.0 - total / (phase_wall_s * threads);
  report.Layer("trace.overhead_frac", overhead, "ratio");
  report.Layer("trace.unaccounted_frac", unaccounted, "ratio");
  std::cout << "tracing overhead " << overhead * 100.0 << "% (untraced " << untraced_rate
            << "/s, traced " << traced_rate << "/s); unaccounted wall "
            << unaccounted * 100.0 << "%\n";
  double limit = std::max(0.02, std::abs(overhead));
  if (checks.Perturbed("trace.self_time_accounting")) limit = -1.0;
  checks.Expect("trace.self_time_accounting", std::abs(unaccounted) <= limit,
                "self times cover " + std::to_string(total) + " s of " +
                    std::to_string(phase_wall_s * threads) + " thread-seconds");
  const std::string path =
      args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) + ".trace.json";
  if (WriteChromeTrace(path, all_sinks, ProcessStartNs())) {
    std::cout << "chrome trace: " << path << "\n";
  }
}

}  // namespace rcb
