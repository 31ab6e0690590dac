// Layer probes of the traced run. After a workload's timed phases, the
// traced run calls single layers directly on the workload's own Client,
// model and keys, so every per-layer metric is measured on every workload:
// result-cache hits, unknown-subscription requests, PredictMany, the
// Featurizer, the ExecEngine walks, a store Put with listener delivery, a
// loopback round trip through rc::net::Server, and a short Section 6.2
// replay. A probe that duplicates what the workload itself measures (for
// example store.put_us on net_push) is skipped by the workload.
#ifndef RCBENCH_PROBES_H_
#define RCBENCH_PROBES_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "harness.h"
#include "spans.h"
#include "src/core/client.h"
#include "src/core/feature_data.h"
#include "src/core/featurizer.h"
#include "src/ml/classifier.h"
#include "src/sched/cluster.h"
#include "src/store/kv_store.h"
#include "src/trace/trace.h"

namespace rcb {

struct ProbeTarget {
  rc::core::Client* client = nullptr;
  rc::store::KvStore* store = nullptr;
  std::string model;  // probed model name
  const rc::ml::Classifier* classifier = nullptr;  // the trained model itself
  rc::core::FeatureEncoding encoding = rc::core::FeatureEncoding::kExpanded;
  rc::Metric metric = rc::Metric::kP95Cpu;
  const std::unordered_map<uint64_t, rc::core::SubscriptionFeatures>* features = nullptr;
  std::vector<rc::core::ClientInputs> known;    // inputs with feature data
  std::vector<rc::core::ClientInputs> unknown;  // inputs without
};

struct ClientFixture;
// The probe target of a client_read / net_push fixture: VM_P95UTIL as the
// pipeline trained it, on the given keys.
ProbeTarget TargetFor(const ClientFixture& fx, std::vector<rc::core::ClientInputs> known,
                      std::vector<rc::core::ClientInputs> unknown);

// Counters every workload reports from its registry: client.hit_ratio,
// client.model_executions, client.no_predictions, cache.admit_rejects,
// cache.probe_retries.
void ReportClientCounters(const rc::obs::MetricsRegistry& registry, Report& report);
// proc.voluntary_csw_per_kop, proc.sys_cpu_frac, proc.csw_per_request over a
// timed phase that answered `predictions` predictions in `requests` requests.
void ReportProcess(const Usage& usage, double predictions, double requests, Report& report);

// client.hit_ns, client.unknown_us, client.many_us, core.featurize_ns,
// ml.engine_single_ns, ml.engine_batch16_ns.
void ProbeClientLayers(const ProbeTarget& target, SpanSink* sink, Report& report);
// store.put_us: re-Put of unchanged feature blobs (listener delivery included).
void ProbeStorePut(const ProbeTarget& target, SpanSink* sink, Report& report);
// net.single_rtt_p99_us, net.many_rtt_p50_us over a loopback rc::net::Server
// (rc_server's defaults: shared combiner) in front of the target's Client.
void ProbeNet(const ProbeTarget& target, rc::obs::MetricsRegistry& registry, SpanSink* sink,
              Report& report);

// Per-layer metrics of Section 6.2 replays (sched.*, client.confident_share).
struct ReplayStats;
void ReportReplayLayers(const std::vector<ReplayStats>& replays, Report& report);
// A one-week RC-informed-soft replay of the trace's third month on 64
// servers, predicting with the target's VM_P95UTIL model.
void ProbeSched(const ProbeTarget& target, const rc::trace::Trace& trace, SpanSink* sink,
                Report& report);

// The traced run's own figures: self time per layer over the traced timed
// phase (printed as a table and reported as self.<layer>_share), the
// tracing overhead (1 - traced rate / untraced rate, trace.overhead_frac),
// and the part of threads x wall that no span covers
// (trace.unaccounted_frac), which must stay within the overhead. Writes
// every sink's kept spans as a Chrome-trace file.
void ReportTracing(const Args& args, const std::vector<const SpanSink*>& phase_sinks,
                   const std::vector<const SpanSink*>& all_sinks, double phase_wall_s,
                   int threads, double untraced_rate, double traced_rate, Checks& checks,
                   Report& report);

}  // namespace rcb

#endif  // RCBENCH_PROBES_H_
