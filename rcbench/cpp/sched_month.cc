// sched_month: the Section 6.2 study on one thread. VM_P95UTIL (a 32-tree,
// depth-13 Random Forest on 100k month-1 rows) serves an RC-informed-soft
// replay of month 2 (about 317k arrivals) on 880 x (16 cores, 112 GB)
// servers, with one Client::PredictMany per arrival wave. The timed phase
// repeats the replay, each from a cold result cache, until its time is up.
#include <algorithm>
#include <iostream>

#include "fixture.h"
#include "probes.h"
#include "src/trace/vm_size_catalog.h"
#include "workloads.h"

namespace rcb {

using rc::core::ClientInputs;
using rc::core::Prediction;

namespace {

bool SameResult(const rc::sched::SimResult& a, const rc::sched::SimResult& b) {
  return a.total_vms == b.total_vms && a.failures == b.failures &&
         a.overload_readings == b.overload_readings &&
         a.occupied_readings == b.occupied_readings &&
         a.oversub_placements == b.oversub_placements &&
         a.mean_occupied_utilization == b.mean_occupied_utilization &&
         a.p99_utilization == b.p99_utilization;
}

// Replays, each from a cold result cache (ForceReloadCache invalidates it),
// while another replay of the mean length still fits in `seconds`, and at
// least `min_replays` times.
std::vector<ReplayStats> RunReplays(SchedFixture& fx,
                                    const std::vector<rc::sched::VmRequest>& requests,
                                    double seconds, int min_replays, SpanSink* sink) {
  std::vector<ReplayStats> out;
  const uint64_t start = NowNs();
  ScopedSpan root(sink, "bench/replays");
  auto another_fits = [&] {
    const double elapsed = SecondsSince(start);
    return out.empty() || elapsed + elapsed / static_cast<double>(out.size()) <= seconds;
  };
  while (static_cast<int>(out.size()) < min_replays || another_fits()) {
    {
      ScopedSpan span(sink, "core/reload");
      fx.client->ForceReloadCache();
    }
    out.push_back(Replay(*fx.client, requests, rc::sched::ClusterConfig{880, 16, 112.0},
                         30 * rc::kDay, sink));
  }
  return out;
}

}  // namespace

int RunSchedMonth(const Args& args, Checks& checks, Report& report) {
  SchedFixtureOptions options;
  if (args.quick) {
    options.monthly_vms = 20'000;
    options.max_train_rows = 5'000;
    options.trees = 8;
    options.depth = 8;
  }
  const int reps = args.quick ? 2 : 3;

  SpanSink setup_sink(0, 1000);
  std::vector<SetupTimes> setup;
  auto fx = RepeatSetup<SchedFixture>(reps, setup, [&](uint64_t start) {
    return BuildSchedFixture(options, args.seed, start, args.trace ? &setup_sink : nullptr);
  });
  if (fx == nullptr) {
    std::cerr << "sched_month: set-up failed\n";
    return 2;
  }
  ReportSetup(setup, report);
  PrintEngineDispatch("VM_P95UTIL", *fx->model);

  const std::vector<rc::sched::VmRequest> requests = MonthTwoRequests(fx->trace);
  // Arrivals counted from the trace itself, not from RequestsFromTrace.
  int64_t arrivals = 0;
  for (const rc::trace::VmRecord& vm : fx->trace.vms()) {
    if (vm.created >= 30 * rc::kDay && vm.created < 60 * rc::kDay) ++arrivals;
  }
  std::cout << "sched_month: " << arrivals << " month-2 arrivals on 880 x (16 cores, 112 GB)\n";

  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<ReplayStats> replays =
      RunReplays(*fx, requests, untraced_s, args.trace ? 1 : 2, nullptr);
  const double peak_rss_mb = ReadUsage().max_rss_mb;

  SpanSink replay_sink(1, 50'000);
  std::vector<ReplayStats> traced;
  uint64_t traced_start = 0;
  double traced_wall_s = 0.0;
  if (args.trace) {
    traced_start = NowNs();
    traced = RunReplays(*fx, requests, args.seconds / 2, 1, &replay_sink);
    traced_wall_s = SecondsSince(traced_start);
  }

  // Output checks over every replay of the run.
  std::vector<const ReplayStats*> all;
  for (const ReplayStats& r : replays) all.push_back(&r);
  for (const ReplayStats& r : traced) all.push_back(&r);
  const rc::sched::SimResult& first = all.front()->result;
  checks.ExpectEq("sched.placed_plus_refused",
                  (first.total_vms - first.failures) + first.failures,
                  arrivals + (checks.Perturbed("sched.placed_plus_refused") ? 1 : 0));
  int64_t keys_mismatch = 0, differing = 0, single_calls = 0;
  for (const ReplayStats* r : all) {
    if (r->keys != arrivals) ++keys_mismatch;
    if (!SameResult(r->result, first)) ++differing;
    single_calls += r->single_calls;
  }
  checks.ExpectEq("sched.one_prediction_per_arrival", keys_mismatch,
                  checks.Perturbed("sched.one_prediction_per_arrival") ? 1 : 0);
  checks.ExpectEq("sched.identical_replays", differing,
                  checks.Perturbed("sched.identical_replays") ? 1 : 0);
  // The paper's Section 6.2 properties of RC-informed-soft, no refused VM and
  // overload readings under 0.01% of occupied readings, hold on some seeds
  // and not on others, so they are reported, not checked.
  std::cout << "refused VMs: " << first.failures << " (the paper's month has none)\n"
            << "overloaded readings: " << first.overload_readings << " of "
            << first.occupied_readings << " occupied ("
            << 100.0 * static_cast<double>(first.overload_readings) /
                   static_cast<double>(std::max<int64_t>(1, first.occupied_readings))
            << "%; the paper's month has 77, under 0.01%)\n";

  // A sample of the answers, against the trained forest outside the Client.
  const Reference reference(
      fx->feature_data,
      {{"VM_P95UTIL",
        {fx->model.get(),
         rc::core::ModelSpec{"VM_P95UTIL", rc::Metric::kP95Cpu,
                             rc::core::OfflinePipeline::EncodingFor(rc::Metric::kP95Cpu),
                             fx->model->type_name(), 0, 1}}}});
  static const rc::trace::VmSizeCatalog catalog;
  std::vector<ClientInputs> sample;
  for (size_t i = 0; i < requests.size(); i += 97) {
    sample.push_back(rc::core::InputsFromVm(*requests[i].source, catalog));
  }
  std::vector<Prediction> answers = fx->client->PredictMany("VM_P95UTIL", sample);
  int64_t mismatched = 0;
  const bool perturbed = checks.Perturbed("sched.reference");
  for (size_t i = 0; i < sample.size(); ++i) {
    Prediction expected = reference("VM_P95UTIL", sample[i]);
    if (perturbed) expected.bucket += 1;
    if (!SameAnswer(answers[i], expected)) ++mismatched;
  }
  checks.Expect("sched.reference", !sample.empty() && mismatched == 0,
                std::to_string(mismatched) + " of " + std::to_string(sample.size()) +
                    " answers differ from Classifier::PredictScored");
  std::cout << "RC-informed-soft: " << first.total_vms << " arrivals, " << first.failures
            << " failures, " << first.overload_readings << " overloaded readings, "
            << first.oversub_placements << " oversubscribed placements, " << all.size()
            << " replays (" << single_calls << " per-VM predictor calls)\n";

  std::vector<double> rate, cpu_us, wave_us;
  for (const ReplayStats& r : replays) {
    std::cout << "replay: " << r.wall_s << " s, day-window rate quartiles "
              << Quantile(r.day_rate, 0.25) << " / " << Quantile(r.day_rate, 0.5) << " / "
              << Quantile(r.day_rate, 0.75) << " arrivals/s\n";
    rate.insert(rate.end(), r.day_rate.begin(), r.day_rate.end());
    cpu_us.insert(cpu_us.end(), r.day_cpu_us.begin(), r.day_cpu_us.end());
    wave_us.insert(wave_us.end(), r.wave_us.begin(), r.wave_us.end());
  }
  report.attempted = first.total_vms * static_cast<int64_t>(replays.size());
  // A refused placement is the policy's answer (sched.placements counts the
  // placed ones), not an operation that failed.
  report.failed = 0;
  report.E2e("throughput_per_s", Median(rate), "1/s");
  report.E2e("latency_p50_us", Median(wave_us), "us");
  report.E2e("cpu_us_per_op", Median(cpu_us), "us");
  report.E2e("peak_rss_mb", peak_rss_mb, "MB");

  report.Layer("client.latency_p99_us", Quantile(wave_us, 0.99), "us");
  ReportReplayLayers(replays, report);
  ReportClientCounters(fx->registry, report);
  Usage usage;
  for (const ReplayStats& r : replays) {
    usage.user_s += r.usage.user_s;
    usage.sys_s += r.usage.sys_s;
    usage.voluntary_csw += r.usage.voluntary_csw;
    usage.involuntary_csw += r.usage.involuntary_csw;
  }
  const double arrivals_replayed = static_cast<double>(report.attempted);
  ReportProcess(usage, arrivals_replayed, arrivals_replayed, report);
  if (!args.trace) return 0;

  SpanSink probe_sink(2, 20'000);
  ProbeTarget target;
  target.client = fx->client.get();
  target.store = fx->store.get();
  target.model = "VM_P95UTIL";
  target.classifier = fx->model.get();
  target.encoding = rc::core::OfflinePipeline::EncodingFor(rc::Metric::kP95Cpu);
  target.metric = rc::Metric::kP95Cpu;
  target.features = &fx->feature_data;
  for (size_t i = 0; i < requests.size() && target.known.size() < 256; i += 101) {
    ClientInputs in = rc::core::InputsFromVm(*requests[i].source, catalog);
    if (fx->feature_data.contains(in.subscription_id)) target.known.push_back(in);
  }
  uint64_t next_id = 0xB0000000ULL;
  for (size_t i = 0; i < 64 && !target.known.empty(); ++i) {
    ClientInputs in = target.known[i % target.known.size()];
    while (fx->feature_data.contains(next_id)) ++next_id;
    in.subscription_id = next_id++;
    target.unknown.push_back(in);
  }
  ProbeClientLayers(target, &probe_sink, report);
  ProbeNet(target, fx->registry, &probe_sink, report);
  report.Layer("combiner.mean_batch", HistMean(fx->registry, "rc_combiner_batch_size"), "count");
  ProbeStorePut(target, &probe_sink, report);

  std::vector<double> traced_rate, untraced_rate = rate;
  for (const ReplayStats& r : traced) {
    traced_rate.insert(traced_rate.end(), r.day_rate.begin(), r.day_rate.end());
  }
  ReportTracing(args, {&replay_sink}, {&setup_sink, &replay_sink, &probe_sink}, traced_wall_s, 1,
                Median(untraced_rate), Median(traced_rate), checks, report);
  return 0;
}

}  // namespace rcb
