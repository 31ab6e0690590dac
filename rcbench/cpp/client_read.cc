// client_read: an in-process core::Client (push mode, default config) read
// by nproc (4) closed-loop threads. Keys are Zipf(0.99) over a few thousand
// known inputs and a uniformly drawn model; 10% of requests are
// PredictMany(16) and 4% are PredictSingle for subscriptions with no pushed
// feature data (the paper's no-prediction case). No writes.
//
// Four threads, not three: the no-prediction path serializes on the
// client's writer mutex, so threads sleep and wake on it, and with a core
// left idle throughput followed how deeply idle cores slept (three threads:
// 423k-470k/s across runs of one seed, 485k/s with two unrelated CPU-bound
// processes beside it; four threads: 381k-402k/s either way).
#include <array>
#include <iostream>

#include "fixture.h"
#include "load.h"
#include "probes.h"
#include "workloads.h"

namespace rcb {

using rc::core::ClientInputs;
using rc::core::Prediction;

namespace {

constexpr int kThreads = 4;
constexpr int kBatch = 16;
constexpr double kManyShare = 0.10;
constexpr double kUnknownShare = 0.04;
constexpr uint64_t kLatencyEvery = 16;  // one PredictSingle in 16 is timed
constexpr size_t kSampleCap = 20'000;   // answers kept per thread for the check
constexpr size_t kUnknownInputs = 64;

struct Sample {
  uint32_t model;
  uint32_t input;
  Prediction answer;
};

struct alignas(64) Worker {
  std::atomic<uint64_t> predictions{0};
  std::atomic<uint64_t> requests{0};
  uint64_t probes = 0;  // result-cache probes the calls imply
  uint64_t unknown = 0;
  uint64_t unknown_answered = 0;
  Reservoir latency_us;
  std::vector<Sample> samples;
  std::unique_ptr<SpanSink> sink;
};

struct Inputs {
  std::vector<std::string> models;
  std::vector<ClientInputs> known;
  std::vector<ClientInputs> unknown;
};

void Loop(rc::core::Client& client, const Inputs& in, const Zipf& zipf, uint64_t seed,
          const LoadControl& control, Worker& w) {
  rc::Rng rng(seed);
  SpanSink* sink = w.sink.get();
  ScopedSpan root(sink, "bench/loop");
  std::vector<ClientInputs> batch(kBatch);
  std::array<uint32_t, kBatch> idx{};
  uint64_t predictions = w.predictions.load(std::memory_order_relaxed);
  uint64_t requests = w.requests.load(std::memory_order_relaxed);
  uint64_t singles = 0;
  while (!control.stop.load(std::memory_order_relaxed)) {
    const double r = rng.NextDouble();
    const uint32_t m = static_cast<uint32_t>(rng.NextU64() % in.models.size());
    const std::string& model = in.models[m];
    ++requests;
    if (r < kManyShare) {
      for (int j = 0; j < kBatch; ++j) {
        idx[j] = static_cast<uint32_t>(zipf.Draw(rng));
        batch[j] = in.known[idx[j]];
      }
      std::vector<Prediction> out;
      {
        ScopedSpan span(sink, "core/predict_many", requests);
        out = client.PredictMany(model, batch);
      }
      predictions += kBatch;
      w.probes += kBatch;
      if (requests % 8 == 0 && w.samples.size() < kSampleCap) {
        for (int j = 0; j < kBatch; ++j) w.samples.push_back({m, idx[j], out[j]});
      }
    } else {
      const bool unknown = r < kManyShare + kUnknownShare;
      const uint32_t i = unknown ? static_cast<uint32_t>(rng.NextU64() % in.unknown.size())
                                 : static_cast<uint32_t>(zipf.Draw(rng));
      const ClientInputs& inputs = unknown ? in.unknown[i] : in.known[i];
      const bool timed = ++singles % kLatencyEvery == 0 &&
                         control.measuring.load(std::memory_order_relaxed);
      const uint64_t t0 = timed ? NowNs() : 0;
      Prediction p;
      {
        ScopedSpan span(sink, "core/predict_single", requests);
        p = client.PredictSingle(model, inputs);
      }
      if (timed) w.latency_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
      ++predictions;
      ++w.probes;
      if (unknown) {
        ++w.unknown;
        if (p.valid) ++w.unknown_answered;
      } else if (timed && w.samples.size() < kSampleCap) {
        w.samples.push_back({m, i, p});
      }
    }
    w.predictions.store(predictions, std::memory_order_relaxed);
    w.requests.store(requests, std::memory_order_relaxed);
  }
}

// One timed phase; returns it with the latency samples of every worker.
LoadPhase RunPhase(rc::core::Client& client, const Inputs& in, const Zipf& zipf,
                   uint64_t seed, double warmup_s, double seconds, std::vector<Worker>& workers,
                   std::vector<double>& latency_us) {
  for (Worker& w : workers) w.latency_us.Clear();
  LoadPhase phase =
      RunClosedLoop(workers, warmup_s, seconds, [&](size_t t, const LoadControl& control) {
        Loop(client, in, zipf, seed * 1000003 + t, control, workers[t]);
      });
  latency_us.clear();
  latency_us.reserve(workers.size() * Reservoir::kCapacity);
  for (const Worker& w : workers) w.latency_us.AppendTo(latency_us);
  return phase;
}

}  // namespace

int RunClientRead(const Args& args, Checks& checks, Report& report) {
  ClientFixtureOptions options;
  if (args.quick) options.vms = 6'000;
  const size_t known_keys = args.quick ? 512 : 4096;
  const int reps = args.quick ? 2 : 3;
  const double warmup_s = args.quick ? 0.1 : 0.5;

  SpanSink setup_sink(0, 1000);
  std::vector<SetupTimes> setup;
  auto fx = RepeatSetup<ClientFixture>(reps, setup, [&](uint64_t start) {
    return BuildClientFixture(options, args.seed, start, args.trace ? &setup_sink : nullptr);
  });
  if (fx == nullptr) {
    std::cerr << "client_read: set-up failed\n";
    return 2;
  }
  ReportSetup(setup, report);
  PrintEngineDispatch("VM_P95UTIL", *fx->trained.models.at("VM_P95UTIL"));

  Inputs in;
  in.models = fx->models;
  in.known = KnownInputs(*fx, args.seed);
  if (in.known.size() > known_keys) in.known.resize(known_keys);
  in.unknown = UnknownInputs(*fx, kUnknownInputs);
  const Zipf zipf(in.known.size(), 0.99);
  std::cout << "client_read: " << in.models.size() << " models, " << in.known.size()
            << " known inputs, " << in.unknown.size() << " unknown-subscription inputs, "
            << kThreads << " threads\n";

  std::vector<Worker> workers(kThreads);
  std::vector<double> latency_us;
  const LoadPhase phase = RunPhase(*fx->client, in, zipf, args.seed, warmup_s,
                                   args.trace ? args.seconds / 2 : args.seconds, workers,
                                   latency_us);
  const double peak_rss_mb = ReadUsage().max_rss_mb;

  // Output checks.
  const Reference reference(*fx);
  int64_t compared = 0, mismatched = 0;
  const bool perturbed = checks.Perturbed("client.reference");
  uint64_t unknown = 0, unknown_answered = 0, probes = 0;
  for (const Worker& w : workers) {
    for (const Sample& s : w.samples) {
      Prediction expected = reference(in.models[s.model], in.known[s.input]);
      if (perturbed) expected.bucket += 1;
      ++compared;
      if (!SameAnswer(s.answer, expected)) ++mismatched;
    }
    unknown += w.unknown;
    unknown_answered += w.unknown_answered;
    probes += w.probes;
  }
  checks.Expect("client.reference", compared > 0 && mismatched == 0,
                std::to_string(mismatched) + " of " + std::to_string(compared) +
                    " sampled answers differ from Classifier::PredictScored");
  checks.ExpectEq("client.unknown_no_prediction", static_cast<int64_t>(unknown_answered),
                  checks.Perturbed("client.unknown_no_prediction") ? 1 : 0);
  const uint64_t hits = CounterSum(fx->registry, "rc_client_result_hits");
  const uint64_t misses = CounterSum(fx->registry, "rc_client_result_misses");
  checks.ExpectEq("client.probe_accounting", static_cast<int64_t>(hits + misses),
                  static_cast<int64_t>(probes) +
                      (checks.Perturbed("client.probe_accounting") ? 1 : 0));
  std::cout << "unknown-subscription requests: " << unknown << "\n";

  const Windows& w = phase.windows;
  report.attempted = static_cast<int64_t>(phase.requests);
  report.failed = 0;  // an in-process call has no failure status
  report.E2e("throughput_per_s", w.Throughput(), "1/s");
  report.E2e("latency_p50_us", Median(latency_us), "us");
  report.E2e("cpu_us_per_op", w.CpuPerUnit(), "us");
  report.E2e("peak_rss_mb", peak_rss_mb, "MB");
  report.Layer("client.latency_p99_us", Quantile(latency_us, 0.99), "us");
  ReportClientCounters(fx->registry, report);
  ReportProcess(w.usage, static_cast<double>(w.units), static_cast<double>(phase.requests),
                report);
  if (!args.trace) return 0;

  // Traced run: the same phase again with spans, then the layer probes.
  for (int t = 0; t < kThreads; ++t) workers[t].sink = std::make_unique<SpanSink>(t + 1, 20'000);
  std::vector<double> traced_latency_us;
  const LoadPhase traced = RunPhase(*fx->client, in, zipf, args.seed + 1, warmup_s,
                                    args.seconds / 2, workers, traced_latency_us);
  SpanSink probe_sink(kThreads + 1, 20'000);
  const ProbeTarget target = TargetFor(*fx, in.known, in.unknown);
  ProbeClientLayers(target, &probe_sink, report);
  ProbeNet(target, fx->registry, &probe_sink, report);
  report.Layer("combiner.mean_batch", HistMean(fx->registry, "rc_combiner_batch_size"), "count");
  ProbeSched(target, fx->trace, &probe_sink, report);
  ProbeStorePut(target, &probe_sink, report);

  std::vector<const SpanSink*> phase_sinks, all_sinks{&setup_sink, &probe_sink};
  for (const Worker& wk : workers) {
    phase_sinks.push_back(wk.sink.get());
    all_sinks.push_back(wk.sink.get());
  }
  ReportTracing(args, phase_sinks, all_sinks, traced.wall_s, kThreads,
                phase.windows.Throughput(), traced.windows.Throughput(), checks,
                report);
  return 0;
}

}  // namespace rcb
