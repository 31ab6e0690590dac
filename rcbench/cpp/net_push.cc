// net_push: an rc::net::Server (2 epoll workers, rc_server's default shared
// combiner) in front of an in-process Client, driven over loopback by nproc
// (4) closed-loop load threads with one connection each. 75% PredictSingle
// and 25% PredictMany(16); keys are Zipf(0.99) over every usable trace input
// and a uniformly drawn model, so the tail misses the result cache. Every
// kPushEvery requests, load thread 0 re-Puts one subscription's unchanged
// feature blob: store listener -> ingest -> publish -> whole-cache
// invalidation, beside the reads. No unknown subscriptions.
//
// Four load threads, not two: with two, each request chain left cores idle
// between hops, and throughput followed how deeply the host's idle cores
// slept (two unrelated CPU-bound processes beside the benchmark raised it by
// 20% and cut the round-trip P50 from 35 to 25-29 us); with four the same
// contention moved overall throughput by 1.5%.
#include <array>
#include <iostream>

#include "fixture.h"
#include "load.h"
#include "probes.h"
#include "src/core/model_spec.h"
#include "src/net/client.h"
#include "workloads.h"

namespace rcb {

using rc::core::ClientInputs;
using rc::core::Prediction;

namespace {

constexpr int kThreads = 4;
constexpr int kBatch = 16;
constexpr double kManyShare = 0.25;
constexpr uint64_t kPushEvery = 2048;  // requests of load thread 0 per push
constexpr size_t kSampleCap = 20'000;

struct Sample {
  uint32_t model;
  uint32_t input;
  Prediction answer;
};

struct alignas(64) Worker {
  std::atomic<uint64_t> predictions{0};
  std::atomic<uint64_t> requests{0};
  uint64_t failed = 0;  // responses other than kOk
  Reservoir single_us;
  Reservoir many_us;
  std::vector<double> put_us;
  std::vector<Sample> samples;
  std::vector<Sample> after_push;  // answers right after a push of their subscription
  std::unique_ptr<SpanSink> sink;
};

struct Inputs {
  std::vector<std::string> models;
  std::vector<ClientInputs> known;
};

void Loop(rc::store::KvStore& store, uint16_t port, const Inputs& in, const Zipf& zipf,
          uint64_t seed, bool pusher, const LoadControl& control, Worker& w) {
  rc::net::ClientConfig config;
  config.port = port;
  config.pool_size = 1;
  config.default_deadline_us = 5'000'000;
  rc::net::Client net(config);
  rc::Rng rng(seed);
  SpanSink* sink = w.sink.get();
  ScopedSpan root(sink, "bench/loop");
  std::vector<ClientInputs> batch(kBatch);
  std::array<uint32_t, kBatch> idx{};
  std::vector<Prediction> out;
  uint64_t predictions = w.predictions.load(std::memory_order_relaxed);
  uint64_t requests = w.requests.load(std::memory_order_relaxed);
  uint64_t local = 0;
  while (!control.stop.load(std::memory_order_relaxed)) {
    const bool measure = control.measuring.load(std::memory_order_relaxed);
    const double r = rng.NextDouble();
    const uint32_t m = static_cast<uint32_t>(rng.NextU64() % in.models.size());
    const std::string& model = in.models[m];
    ++requests;
    ++local;
    if (r < kManyShare) {
      for (int j = 0; j < kBatch; ++j) {
        idx[j] = static_cast<uint32_t>(zipf.Draw(rng));
        batch[j] = in.known[idx[j]];
      }
      const uint64_t t0 = NowNs();
      rc::net::Status status;
      {
        ScopedSpan span(sink, "net/predict_many", requests);
        status = net.PredictMany(model, batch, &out);
      }
      if (measure) w.many_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
      if (status != rc::net::Status::kOk) {
        ++w.failed;
      } else {
        predictions += kBatch;
        if (local % 8 == 0 && w.samples.size() < kSampleCap) {
          for (int j = 0; j < kBatch; ++j) w.samples.push_back({m, idx[j], out[j]});
        }
      }
    } else {
      const uint32_t i = static_cast<uint32_t>(zipf.Draw(rng));
      Prediction p;
      const uint64_t t0 = NowNs();
      rc::net::Status status;
      {
        ScopedSpan span(sink, "net/predict_single", requests);
        status = net.PredictSingle(model, in.known[i], &p);
      }
      if (measure) w.single_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
      if (status != rc::net::Status::kOk) {
        ++w.failed;
      } else {
        ++predictions;
        if (local % 16 == 0 && w.samples.size() < kSampleCap) w.samples.push_back({m, i, p});
      }
    }
    if (pusher && local % kPushEvery == 0) {
      // Re-Put one subscription's unchanged feature blob, then ask for a key
      // of that subscription: the answer must not change.
      const uint32_t i = static_cast<uint32_t>(zipf.Draw(rng));
      const std::string key = rc::core::FeatureKey(in.known[i].subscription_id);
      std::optional<rc::store::VersionedBlob> blob = store.Get(key);
      if (blob.has_value()) {
        const uint64_t t0 = NowNs();
        {
          ScopedSpan span(sink, "store/put", requests);
          store.Put(key, std::move(blob->data));
        }
        w.put_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
        Prediction p;
        ++requests;
        ScopedSpan span(sink, "net/predict_single", requests);
        if (net.PredictSingle(in.models[m], in.known[i], &p) != rc::net::Status::kOk) {
          ++w.failed;
        } else {
          ++predictions;
          w.after_push.push_back({m, i, p});
        }
      }
    }
    w.predictions.store(predictions, std::memory_order_relaxed);
    w.requests.store(requests, std::memory_order_relaxed);
  }
}

// One timed phase; returns it with the round trips of every worker.
LoadPhase RunPhase(ClientFixture& fx, const Inputs& in, const Zipf& zipf, uint64_t seed,
                   double warmup_s, double seconds, std::vector<Worker>& workers,
                   std::vector<double>& single_us, std::vector<double>& many_us) {
  for (Worker& w : workers) {
    w.single_us.Clear();
    w.many_us.Clear();
  }
  LoadPhase phase =
      RunClosedLoop(workers, warmup_s, seconds, [&](size_t t, const LoadControl& control) {
        Loop(*fx.store, fx.server->port(), in, zipf, seed * 1000003 + t, t == 0, control,
             workers[t]);
      });
  single_us.clear();
  many_us.clear();
  single_us.reserve(workers.size() * Reservoir::kCapacity);
  many_us.reserve(workers.size() * Reservoir::kCapacity);
  for (const Worker& w : workers) {
    w.single_us.AppendTo(single_us);
    w.many_us.AppendTo(many_us);
  }
  return phase;
}

}  // namespace

int RunNetPush(const Args& args, Checks& checks, Report& report) {
  ClientFixtureOptions options;
  if (args.quick) options.vms = 6'000;
  options.with_server = true;
  options.server_workers = 2;
  const int reps = args.quick ? 2 : 3;
  const double warmup_s = args.quick ? 0.1 : 0.5;

  SpanSink setup_sink(0, 1000);
  std::vector<SetupTimes> setup;
  auto fx = RepeatSetup<ClientFixture>(reps, setup, [&](uint64_t start) {
    return BuildClientFixture(options, args.seed, start, args.trace ? &setup_sink : nullptr);
  });
  if (fx == nullptr) {
    std::cerr << "net_push: set-up failed\n";
    return 2;
  }
  ReportSetup(setup, report);
  PrintEngineDispatch("VM_P95UTIL", *fx->trained.models.at("VM_P95UTIL"));

  Inputs in;
  in.models = fx->models;
  in.known = KnownInputs(*fx, args.seed);
  const Zipf zipf(in.known.size(), 0.99);
  std::cout << "net_push: " << in.models.size() << " models, " << in.known.size()
            << " usable inputs, " << kThreads << " load threads, " << options.server_workers
            << " server workers\n";

  std::vector<Worker> workers(kThreads);
  std::vector<double> single_us, many_us;
  const LoadPhase phase =
      RunPhase(*fx, in, zipf, args.seed, warmup_s, args.trace ? args.seconds / 2 : args.seconds,
               workers, single_us, many_us);
  const double peak_rss_mb = ReadUsage().max_rss_mb;

  // Output checks.
  uint64_t failed = 0, pushes = 0;
  std::vector<double> put_us;
  for (const Worker& w : workers) {
    failed += w.failed;
    pushes += w.put_us.size();
    put_us.insert(put_us.end(), w.put_us.begin(), w.put_us.end());
  }
  checks.ExpectEq("net.all_ok", static_cast<int64_t>(failed),
                  checks.Perturbed("net.all_ok") ? 1 : 0);
  const Reference reference(*fx);
  auto compare = [&](const char* name, std::vector<Sample> Worker::*samples) {
    int64_t compared = 0, mismatched = 0;
    const bool perturbed = checks.Perturbed(name);
    for (const Worker& w : workers) {
      for (const Sample& s : w.*samples) {
        Prediction expected = reference(in.models[s.model], in.known[s.input]);
        if (perturbed) expected.bucket += 1;
        ++compared;
        if (!SameAnswer(s.answer, expected)) ++mismatched;
      }
    }
    checks.Expect(name, compared > 0 && mismatched == 0,
                  std::to_string(mismatched) + " of " + std::to_string(compared) +
                      " wire answers differ from Classifier::PredictScored");
  };
  compare("net.reference", &Worker::samples);
  compare("net.push_unchanged", &Worker::after_push);
  std::cout << "pushes: " << pushes << "\n";

  const Windows& w = phase.windows;
  report.attempted = static_cast<int64_t>(phase.requests);
  report.failed = static_cast<int64_t>(failed);
  report.E2e("throughput_per_s", w.Throughput(), "1/s");
  report.E2e("latency_p50_us", Median(single_us), "us");
  report.E2e("cpu_us_per_op", w.CpuPerUnit(), "us");
  report.E2e("peak_rss_mb", peak_rss_mb, "MB");

  report.Layer("client.latency_p99_us", Quantile(single_us, 0.99), "us");
  report.Layer("net.single_rtt_p99_us", Quantile(single_us, 0.99), "us");
  report.Layer("net.many_rtt_p50_us", Median(many_us), "us");
  // Server-side handling of a frame (decode, predict, encode), from the
  // server's existing histogram: with the shared combiner the server never
  // calls Client::PredictSingle, so rc_client_predict_latency_us stays empty.
  report.Layer("net.server_predict_p50_us",
               HistQuantile(fx->registry, "rc_net_request_latency_us", 0.5), "us");
  report.Layer("store.put_us", Median(put_us), "us");
  report.Layer("combiner.mean_batch", HistMean(fx->registry, "rc_combiner_batch_size"), "count");
  ReportClientCounters(fx->registry, report);
  ReportProcess(w.usage, static_cast<double>(w.units), static_cast<double>(phase.requests),
                report);
  if (!args.trace) return 0;

  for (int t = 0; t < kThreads; ++t) workers[t].sink = std::make_unique<SpanSink>(t + 1, 20'000);
  const LoadPhase traced = RunPhase(*fx, in, zipf, args.seed + 1, warmup_s, args.seconds / 2,
                                    workers, single_us, many_us);
  SpanSink probe_sink(kThreads + 1, 20'000);
  const ProbeTarget target = TargetFor(*fx, in.known, UnknownInputs(*fx, 64));
  ProbeClientLayers(target, &probe_sink, report);
  ProbeSched(target, fx->trace, &probe_sink, report);

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
