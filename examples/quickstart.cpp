// Quickstart: the complete Resource Central loop in one file.
//
//   1. Generate a synthetic Azure-like VM trace (stand-in for telemetry).
//   2. Run the offline pipeline: aggregate feature data, train the six
//      prediction models, validate.
//   3. Publish models + specs + feature data to the (simulated) highly
//      available store.
//   4. Initialize the client library and request predictions, exactly as a
//      resource manager would (Table 2 API).
//
// Build: cmake --build build && ./build/examples/quickstart
//
// Set RC_METRICS_DUMP=1 to print the full Prometheus-style metrics
// exposition (the client's private registry plus the process-global one) at
// exit.
#include <cstdlib>
#include <iostream>

#include "src/core/client.h"
#include "src/core/offline_pipeline.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/store/kv_store.h"
#include "src/trace/workload_model.h"

using namespace rc;

int main() {
  std::cout << "== Resource Central quickstart ==\n\n";

  // 1. Workload: 20k VMs over three months, calibrated to the paper's
  //    published distributions (Section 3).
  trace::WorkloadConfig workload;
  workload.target_vm_count = 20'000;
  workload.num_subscriptions = 800;
  workload.seed = 7;
  trace::Trace trace = trace::WorkloadModel(workload).Generate();
  std::cout << "generated " << trace.vm_count() << " VMs across "
            << trace.subscriptions().size() << " subscriptions\n";

  // 2. Offline pipeline: train on the first two months.
  core::PipelineConfig pipeline_config;
  pipeline_config.train_end = 60 * kDay;
  pipeline_config.rf.num_trees = 16;   // quickstart-sized ensembles
  pipeline_config.gbt.num_rounds = 20;
  core::OfflinePipeline pipeline(pipeline_config);
  core::TrainedModels trained = pipeline.Run(trace);
  std::cout << "trained " << trained.models.size() << " models; feature data for "
            << trained.feature_data.size() << " subscriptions\n";

  // 3. Publish to the store (one per datacenter in production).
  store::KvStore store;
  core::OfflinePipeline::Publish(trained, store);
  std::cout << "published " << store.key_count() << " artifacts to the store\n\n";

  // 4. Client side: the "DLL" any resource manager links against.
  core::Client client(&store, core::ClientConfig{});
  if (!client.Initialize()) {
    std::cerr << "client initialization failed\n";
    return 1;
  }
  std::cout << "client models: ";
  for (const auto& name : client.GetAvailableModels()) std::cout << name << " ";
  std::cout << "\n\n";

  // Ask for predictions about a VM that just arrived (here: the first VM of
  // the third month, which the models have never seen).
  static const trace::VmSizeCatalog catalog;
  auto candidates = trace.VmsCreatedIn(60 * kDay, 90 * kDay);
  const trace::VmRecord& vm = *candidates.at(0);
  core::ClientInputs inputs = core::InputsFromVm(vm, catalog);
  std::cout << "new VM: subscription " << vm.subscription_id << ", " << vm.cores
            << " cores, " << vm.memory_gb << " GB, " << ToString(vm.vm_type) << "\n";

  for (Metric metric : kAllMetrics) {
    core::Prediction p = client.PredictSingle(MetricModelName(metric), inputs);
    std::cout << "  " << MetricName(metric) << ": ";
    if (!p.valid) {
      std::cout << "no-prediction (e.g. unseen subscription)\n";
      continue;
    }
    std::cout << "bucket '" << BucketLabel(metric, p.bucket) << "' (confidence "
              << p.score << ")\n";
  }

  // Ground truth for comparison.
  std::cout << "\nground truth: avg CPU bucket '"
            << BucketLabel(Metric::kAvgCpu, UtilizationBucket(vm.avg_cpu))
            << "', P95 bucket '"
            << BucketLabel(Metric::kP95Cpu, UtilizationBucket(vm.p95_max_cpu))
            << "', lifetime bucket '"
            << BucketLabel(Metric::kLifetime, LifetimeBucket(vm.lifetime())) << "'\n";

  // The client counts its activity in its metrics registry.
  rc::obs::MetricsRegistry& reg = client.metrics();
  std::cout << "\nclient stats: " << reg.GetCounter("rc_client_model_executions").Value()
            << " model executions, " << reg.GetCounter("rc_client_result_hits").Value()
            << " cache hits, " << reg.GetCounter("rc_client_no_predictions").Value()
            << " no-predictions\n";

  if (const char* dump = std::getenv("RC_METRICS_DUMP"); dump != nullptr && *dump != '0') {
    // Client instruments live in the client's own registry; the store,
    // pipeline, and scheduler default to the process-global one.
    std::cout << "\n== metrics (client registry) ==\n"
              << rc::obs::PrometheusText(client.metrics())
              << "\n== metrics (global registry) ==\n"
              << rc::obs::PrometheusText(rc::obs::MetricsRegistry::Global());
  }
  return 0;
}
