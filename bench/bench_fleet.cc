// Multi-tenant fleet benchmark (docs/SERVING.md, "The model fleet"): the
// isolation proof as a JSON diff. Two tenants at different horizons are
// driven open-loop three ways — each alone at half load, then both
// concurrently at the combined load — through one FleetServer with shared
// dispatcher shards. If the fleet isolates tenants, serving them together
// costs (almost) nothing: aggregate goodput stays >= 0.8x the sum of the
// isolated runs (CI's fleet-smoke step asserts exactly that on main).
//
// Emits the bench_parallel_kernels JSON schema for tools/compare_bench.py:
//
//   fleet_tenants                 registered tenants (structural, exact)
//   fleet_iso_goodput_<key>       tenant alone at half load, series/sec
//   fleet_aggregate_goodput       both tenants concurrent, series/sec
//   fleet_goodput_ratio           aggregate / sum-of-isolated (~1.0)
//   fleet_p99_ms_<key>            per-tenant p99 latency under the
//                                 concurrent run, milliseconds (emitted for
//                                 the artifact, not baselined: latency is
//                                 lower-is-better and compare_bench gates
//                                 higher-is-better rows only)
//
// Load points are sized off the measured direct Predict capacity, so the
// benchmark self-scales: each tenant is offered ~30% of the slower
// tenant's capacity, leaving the concurrent run (~60% aggregate) headroom
// on one core — the ratio measures isolation overhead, not saturation.

#include <algorithm>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "data/dataset_registry.h"
#include "serve/fleet_server.h"
#include "serve/loadgen.h"

namespace conformer::bench {
namespace {

// Direct (queueless) Predict capacity in series/sec — the load points'
// yardstick.
double MeasureCapacity(serve::InferenceSession* session,
                       const data::Batch& batch) {
  return static_cast<double>(batch.size()) *
         MeasureOpsPerSec([&] { session->Predict(batch); }).median;
}

int Main() {
  const int64_t threads = HardwareThreads();

  // Two linear tenants at different horizons: fast enough for the smoke
  // job, structurally a real mixed-geometry fleet. Untrained weights —
  // throughput does not depend on parameter values.
  data::TimeSeries series = data::MakeDataset("etth1", 0.08).value();
  const std::vector<std::string> keys = {"linear@8", "linear@16"};
  const std::vector<int64_t> horizons = {8, 16};

  serve::FleetServer fleet({.num_dispatchers = 2});
  std::vector<serve::TenantLoad> loads;
  for (size_t k = 0; k < keys.size(); ++k) {
    serve::TenantSpec spec;
    spec.session.model_name = "linear";
    spec.session.window = {
        .input_len = 32, .label_len = 16, .pred_len = horizons[k]};
    spec.session.dims = series.dims();
    spec.queue = {.max_batch_size = 8,
                  .max_queue_delay_us = 500,
                  .max_queue_depth = 64};
    if (!fleet.AddTenant(keys[k], spec).ok()) {
      std::fprintf(stderr, "failed to add tenant %s\n", keys[k].c_str());
      return 1;
    }
    data::DatasetSplits splits =
        data::MakeSplits(series, spec.session.window);
    loads.push_back({keys[k], splits.test.GetRange(0, 1), 1.0});
  }
  if (fleet.tenant_count() < 2) {
    std::fprintf(stderr, "fleet bench needs >= 2 concurrent tenants\n");
    return 1;
  }

  double capacity = 0.0;
  for (size_t k = 0; k < keys.size(); ++k) {
    const double tenant_capacity =
        MeasureCapacity(fleet.session(keys[k]), loads[k].prototype);
    capacity = k == 0 ? tenant_capacity : std::min(capacity, tenant_capacity);
  }
  // Per-tenant offered load: ~30% of the slower tenant's capacity, so the
  // concurrent run (~60% aggregate) stays under one core's capacity and
  // goodput measures isolation, not saturation.
  const double half_load = std::max(8.0, 0.3 * capacity);

  serve::LoadgenOptions options;
  options.duration_seconds = std::max(0.4, 4.0 * MinSeconds());
  options.num_clients = 2;
  options.seed = 1234;

  std::vector<BenchRow> rows;
  rows.push_back(
      {"fleet_tenants", threads, static_cast<double>(fleet.tenant_count())});

  // Each tenant alone at half load: the isolation yardstick.
  double iso_sum = 0.0;
  for (size_t k = 0; k < keys.size(); ++k) {
    options.offered_rps = half_load;
    const serve::LoadReport iso =
        serve::RunOpenLoop(fleet, {loads[k]}, options);
    rows.push_back(
        {"fleet_iso_goodput_" + keys[k], threads, iso.goodput_rps});
    iso_sum += iso.goodput_rps;
  }

  // Both tenants concurrent at the combined load (each still half_load).
  options.offered_rps = half_load * static_cast<double>(keys.size());
  const serve::LoadReport concurrent =
      serve::RunOpenLoop(fleet, loads, options);
  rows.push_back(
      {"fleet_aggregate_goodput", threads, concurrent.goodput_rps});
  rows.push_back({"fleet_goodput_ratio", threads,
                  iso_sum > 0.0 ? concurrent.goodput_rps / iso_sum : 0.0});
  for (const serve::TenantLoadStats& tenant : concurrent.tenants) {
    rows.push_back({"fleet_p99_ms_" + tenant.key, threads, tenant.p99_ms});
  }
  fleet.Shutdown();

  PrintBenchJson(rows);
  return 0;
}

}  // namespace
}  // namespace conformer::bench

int main() { return conformer::bench::Main(); }
