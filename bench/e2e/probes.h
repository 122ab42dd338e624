// Per-layer probes: each times one public entry point in isolation at a
// fixed geometry, so a traced run of any workload reports the same layer
// table. Every probe runs one untimed warm-up and reports the median of
// kProbeReps timed repetitions.

#ifndef CONFORMER_BENCH_E2E_PROBES_H_
#define CONFORMER_BENCH_E2E_PROBES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench/e2e/harness.h"
#include "bench/e2e/train_loop.h"

namespace conformer::bench_e2e {

inline constexpr int kProbeReps = 9;
inline constexpr int kTrainProbeSteps = 8;

/// \brief One fleet_mix tenant: `model@horizon` over the bench window.
struct FleetTenant {
  const char* model;
  int64_t horizon;
  int mix;  ///< Requests per round of the traffic mix.
};

/// The fleet_mix tenants and traffic mix (4:2:2:1:1:1).
const std::vector<FleetTenant>& FleetTenants();

/// The bench window with the forecast horizon set to `horizon`.
data::WindowConfig FleetWindow(int64_t horizon);

/// "fleet.<model>-<h>" for tenant key "<model>@<h>": metric names allow
/// only [A-Za-z0-9_.-].
std::string TenantMetricPrefix(const std::string& key);

/// train.{data,forward,backward,clip,optimizer}_ms: medians over `steps`.
void AddTrainPhaseMetrics(const std::vector<StepTiming>& steps,
                          Report* report);

/// Runs kTrainProbeSteps steps of a fresh TrainLoop(seed), after one
/// warm-up step, with the profiler on; adds the exact per-step counts of
/// profiled ops, backward nodes, backward Slices and Gemm calls, and
/// returns the steps' timings. The steps stay inside the first epoch, so
/// every batch is full and the counts repeat exactly.
std::vector<StepTiming> RunTrainProbe(uint64_t seed, Report* report);

/// core.sirn, nn.gru, nn.conv1d, attention.sliding_window,
/// core.input_representation and flow forward/backward, and
/// fft.multivariate_weights, at the training geometry (batch 16).
void RunComponentProbes(uint64_t seed, Report* report);

/// runtime.plan_steps / arena_kib / replay_ms for the Conformer plan at
/// batch 1 and 8, with the batch-8 replay split by step kind through a
/// timing StepObserver.
void RunRuntimeProbes(uint64_t seed, Report* report);

/// fleet.<model>-<h>.predict_ms_b1: eager batch-1 Predict of each fleet
/// tenant's session.
void RunFleetModelProbes(uint64_t seed, Report* report);

}  // namespace conformer::bench_e2e

#endif  // CONFORMER_BENCH_E2E_PROBES_H_
