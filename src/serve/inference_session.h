// Inference entry point for trained models (docs/SERVING.md).
//
// An InferenceSession owns one eval-mode Forecaster restored from a PR-3
// checkpoint (model section only, every CRC validated) and answers
// Predict() calls under NoGradGuard, so no autograd tape is built.
// Results are bitwise identical to an eval-mode training forward (see
// serve_test.cc).
//
// Sessions also hot-reload: Reload(checkpoint) stages a fresh parameter
// set off the serving lock, then atomically swaps it in under the same
// mutex Predict() holds, so in-flight requests finish on the old model and
// later ones see the new one — and a corrupt or wrong-architecture
// checkpoint is rejected with the old model bitwise undisturbed (see
// serve_resilience_test.cc).

#ifndef CONFORMER_SERVE_INFERENCE_SESSION_H_
#define CONFORMER_SERVE_INFERENCE_SESSION_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "data/window_dataset.h"
#include "runtime/static_runtime.h"
#include "util/metrics.h"
#include "util/status.h"

namespace conformer::serve {

/// \brief Everything needed to rebuild the architecture a checkpoint was
/// trained with; the checkpoint supplies only parameter values.
struct SessionConfig {
  std::string model_name = "conformer";  ///< models::MakeForecaster name.
  data::WindowConfig window;
  int64_t dims = 7;
  models::ModelHyperParams hyper;
  /// >0 draws this many flow samples per Predict to attach a quantile band
  /// (Conformer only; other models serve point forecasts regardless).
  int64_t quantile_samples = 0;
  double coverage = 0.9;  ///< Band coverage when quantile_samples > 0.
  /// Serve point forecasts through the static runtime (docs/STATIC_RUNTIME.md):
  /// the first Predict for each batch geometry traces the model into an
  /// AOT-planned replay program; later calls with the same geometry replay it
  /// with zero per-op dispatch. Models the tracer cannot plan (and geometries
  /// that fail to trace) fall back to the eager path permanently. `false`
  /// serves every call through the eager forward.
  bool use_static_plan = true;
  /// Label compared against FaultInjector::Config::scope: a scoped chaos
  /// drill (CONFORMER_SERVE_FAULTS="...,scope=KEY") faults only sessions
  /// carrying the matching label. FleetServer::AddTenant stamps each
  /// tenant's key here; empty means "unlabeled" (still hit by unscoped
  /// injectors, ignored by scoped ones).
  std::string fault_scope;
};

/// \brief One forecast: point prediction plus an optional quantile band.
struct Forecast {
  Tensor point;  ///< [B, pred_len, D]
  Tensor lower;  ///< Defined only when the session samples quantiles.
  Tensor upper;
};

/// \brief A loaded model serving forecasts. Predict() and Reload() are
/// thread-safe: both serialize on the session mutex (the fleet shard that
/// claimed the tenant is the only hot-path Predict caller, so the lock is
/// uncontended in steady state).
class InferenceSession {
 public:
  /// Builds the model from `config` and restores parameters from
  /// `checkpoint`: a .ckpt file, or a checkpoint directory whose MANIFEST
  /// is walked newest-first. An empty path serves the freshly initialized
  /// model (benchmarks, smoke tests).
  static Result<std::unique_ptr<InferenceSession>> Open(
      const SessionConfig& config, const std::string& checkpoint);

  /// The request contract, read from the session's immutable config only:
  /// all four batch tensors defined, rank 3, with at least one row, equal
  /// row counts, and the window's lengths and widths. Every admitted batch
  /// is therefore Concat-compatible with every other. InvalidArgument
  /// names the first field that breaks it. Needs no lock.
  Status Validate(const data::Batch& batch) const;

  /// Forecasts one batch. Bumps serve.predicts and observes
  /// serve.predict_seconds; quantile sampling (when enabled) draws from the
  /// session's own RNG and does not perturb the point forecast. A batch that
  /// fails Validate() aborts with its message: callers that take untrusted
  /// input validate first (FleetServer admission does).
  Forecast Predict(const data::Batch& batch);

  /// Hot-swaps parameters from `checkpoint` (file or MANIFEST directory,
  /// like Open): a fresh architecture is built and restored *off* the
  /// serving lock, then swapped in atomically under it, invalidating the
  /// static-plan cache. On any failure — corrupt file (CRC), wrong
  /// architecture, injected mid-swap fault — the serving model is bitwise
  /// untouched and keeps answering. Bumps serve.reloads /
  /// serve.reload_failures.
  Status Reload(const std::string& checkpoint);

  const models::Forecaster& model() const { return *model_; }
  const SessionConfig& config() const { return config_; }

  /// The cached plan for `batch`'s geometry, or nullptr when none exists yet
  /// (or tracing failed). Test/bench introspection ONLY — never a serving
  /// dependency. The returned pointer is owned by the plan cache and is
  /// invalidated by Reload() (which clears the cache); do not hold it
  /// across a Reload() or dereference it while reloads may run
  /// concurrently.
  const runtime::Plan* plan_for(const data::Batch& batch) const;

 private:
  InferenceSession(SessionConfig config,
                   std::unique_ptr<models::Forecaster> model);

  /// Point forecast through the plan cache: hit -> replay, miss -> trace and
  /// cache (the traced output is the response), failed trace -> eager with a
  /// null-executor entry so the geometry is not re-traced every call.
  Tensor PredictPoint(const data::Batch& batch);

  SessionConfig config_;

  // Hot-path serve.* instruments, looked up once.
  metrics::Counter& predicts_;
  metrics::Counter& predicted_series_;
  metrics::Histogram& predict_seconds_;
  metrics::Counter& plan_hits_;
  metrics::Counter& plan_fallbacks_;

  /// Serializes Predict() against Reload()'s pointer swap (and concurrent
  /// Predict callers against each other, which also protects the plan
  /// cache). Reload stages its expensive work before taking this.
  mutable std::mutex mu_;
  std::unique_ptr<models::Forecaster> model_;
  /// Plan cache keyed by the shapes of the batch's four tensors; a null
  /// executor records a failed trace. Guarded by mu_, cleared on Reload.
  std::map<std::vector<Shape>, std::unique_ptr<runtime::PlanExecutor>>
      plans_;
};

}  // namespace conformer::serve

#endif  // CONFORMER_SERVE_INFERENCE_SESSION_H_
