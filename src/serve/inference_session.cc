#include "serve/inference_session.h"

#include <utility>

#include "core/conformer_model.h"
#include "serve/fault_injector.h"
#include "train/checkpoint.h"
#include "util/binary_io.h"
#include "util/metrics.h"
#include "util/profiler.h"

namespace conformer::serve {

namespace {

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty() || dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

// Restores `model`'s parameters from a .ckpt file or a MANIFEST directory
// (newest-first with fallback) — the shared loader behind Open and Reload.
Status RestoreParams(const std::string& checkpoint, nn::Module* model) {
  return io::FileExists(JoinPath(checkpoint, "MANIFEST"))
             ? train::LoadLatestCheckpointParams(checkpoint, model)
             : train::LoadCheckpointParams(checkpoint, model);
}

// Plan-cache key: the shapes of the four batch tensors ("-" when undefined).
// Two batches with equal keys replay through the same plan.
std::string GeometryKey(const data::Batch& batch) {
  std::string key;
  for (const Tensor* t : {&batch.x, &batch.x_mark, &batch.y, &batch.y_mark}) {
    if (!t->defined()) {
      key += "-|";
      continue;
    }
    for (int64_t i = 0; i < t->dim(); ++i) {
      if (i > 0) key += 'x';
      key += std::to_string(t->size(i));
    }
    key += '|';
  }
  return key;
}

}  // namespace

InferenceSession::InferenceSession(SessionConfig config,
                                   std::unique_ptr<models::Forecaster> model)
    : config_(std::move(config)),
      predicts_(metrics::Registry::Global().GetCounter("serve.predicts")),
      predicted_series_(
          metrics::Registry::Global().GetCounter("serve.predicted_series")),
      predict_seconds_(
          metrics::Registry::Global().GetHistogram("serve.predict_seconds")),
      plan_hits_(metrics::Registry::Global().GetCounter("serve.plan_hits")),
      plan_fallbacks_(
          metrics::Registry::Global().GetCounter("serve.plan_fallbacks")),
      model_(std::move(model)) {}

Result<std::unique_ptr<InferenceSession>> InferenceSession::Open(
    const SessionConfig& config, const std::string& checkpoint) {
  CONFORMER_PROFILE_SCOPE_CAT("serve", "session_open");
  Result<std::unique_ptr<models::Forecaster>> model = models::MakeForecaster(
      config.model_name, config.window, config.dims, config.hyper);
  if (!model.ok()) return model.status();
  model.value()->SetTraining(false);

  if (!checkpoint.empty()) {
    Status restored = RestoreParams(checkpoint, model.value().get());
    if (!restored.ok()) return restored;
  }

  return std::unique_ptr<InferenceSession>(
      new InferenceSession(config, std::move(model.value())));
}

Forecast InferenceSession::Predict(const data::Batch& batch) {
  CONFORMER_PROFILE_SCOPE_CAT("serve", "predict");
  CONFORMER_CHECK(batch.x.defined() && batch.size() > 0)
      << "Predict() needs a non-empty batch";
  CONFORMER_CHECK_EQ(batch.x.size(1), config_.window.input_len);
  CONFORMER_CHECK_EQ(batch.x.size(2), config_.dims);

  const int64_t start_ns = prof::internal::NowNs();
  NoGradGuard no_grad;

  // The session lock is Reload()'s swap point: holding it across the whole
  // forward means a request runs entirely on one parameter set.
  std::lock_guard<std::mutex> lock(mu_);
  FaultInjector::MaybePredictFault(config_.fault_scope);

  Forecast out;
  out.point = config_.use_static_plan ? PredictPoint(batch)
                                      : model_->Predict(batch);
  if (config_.quantile_samples > 0) {
    // Flow-head quantiles: Conformer's normalizing flow is the only
    // sampling head; other models stay point-only.
    if (auto* conformer = dynamic_cast<core::ConformerModel*>(model_.get())) {
      flow::UncertaintyBand band = conformer->PredictWithUncertainty(
          batch, config_.quantile_samples, config_.coverage);
      out.lower = band.lower;
      out.upper = band.upper;
    }
  }

  predicts_.Increment();
  predicted_series_.Increment(batch.size());
  predict_seconds_.Observe(
      static_cast<double>(prof::internal::NowNs() - start_ns) * 1e-9);
  return out;
}

Status InferenceSession::Reload(const std::string& checkpoint) {
  CONFORMER_PROFILE_SCOPE_CAT("serve", "reload");
  metrics::Registry& registry = metrics::Registry::Global();
  const int64_t start_ns = prof::internal::NowNs();

  // Stage: build a fresh architecture and restore into it without the
  // serving lock, so a slow — or corrupt — checkpoint never stalls or
  // perturbs in-flight Predicts. Only a fully validated parameter set ever
  // reaches the swap below.
  Status staged = Status::OK();
  std::unique_ptr<models::Forecaster> incoming;
  if (checkpoint.empty()) {
    staged = Status::InvalidArgument("Reload() needs a checkpoint path");
  } else {
    Result<std::unique_ptr<models::Forecaster>> built =
        models::MakeForecaster(config_.model_name, config_.window,
                               config_.dims, config_.hyper);
    if (!built.ok()) {
      staged = built.status();
    } else {
      incoming = std::move(built.value());
      incoming->SetTraining(false);
      staged = RestoreParams(checkpoint, incoming.get());
    }
  }
  if (staged.ok() && FaultInjector::ShouldFailReload(config_.fault_scope)) {
    staged = Status::IOError("injected reload fault before swap");
  }
  if (!staged.ok()) {
    registry.GetCounter("serve.reload_failures").Increment();
    return staged;
  }

  {
    // Swap: the only mutation the serving path can observe, done under the
    // same mutex Predict holds — in-flight requests finish on the old
    // model, later ones see the new one. Plans compiled against the old
    // parameter values are invalidated wholesale.
    std::lock_guard<std::mutex> lock(mu_);
    model_ = std::move(incoming);
    plans_.clear();
    failed_geometries_.clear();
  }
  registry.GetCounter("serve.reloads").Increment();
  registry.GetHistogram("serve.reload_seconds")
      .Observe(static_cast<double>(prof::internal::NowNs() - start_ns) * 1e-9);
  return Status::OK();
}

Tensor InferenceSession::PredictPoint(const data::Batch& batch) {
  const std::string key = GeometryKey(batch);

  auto it = plans_.find(key);
  if (it != plans_.end()) {
    CONFORMER_PROFILE_SCOPE_CAT("serve", "plan_replay");
    plan_hits_.Increment();
    return it->second->Run(batch);
  }

  if (failed_geometries_.count(key) > 0) {
    plan_fallbacks_.Increment();
    return model_->Predict(batch);
  }

  // First call at this geometry: trace the eager forward into a plan. The
  // traced output doubles as this call's response, so a miss costs one eager
  // forward plus planning — never two forwards.
  CONFORMER_PROFILE_SCOPE_CAT("serve", "plan_build");
  Result<runtime::TraceResult> traced = runtime::CapturePredictPlan(
      [this](const data::Batch& b) { return model_->Predict(b); }, batch);
  if (!traced.ok()) {
    CONFORMER_LOG(Warning) << "static plan trace failed for " << key << ": "
                           << traced.status().message()
                           << "; serving eagerly for this geometry";
    failed_geometries_.insert(key);
    plan_fallbacks_.Increment();
    return model_->Predict(batch);
  }
  metrics::Registry::Global().GetCounter("serve.plan_builds").Increment();
  Tensor output = traced.value().output;
  plans_.emplace(key, std::make_unique<runtime::PlanExecutor>(
                          std::move(traced.value().plan)));
  return output;
}

const runtime::Plan* InferenceSession::plan_for(
    const data::Batch& batch) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = plans_.find(GeometryKey(batch));
  return it == plans_.end() ? nullptr : &it->second->plan();
}

}  // namespace conformer::serve
