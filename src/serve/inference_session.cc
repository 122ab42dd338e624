#include "serve/inference_session.h"

#include <utility>

#include "core/conformer_model.h"
#include "data/time_features.h"
#include "serve/fault_injector.h"
#include "train/checkpoint.h"
#include "util/metrics.h"
#include "util/profiler.h"

namespace conformer::serve {

namespace {

// Builds `config`'s architecture in eval mode and restores it from
// `checkpoint` (a .ckpt file or a MANIFEST directory; empty keeps the
// fresh initialization) — the one model loader behind Open and Reload.
Result<std::unique_ptr<models::Forecaster>> LoadModel(
    const SessionConfig& config, const std::string& checkpoint) {
  Result<std::unique_ptr<models::Forecaster>> model = models::MakeForecaster(
      config.model_name, config.window, config.dims, config.hyper);
  if (!model.ok()) return model.status();
  model.value()->SetTraining(false);
  if (!checkpoint.empty()) {
    Status restored =
        train::LoadCheckpointParams(checkpoint, model.value().get());
    if (!restored.ok()) return restored;
  }
  return model;
}

// Plan-cache key: the shapes of the four batch tensors, {} when undefined.
std::vector<Shape> BatchShapes(const data::Batch& batch) {
  std::vector<Shape> shapes;
  shapes.reserve(4);
  for (const Tensor* t : {&batch.x, &batch.x_mark, &batch.y, &batch.y_mark}) {
    shapes.push_back(t->defined() ? t->shape() : Shape{});
  }
  return shapes;
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
  Result<std::unique_ptr<models::Forecaster>> model =
      LoadModel(config, checkpoint);
  if (!model.ok()) return model.status();
  return std::unique_ptr<InferenceSession>(
      new InferenceSession(config, std::move(model.value())));
}

Status InferenceSession::Validate(const data::Batch& batch) const {
  const data::WindowConfig& window = config_.window;
  if (!batch.x.defined()) {
    return Status::InvalidArgument("empty request batch");
  }
  // Rank first: batch.size() reads x.size(0).
  if (batch.x.dim() != 3 || batch.x.size(1) != window.input_len ||
      batch.x.size(2) != config_.dims) {
    return Status::InvalidArgument(
        "request x geometry does not match the session window");
  }
  if (batch.size() < 1) {
    return Status::InvalidArgument("empty request batch");
  }
  const int64_t rows = batch.size();
  const int64_t decoder_len = window.label_len + window.pred_len;
  const struct {
    const Tensor& tensor;
    const char* name;
    int64_t len;
    int64_t features;
  } required[] = {
      {batch.x_mark, "x_mark", window.input_len, data::kNumTimeFeatures},
      {batch.y, "y", decoder_len, config_.dims},
      {batch.y_mark, "y_mark", decoder_len, data::kNumTimeFeatures},
  };
  for (const auto& field : required) {
    if (!field.tensor.defined()) {
      return Status::InvalidArgument(std::string("request ") + field.name +
                                     " is undefined");
    }
    if (field.tensor.dim() != 3 || field.tensor.size(0) != rows ||
        field.tensor.size(1) != field.len ||
        field.tensor.size(2) != field.features) {
      return Status::InvalidArgument(std::string("request ") + field.name +
                                     " geometry does not match the session"
                                     " window");
    }
  }
  return Status::OK();
}

Forecast InferenceSession::Predict(const data::Batch& batch) {
  CONFORMER_PROFILE_SCOPE_CAT("serve", "predict");
  const Status valid = Validate(batch);
  CONFORMER_CHECK(valid.ok()) << valid.ToString();

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
    Result<std::unique_ptr<models::Forecaster>> loaded =
        LoadModel(config_, checkpoint);
    staged = loaded.status();
    if (loaded.ok()) incoming = std::move(loaded.value());
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
  }
  registry.GetCounter("serve.reloads").Increment();
  registry.GetHistogram("serve.reload_seconds")
      .Observe(static_cast<double>(prof::internal::NowNs() - start_ns) * 1e-9);
  return Status::OK();
}

Tensor InferenceSession::PredictPoint(const data::Batch& batch) {
  std::vector<Shape> shapes = BatchShapes(batch);
  auto it = plans_.find(shapes);
  if (it != plans_.end()) {
    if (it->second == nullptr) {
      plan_fallbacks_.Increment();
      return model_->Predict(batch);
    }
    CONFORMER_PROFILE_SCOPE_CAT("serve", "plan_replay");
    plan_hits_.Increment();
    return it->second->Run(batch);
  }

  // First call at this geometry: trace the eager forward into a plan. The
  // traced output doubles as this call's response, even when the plan does
  // not build, so a miss costs one eager forward plus planning — never two
  // forwards.
  CONFORMER_PROFILE_SCOPE_CAT("serve", "plan_build");
  Tensor eager_output;
  Result<runtime::TraceResult> traced = runtime::CapturePredictPlan(
      [this](const data::Batch& b) { return model_->Predict(b); }, batch,
      &eager_output);
  if (!traced.ok()) {
    CONFORMER_LOG(Warning) << "static plan trace failed for x "
                           << ShapeToString(batch.x.shape()) << ": "
                           << traced.status().message()
                           << "; serving eagerly for this geometry";
    plans_.emplace(std::move(shapes), nullptr);
    plan_fallbacks_.Increment();
    return eager_output;
  }
  metrics::Registry::Global().GetCounter("serve.plan_builds").Increment();
  Tensor output = traced.value().output;
  plans_.emplace(std::move(shapes), std::make_unique<runtime::PlanExecutor>(
                                        std::move(traced.value().plan)));
  return output;
}

const runtime::Plan* InferenceSession::plan_for(
    const data::Batch& batch) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = plans_.find(BatchShapes(batch));
  return it == plans_.end() || it->second == nullptr ? nullptr
                                                      : &it->second->plan();
}

}  // namespace conformer::serve
