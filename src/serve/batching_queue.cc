#include "serve/batching_queue.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "data/time_features.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/profiler.h"

namespace conformer::serve {

namespace {

metrics::Registry& Registry() { return metrics::Registry::Global(); }

// Full-geometry admission check against the session's window. Every
// dimension the merge path (Concat along dim 0) and the model forward will
// touch is pinned here — all four batch tensors, not just x — so a
// malformed request becomes a status on its own future instead of a
// CHECK-abort that would take down the dispatcher and every co-batched
// request. Pinning every non-batch dimension also makes admitted requests
// mutually Concat-compatible by construction: no per-merge geometry key is
// needed.
Status ValidateRequest(const data::Batch& request,
                       const SessionConfig& config) {
  const data::WindowConfig& window = config.window;
  if (!request.x.defined() || request.size() < 1) {
    return Status::InvalidArgument("empty request batch");
  }
  if (request.x.dim() != 3 || request.x.size(1) != window.input_len ||
      request.x.size(2) != config.dims) {
    return Status::InvalidArgument(
        "request x geometry does not match the session window");
  }
  const int64_t rows = request.size();
  const int64_t decoder_len = window.label_len + window.pred_len;
  const struct {
    const Tensor& tensor;
    const char* name;
    int64_t len;
    int64_t features;
  } required[] = {
      {request.x_mark, "x_mark", window.input_len, data::kNumTimeFeatures},
      {request.y, "y", decoder_len, config.dims},
      {request.y_mark, "y_mark", decoder_len, data::kNumTimeFeatures},
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

std::string TenantMetric(const std::string& key, const char* name) {
  return "serve.tenant." + key + "." + name;
}

metrics::Counter& TenantCounter(const std::string& key, const char* name) {
  return Registry().GetCounter(TenantMetric(key, name));
}

QueueConfig Sanitize(QueueConfig config) {
  if (config.max_batch_size < 1) config.max_batch_size = 1;
  if (config.max_queue_delay_us < 0) config.max_queue_delay_us = 0;
  if (config.max_queue_depth < 0) config.max_queue_depth = 0;
  if (config.circuit_breaker_failures < 0) config.circuit_breaker_failures = 0;
  return config;
}

}  // namespace

TenantQueue::TenantQueue(InferenceSession* session, QueueConfig config,
                         std::string tenant_key,
                         std::function<void()> on_work)
    : session_(session),
      config_(Sanitize(config)),
      tenant_key_(std::move(tenant_key)),
      on_work_(std::move(on_work)),
      requests_(Registry().GetCounter("serve.requests")),
      rejected_(Registry().GetCounter("serve.rejected")),
      shed_(Registry().GetCounter("serve.shed_expired")),
      tenant_requests_(TenantCounter(tenant_key_, "requests")),
      tenant_rejected_(TenantCounter(tenant_key_, "rejected")),
      tenant_shed_(TenantCounter(tenant_key_, "shed_expired")),
      tenant_batches_(TenantCounter(tenant_key_, "batches")),
      tenant_batch_failures_(TenantCounter(tenant_key_, "batch_failures")),
      tenant_circuit_opens_(TenantCounter(tenant_key_, "circuit_opens")),
      tenant_depth_(Registry().GetGauge(TenantMetric(tenant_key_,
                                                     "queue_depth"))),
      tenant_latency_(Registry().GetHistogram(
          TenantMetric(tenant_key_, "request_latency_seconds"))) {
  CONFORMER_CHECK(session_ != nullptr);
  CONFORMER_CHECK(!tenant_key_.empty());
  CONFORMER_CHECK(on_work_ != nullptr);
}

void TenantQueue::CountRejected() {
  rejected_.Increment();
  tenant_rejected_.Increment();
}

void TenantQueue::SetDepthLocked() {
  const double depth = static_cast<double>(queue_.size());
  Registry().GetGauge("serve.queue_depth").Set(depth);
  tenant_depth_.Set(depth);
}

std::future<Result<Forecast>> TenantQueue::Submit(data::Batch request,
                                                  RequestOptions options) {
  requests_.Increment();
  tenant_requests_.Increment();
  Pending pending;
  std::future<Result<Forecast>> future = pending.promise.get_future();

  // Admission. Every refusal is a status on the (already resolved) future —
  // a client can never crash the server with a bad or ill-timed request.
  Status admitted = ValidateRequest(request, session_->config());
  if (!admitted.ok()) {
    CountRejected();
    pending.promise.set_value(Result<Forecast>(std::move(admitted)));
    return future;
  }

  pending.batch = std::move(request);
  pending.enqueue_ns = prof::internal::NowNs();
  if (options.deadline_us > 0) {
    // Saturate: a huge client-supplied deadline clamps to "effectively
    // never" instead of overflowing int64 (UB) into a negative deadline_ns
    // that would silently disable shedding.
    const int64_t max_deadline_us =
        (std::numeric_limits<int64_t>::max() - pending.enqueue_ns) / 1000;
    pending.deadline_ns =
        pending.enqueue_ns +
        std::min(options.deadline_us, max_deadline_us) * 1000;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      CountRejected();
      pending.promise.set_value(Result<Forecast>(
          Status::Unavailable("queue is shut down")));
      return future;
    }
    if (circuit_open_) {
      CountRejected();
      pending.promise.set_value(Result<Forecast>(Status::Unavailable(
          "circuit breaker open after consecutive batch failures")));
      return future;
    }
    if (config_.max_queue_depth > 0 &&
        static_cast<int64_t>(queue_.size()) >= config_.max_queue_depth) {
      CountRejected();
      pending.promise.set_value(Result<Forecast>(Status::ResourceExhausted(
          "queue depth " + std::to_string(queue_.size()) + " at capacity")));
      return future;
    }
    queue_.push_back(std::move(pending));
    SetDepthLocked();
  }
  on_work_();
  return future;
}

void TenantQueue::BeginShutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  on_work_();
}

int64_t TenantQueue::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(queue_.size());
}

bool TenantQueue::circuit_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return circuit_open_;
}

void TenantQueue::ResetCircuitBreaker() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    circuit_open_ = false;
    consecutive_failures_ = 0;
  }
  on_work_();
}

void TenantQueue::DrainAndRejectLocked(const Status& status) {
  while (!queue_.empty()) {
    CountRejected();
    queue_.front().promise.set_value(Result<Forecast>(status));
    queue_.pop_front();
  }
  SetDepthLocked();
}

TenantQueue::DispatchState TenantQueue::Peek() const {
  std::lock_guard<std::mutex> lock(mu_);
  DispatchState state;
  if (queue_.empty()) return state;
  state.has_work = true;
  if (shutdown_ || circuit_open_ || config_.max_queue_delay_us == 0) {
    return state;  // ripe_at_ns = 0: dispatch (or drain) immediately.
  }
  int64_t series = 0;
  for (const Pending& p : queue_) series += p.batch.size();
  if (series < config_.max_batch_size) {
    state.ripe_at_ns =
        queue_.front().enqueue_ns + config_.max_queue_delay_us * 1000;
  }
  return state;
}

void TenantQueue::ServeOnce(bool drain) {
  std::unique_lock<std::mutex> lock(mu_);
  if (circuit_open_) {
    // Tripped: drain-and-reject instead of looping hot on a broken model.
    // Submit() refuses new work while the circuit is open.
    DrainAndRejectLocked(Status::Unavailable(
        "circuit breaker open after consecutive batch failures"));
    return;
  }
  if (queue_.empty()) return;
  const int64_t now_ns = prof::internal::NowNs();
  if (!drain && !shutdown_ && config_.max_queue_delay_us > 0) {
    // Hold an underfull batch open until the configured delay after its
    // oldest request; the dispatcher re-arms a timed wait off Peek().
    int64_t series = 0;
    for (const Pending& p : queue_) series += p.batch.size();
    if (series < config_.max_batch_size &&
        now_ns - queue_.front().enqueue_ns <
            config_.max_queue_delay_us * 1000) {
      return;
    }
  }

  // Pop the longest prefix that fits max_batch_size series; the first
  // request always ships, even if alone it exceeds the cap. Requests whose
  // deadline already passed are shed as they surface — the model never
  // spends time on work nobody is waiting for — and do not count against
  // the batch budget.
  std::vector<Pending> taken;
  std::vector<Pending> shed;
  int64_t series = 0;
  while (!queue_.empty()) {
    Pending& front = queue_.front();
    if (front.deadline_ns > 0 && now_ns >= front.deadline_ns) {
      shed.push_back(std::move(front));
      queue_.pop_front();
      continue;
    }
    const int64_t next = front.batch.size();
    if (!taken.empty() && series + next > config_.max_batch_size) break;
    series += next;
    taken.push_back(std::move(front));
    queue_.pop_front();
  }
  SetDepthLocked();
  lock.unlock();

  for (Pending& p : shed) {
    shed_.Increment();
    tenant_shed_.Increment();
    p.promise.set_value(Result<Forecast>(Status::DeadlineExceeded(
        "deadline passed before dispatch; request shed")));
  }
  if (taken.empty()) return;

  // Containment boundary: a throwing Predict fails only this batch's
  // promises with a status — the dispatcher survives to serve the next
  // batch, and no future is ever left broken.
  const int64_t start_ns = prof::internal::NowNs();
  Forecast merged;
  Status failure = Status::OK();
  try {
    CONFORMER_PROFILE_SCOPE_CAT("serve", "batch");
    if (taken.size() == 1) {
      merged = session_->Predict(taken[0].batch);
    } else {
      std::vector<Tensor> x, x_mark, y, y_mark;
      for (const Pending& p : taken) {
        x.push_back(p.batch.x);
        x_mark.push_back(p.batch.x_mark);
        y.push_back(p.batch.y);
        y_mark.push_back(p.batch.y_mark);
      }
      data::Batch batch;
      batch.x = Concat(x, 0);
      batch.x_mark = Concat(x_mark, 0);
      batch.y = Concat(y, 0);
      batch.y_mark = Concat(y_mark, 0);
      merged = session_->Predict(batch);
    }
  } catch (const std::exception& e) {
    failure = Status::Internal(std::string("model Predict failed: ") +
                               e.what());
  } catch (...) {
    failure = Status::Internal("model Predict failed: unknown exception");
  }
  const int64_t end_ns = prof::internal::NowNs();

  metrics::Registry& registry = Registry();
  if (!failure.ok()) {
    CONFORMER_LOG(Warning) << "serving batch of " << series
                           << " series failed: " << failure.ToString();
    registry.GetCounter("serve.batch_failures").Increment();
    tenant_batch_failures_.Increment();
    for (Pending& p : taken) {
      p.promise.set_value(Result<Forecast>(failure));
    }
    lock.lock();
    ++consecutive_failures_;
    if (config_.circuit_breaker_failures > 0 &&
        consecutive_failures_ >= config_.circuit_breaker_failures &&
        !circuit_open_) {
      circuit_open_ = true;
      registry.GetCounter("serve.circuit_opens").Increment();
      tenant_circuit_opens_.Increment();
      CONFORMER_LOG(Error) << "serving circuit breaker open after "
                           << consecutive_failures_
                           << " consecutive batch failures (tenant "
                           << tenant_key_ << ")";
      DrainAndRejectLocked(Status::Unavailable(
          "circuit breaker open after consecutive batch failures"));
    }
    return;
  }

  int64_t offset = 0;
  for (Pending& p : taken) {
    const int64_t rows = p.batch.size();
    Forecast slice;
    if (taken.size() == 1) {
      slice = merged;
    } else {
      slice.point = Slice(merged.point, 0, offset, offset + rows);
      if (merged.lower.defined()) {
        slice.lower = Slice(merged.lower, 0, offset, offset + rows);
        slice.upper = Slice(merged.upper, 0, offset, offset + rows);
      }
    }
    offset += rows;
    if (p.deadline_ns > 0) {
      // Slack still on the clock when the result was ready; a request that
      // completed past its deadline (dispatched in time, served slow)
      // records zero.
      registry.GetHistogram("serve.deadline_slack_seconds")
          .Observe(std::max(0.0,
                            static_cast<double>(p.deadline_ns - end_ns) * 1e-9));
    }
    p.promise.set_value(Result<Forecast>(std::move(slice)));
    const double latency = static_cast<double>(end_ns - p.enqueue_ns) * 1e-9;
    registry.GetHistogram("serve.request_latency_seconds").Observe(latency);
    tenant_latency_.Observe(latency);
  }

  registry.GetCounter("serve.batches").Increment();
  tenant_batches_.Increment();
  registry.GetHistogram("serve.batch_size",
                        {1, 2, 4, 8, 16, 32, 64, 128})
      .Observe(static_cast<double>(series));
  registry.GetGauge("serve.batch_occupancy")
      .Set(static_cast<double>(series) /
           static_cast<double>(config_.max_batch_size));
  registry.GetHistogram("serve.batch_latency_seconds")
      .Observe(static_cast<double>(end_ns - start_ns) * 1e-9);

  lock.lock();
  consecutive_failures_ = 0;
}

}  // namespace conformer::serve
