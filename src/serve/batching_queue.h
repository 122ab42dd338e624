// Dynamic micro-batching for concurrent forecast requests
// (docs/SERVING.md).
//
// TenantQueue is one fleet tenant's request queue: bounded admission,
// deadline shedding, FIFO coalescing with per-request slice-back, fault
// containment and the circuit breaker over one InferenceSession, plus the
// tenant's metrics. It never starts a thread: a FleetServer
// (fleet_server.h) owns one TenantQueue per tenant and a small shared pool
// of dispatcher shards that pick ripe tenants by weighted round-robin and
// call ServeOnce(). A single-tenant deployment is a one-tenant, one-shard
// fleet.
//
// Batching is transparent: kernels are row-independent with thread-count-
// invariant chunking (docs/THREADING.md), so a request's rows are bitwise
// identical whether served alone or inside any micro-batch.
//
// The queue is production-shaped (docs/SERVING.md, "Overload & failure
// policy"): admission is bounded (max_queue_depth), requests carry optional
// deadlines that shed expired work before it reaches the model, a failing
// Predict fails only its own batch's futures, and a consecutive-failure
// circuit breaker stops a broken model from looping hot. Every outcome is a
// status on the returned future — Submit() never crashes the process.

#ifndef CONFORMER_SERVE_BATCHING_QUEUE_H_
#define CONFORMER_SERVE_BATCHING_QUEUE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>

#include "serve/inference_session.h"
#include "util/metrics.h"
#include "util/status.h"

namespace conformer::serve {

/// \brief Micro-batching and resilience knobs.
struct QueueConfig {
  /// Series coalesced into one forward pass; larger batches amortize
  /// per-call overhead and feed the kernels wider ParallelFor ranges.
  int64_t max_batch_size = 8;
  /// How long the dispatcher holds an underfull batch open waiting for
  /// company, counted from the first queued request. 0 = never wait:
  /// coalesce only what is already queued.
  int64_t max_queue_delay_us = 1000;
  /// Bounded admission: Submit() rejects (ResourceExhausted, immediately
  /// resolved future, serve.rejected) once this many requests are already
  /// waiting. 0 = unbounded, the pre-resilience behaviour.
  int64_t max_queue_depth = 0;
  /// Circuit breaker: after this many *consecutive* failed batches the
  /// queue opens the circuit — queued and future requests are rejected
  /// (Unavailable) without touching the model — instead of looping hot on
  /// a broken model. Any successful batch resets the count. 0 = disabled.
  int64_t circuit_breaker_failures = 0;
};

/// \brief Per-request Submit() options.
struct RequestOptions {
  /// Deadline relative to Submit(), microseconds; 0 = none. A request whose
  /// deadline has passed when the dispatcher picks it up is shed
  /// (DeadlineExceeded, serve.shed_expired) without running the model; once
  /// dispatched, a request always completes even if it finishes late.
  /// Values too large to represent as an absolute nanosecond deadline
  /// saturate to "effectively never" instead of overflowing.
  int64_t deadline_us = 0;
};

/// \brief One tenant's request queue over one InferenceSession. Thread-safe
/// for any number of Submit() callers; at most ONE thread may be inside
/// ServeOnce() at a time (whichever FleetServer shard claimed the tenant).
/// Destruction requires the owner to have drained the queue first
/// (FleetServer::Shutdown() does).
class TenantQueue {
 public:
  /// `session` must outlive the queue. The queue publishes the
  /// serve.tenant.<tenant_key>.* metric family next to the process-wide
  /// serve.* aggregates. `on_work` is invoked OUTSIDE the queue lock
  /// whenever newly dispatchable work may exist (accepted Submit,
  /// BeginShutdown, breaker reset) — the hook the fleet's dispatcher
  /// shards wake up on.
  TenantQueue(InferenceSession* session, QueueConfig config,
              std::string tenant_key, std::function<void()> on_work);

  TenantQueue(const TenantQueue&) = delete;
  TenantQueue& operator=(const TenantQueue&) = delete;

  /// Enqueues one request (any batch size >= 1 matching the session's
  /// window geometry) and returns a future for its forecast-or-status.
  /// Admission validates the full data::Batch contract — x
  /// [B, input_len, D], x_mark [B, input_len, kNumTimeFeatures], y
  /// [B, label_len + pred_len, D], y_mark likewise, all defined — so every
  /// admitted request is safe to co-batch and forward. Admission failures
  /// resolve the future immediately instead of enqueueing:
  /// ResourceExhausted (queue full), Unavailable (after BeginShutdown, or
  /// circuit open), InvalidArgument (missing tensors or wrong geometry).
  std::future<Result<Forecast>> Submit(data::Batch request,
                                       RequestOptions options = {});

  /// \brief Dispatcher-side snapshot of the queue.
  struct DispatchState {
    /// Something is waiting to be dispatched, shed, or breaker-drained.
    bool has_work = false;
    /// Earliest time the pending batch may dispatch: now or earlier means
    /// ripe (batch full, coalescing delay elapsed, or draining); later
    /// means the dispatcher should wait for company until then.
    int64_t ripe_at_ns = 0;
  };
  DispatchState Peek() const;

  /// Serves one micro-batch if one is ripe (`drain` ignores the coalescing
  /// delay — shutdown semantics: everything queued goes out as fast as
  /// possible). Sheds expired requests as they surface, runs the batch
  /// inside the fault-containment boundary, trips/drains the breaker on
  /// consecutive failures. Single dispatcher at a time (see class comment).
  void ServeOnce(bool drain);

  /// Refuses all later Submits with Unavailable. Queued requests are NOT
  /// rejected — the owning dispatcher drains them with ServeOnce(true),
  /// preserving the "no accepted request is lost" guarantee.
  void BeginShutdown();

  /// Requests currently waiting (not yet dispatched).
  int64_t pending() const;

  /// True once the circuit breaker has tripped; every request is rejected
  /// until ResetCircuitBreaker().
  bool circuit_open() const;
  /// Closes the circuit (e.g. after a model Reload fixed the fault).
  void ResetCircuitBreaker();

 private:
  struct Pending {
    data::Batch batch;
    std::promise<Result<Forecast>> promise;
    int64_t enqueue_ns = 0;
    int64_t deadline_ns = 0;  ///< Absolute; 0 = no deadline.
  };

  /// Rejects every queued request with `status`; mu_ held.
  void DrainAndRejectLocked(const Status& status);
  void CountRejected();
  void SetDepthLocked();

  InferenceSession* session_;
  QueueConfig config_;
  const std::string tenant_key_;
  std::function<void()> on_work_;

  // Cached instrument references (registry lookups are map-under-mutex;
  // references are stable for the process lifetime).
  metrics::Counter& requests_;
  metrics::Counter& rejected_;
  metrics::Counter& shed_;
  metrics::Counter& tenant_requests_;
  metrics::Counter& tenant_rejected_;
  metrics::Counter& tenant_shed_;
  metrics::Counter& tenant_batches_;
  metrics::Counter& tenant_batch_failures_;
  metrics::Counter& tenant_circuit_opens_;
  metrics::Gauge& tenant_depth_;
  metrics::Histogram& tenant_latency_;

  mutable std::mutex mu_;
  std::deque<Pending> queue_;
  bool shutdown_ = false;
  bool circuit_open_ = false;
  int64_t consecutive_failures_ = 0;  ///< Dispatcher-only.
};

}  // namespace conformer::serve

#endif  // CONFORMER_SERVE_BATCHING_QUEUE_H_
