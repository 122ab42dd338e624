// Multi-tenant model-fleet server (docs/SERVING.md, "The model fleet").
//
// One FleetServer serves many (model, horizon) tenants concurrently:
//
//   clients ──▶ Submit(key, batch) ──▶ tenant table (one map, one mutex) ──┐
//               key → { session, pending deque, breaker, WRR credit }    │
//                                            shared dispatcher shards ◀──┘
//                                            (num_dispatchers threads)
//                                                   │ one Predict per
//                                                   ▼ micro-batch
//                                      the tenant's InferenceSession
//                                      (hot-reloadable, outside the lock)
//
// Design points:
//   - Every tenant keeps its OWN pending queue and policy, so admission
//     bounds, deadlines, and the circuit breaker are per tenant: one broken
//     or overloaded tenant rejects/sheds its own traffic and nothing else.
//   - One mutex guards the whole table: every tenant's queue, breaker and
//     scheduler state. Admission, claiming a tenant and popping its batch
//     are short critical sections; opening sessions, Predict, Concat and
//     slice-back all run outside the lock.
//   - Dispatcher threads are a small shared pool ("shards") instead of one
//     thread per tenant: N tenants cost num_dispatchers threads, and a
//     shard picks the next ripe tenant by smooth weighted round-robin
//     (nginx-style), so a slow tenant holds at most the shards currently
//     inside its Predict while every other shard keeps serving the rest —
//     a tenant with weight 2 gets twice the dispatch share of a weight-1
//     tenant when both are backlogged.
//   - A tenant is claimed by at most one shard at a time, so per-tenant
//     FIFO order is preserved and two shards never serialize on one
//     session mutex.
//   - Model forwards from different shards share the process-wide kernel
//     ThreadPool (its dispatch mutex serializes parallel regions); shards
//     are plain std::threads, NOT ThreadPool tasks — a blocked pool worker
//     would deadlock nested kernels, while dedicated threads leave the whole
//     pool to the coalesced forward pass.
//   - A single-tenant deployment is FleetServer({.num_dispatchers = 1})
//     plus one AddTenant(MakeTenantKey(model, pred_len), spec).
//
// Batching is transparent: kernels are row-independent with thread-count-
// invariant chunking (docs/THREADING.md), so a request's rows are bitwise
// identical whether served alone or inside any micro-batch. Every outcome is
// a status on the returned future — Submit() never crashes the process.
//
// Metrics: every tenant publishes serve.tenant.<key>.{requests, rejected,
// shed_expired, batches, batch_failures, circuit_opens, queue_depth,
// request_latency_seconds} next to the process-wide serve.* aggregates,
// plus serve.fleet.{tenants, dispatches} (docs/OBSERVABILITY.md).

#ifndef CONFORMER_SERVE_FLEET_SERVER_H_
#define CONFORMER_SERVE_FLEET_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/inference_session.h"
#include "util/metrics.h"
#include "util/status.h"

namespace conformer::serve {

/// \brief Per-tenant micro-batching and resilience knobs.
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
  /// waiting. 0 = unbounded.
  int64_t max_queue_depth = 0;
  /// Circuit breaker: after this many *consecutive* failed batches the
  /// tenant opens the circuit — queued and future requests are rejected
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

/// \brief Fleet-wide knobs.
struct FleetConfig {
  /// Dispatcher shard threads shared by all tenants. More shards = more
  /// tenants served truly concurrently (bounded by cores); the default
  /// keeps one shard free while another sits inside a slow Predict.
  int64_t num_dispatchers = 2;
};

/// \brief Everything needed to stand up one tenant.
struct TenantSpec {
  SessionConfig session;
  /// Checkpoint file/directory for the initial parameters ("" = fresh).
  std::string checkpoint;
  QueueConfig queue;
  /// Weighted-round-robin share when multiple tenants are ripe; clamped
  /// to >= 1.
  int64_t weight = 1;
};

/// Builds the conventional tenant key for a model served at a horizon:
/// "conformer@16". Purely a naming helper — AddTenant accepts any valid key.
std::string MakeTenantKey(const std::string& model_name, int64_t pred_len);

/// The tenant-key naming contract: non-empty, at most 64 chars, drawn from
/// [A-Za-z0-9_.-] plus exactly one '@' separating two non-empty halves
/// ("model@horizon"). Keys are embedded in metric names
/// (serve.tenant.<key>.*), so the charset keeps the metrics JSON sane.
Status ValidateTenantKey(const std::string& key);

/// \brief Serves a fleet of tenants. Thread-safe; destruction drains every
/// tenant's queue.
class FleetServer {
 public:
  explicit FleetServer(FleetConfig config = {});
  /// Calls Shutdown().
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  /// Opens a session for `key` from `spec.session` + `spec.checkpoint`
  /// (exactly like InferenceSession::Open) and starts queueing for it.
  /// `spec.session.fault_scope`, when empty, is stamped with `key` so scoped
  /// chaos drills (CONFORMER_SERVE_FAULTS="...,scope=<key>") target this
  /// tenant alone. Fails with InvalidArgument on a malformed key,
  /// AlreadyExists on a duplicate, and Unavailable after Shutdown(); a
  /// failed open adds nothing. Tenants may be added while the fleet is live
  /// and are never removed.
  Status AddTenant(const std::string& key, const TenantSpec& spec);

  /// Enqueues one request (any batch size >= 1 matching the tenant's window
  /// geometry) and returns a future for its forecast-or-status. Admission
  /// runs the tenant session's InferenceSession::Validate, which checks the
  /// full data::Batch contract — x [B, input_len, D], x_mark
  /// [B, input_len, kNumTimeFeatures], y [B, label_len + pred_len, D],
  /// y_mark likewise, all defined — so every admitted request is safe to
  /// co-batch and forward. Refusals resolve the future immediately:
  /// NotFound (unknown key), InvalidArgument (missing tensors or wrong
  /// geometry), Unavailable (shut down, or circuit open), ResourceExhausted
  /// (queue full).
  std::future<Result<Forecast>> Submit(const std::string& key,
                                       data::Batch request,
                                       RequestOptions options = {});

  /// Hot-reloads one tenant's parameters (InferenceSession::Reload: staged
  /// off the serving lock, atomic swap, corrupt checkpoints rejected with
  /// the old parameters bitwise undisturbed); every other tenant is
  /// untouched by construction. NotFound for unknown keys.
  Status Reload(const std::string& key, const std::string& checkpoint);

  /// Refuses later Submits, drains every tenant's queue, then stops the
  /// dispatcher shards. Idempotent and safe to call concurrently; accepted
  /// requests complete.
  void Shutdown();

  /// Per-tenant breaker introspection/control (NotFound/false for unknown
  /// keys). A reset closes the circuit, e.g. after a Reload fixed the fault.
  bool circuit_open(const std::string& key) const;
  Status ResetCircuitBreaker(const std::string& key);

  /// Requests waiting in `key`'s queue (0 for unknown keys).
  int64_t pending(const std::string& key) const;

  /// Registered keys, sorted.
  std::vector<std::string> tenant_keys() const;
  int64_t tenant_count() const;
  /// Test/bench introspection: the tenant's session (nullptr if unknown).
  /// The pointer is stable for the fleet's lifetime.
  InferenceSession* session(const std::string& key) const;
  const FleetConfig& config() const { return config_; }

 private:
  struct Pending {
    data::Batch batch;
    std::promise<Result<Forecast>> promise;
    int64_t enqueue_ns = 0;
    int64_t deadline_ns = 0;  ///< Absolute; 0 = no deadline.
  };

  /// One row of the tenant table. The key, session, policy, weight and
  /// instruments are fixed at AddTenant; the rest is guarded by mu_.
  struct Tenant {
    Tenant(const std::string& key, std::unique_ptr<InferenceSession> session,
           const QueueConfig& config, int64_t weight);

    const std::string key;
    const std::unique_ptr<InferenceSession> session;
    const QueueConfig config;
    const int64_t weight;

    // serve.tenant.<key>.* instruments.
    metrics::Counter& requests;
    metrics::Counter& rejected;
    metrics::Counter& shed;
    metrics::Counter& batches;
    metrics::Counter& batch_failures;
    metrics::Counter& circuit_opens;
    metrics::Gauge& depth;
    metrics::Histogram& latency;

    std::deque<Pending> queue;
    bool circuit_open = false;
    int64_t consecutive_failures = 0;
    int64_t wrr_credit = 0;   ///< Smooth-WRR state.
    bool in_service = false;  ///< Claimed by a shard.
  };

  /// The admission verdict for `request` against `tenant`; mu_ held.
  Status AdmitLocked(const Tenant& tenant, const data::Batch& request) const;
  /// Republishes the tenant's and the fleet's queue depth; mu_ held.
  void SetDepthLocked(Tenant& tenant);
  /// Picks the ripe, unclaimed tenant with the highest smooth-WRR credit
  /// and marks it in_service; returns nullptr when none is ripe, setting
  /// `next_ripe_ns` to the earliest future ripeness (0 = nothing queued
  /// anywhere). mu_ held.
  Tenant* ClaimTenantLocked(int64_t now_ns, bool drain,
                            int64_t* next_ripe_ns);
  /// Serves one micro-batch of a tenant this shard claimed: pops the
  /// longest FIFO prefix that fits max_batch_size (shedding expired
  /// requests as they surface) under `lock`, releases it to run Predict
  /// inside the fault-containment boundary and slice the result back per
  /// request, then retakes it for the breaker bookkeeping.
  void ServeOnce(Tenant& tenant, int64_t now_ns,
                 std::unique_lock<std::mutex>& lock);
  void DispatchLoop();

  const FleetConfig config_;

  // Process-wide serve.* instruments, looked up once.
  metrics::Counter& requests_;
  metrics::Counter& rejected_;
  metrics::Counter& shed_;
  metrics::Counter& batches_;
  metrics::Counter& batch_failures_;
  metrics::Counter& circuit_opens_;
  metrics::Counter& dispatches_;
  metrics::Gauge& queue_depth_;
  metrics::Gauge& batch_occupancy_;
  metrics::Histogram& batch_size_;
  metrics::Histogram& batch_latency_;
  metrics::Histogram& request_latency_;
  metrics::Histogram& deadline_slack_;

  mutable std::mutex mu_;  ///< Guards tenants_, queued_ and shutdown_.
  std::condition_variable cv_;  ///< Shards wait for work/shutdown.
  std::map<std::string, Tenant> tenants_;
  int64_t queued_ = 0;  ///< Requests waiting across every tenant.
  bool shutdown_ = false;
  std::once_flag join_once_;
  std::vector<std::thread> dispatchers_;
};

}  // namespace conformer::serve

#endif  // CONFORMER_SERVE_FLEET_SERVER_H_
