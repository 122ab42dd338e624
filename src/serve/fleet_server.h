// Multi-tenant model-fleet server (docs/SERVING.md, "The model fleet").
//
// One FleetServer serves many (model, horizon) tenants concurrently:
//
//   clients ──▶ Submit(key, batch) ──▶ per-tenant TenantQueue ──┐
//                                      per-tenant TenantQueue ──┤ WRR
//                                      per-tenant TenantQueue ──┘  │
//                                            shared dispatcher shards
//                                            (num_dispatchers threads)
//                                                   │ one Predict per
//                                                   ▼ micro-batch
//                                      per-tenant InferenceSession
//                                      (ModelRegistry, hot-reloadable)
//
// Design points:
//   - Every tenant keeps its OWN TenantQueue, so admission bounds,
//     deadlines, and the circuit breaker are per-tenant policy: one broken
//     or overloaded tenant rejects/sheds its own traffic and nothing else.
//   - Dispatcher threads are a small shared pool ("shards") instead of one
//     thread per tenant: N tenants cost num_dispatchers threads, and a
//     shard picks the next ripe tenant by smooth weighted round-robin
//     (nginx-style), so a slow tenant holds at most the shards currently
//     inside its Predict while every other shard keeps serving the rest —
//     a tenant with weight 2 gets twice the dispatch share of a weight-1
//     tenant when both are backlogged.
//   - A tenant is claimed by at most one shard at a time (the TenantQueue
//     single-dispatcher contract), so per-tenant FIFO order is preserved
//     and two shards never serialize on one session mutex.
//   - Model forwards from different shards share the process-wide kernel
//     ThreadPool (its dispatch mutex serializes parallel regions); shards
//     are plain std::threads, NOT ThreadPool tasks — a blocked pool worker
//     would deadlock nested kernels, while dedicated threads leave the whole
//     pool to the coalesced forward pass.
//   - A single-tenant deployment is FleetServer({.num_dispatchers = 1})
//     plus one AddTenant(MakeTenantKey(model, pred_len), spec).
//
// Metrics: every tenant publishes serve.tenant.<key>.{requests, rejected,
// shed_expired, batches, batch_failures, circuit_opens, queue_depth,
// request_latency_seconds} next to the process-wide serve.* aggregates,
// plus serve.fleet.{tenants, dispatches} (docs/OBSERVABILITY.md).

#ifndef CONFORMER_SERVE_FLEET_SERVER_H_
#define CONFORMER_SERVE_FLEET_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/batching_queue.h"
#include "serve/model_registry.h"

namespace conformer::serve {

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

/// \brief Serves a fleet of tenants. Thread-safe; destruction drains every
/// tenant's queue.
class FleetServer {
 public:
  explicit FleetServer(FleetConfig config = {});
  /// Calls Shutdown().
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  /// Registers a tenant (ModelRegistry::Register: key contract, duplicate
  /// rejection, fault_scope stamping) and starts queueing for it. Tenants
  /// may be added while the fleet is live; AddTenant after Shutdown() is
  /// refused with Unavailable.
  Status AddTenant(const std::string& key, const TenantSpec& spec);

  /// Routes one request to `key`'s queue. Unknown keys resolve the future
  /// immediately with NotFound; everything else is TenantQueue::Submit
  /// (admission, deadlines, breaker).
  std::future<Result<Forecast>> Submit(const std::string& key,
                                       data::Batch request,
                                       RequestOptions options = {});

  /// Hot-reloads one tenant's parameters; every other tenant is untouched
  /// by construction (per-session Reload). NotFound for unknown keys.
  Status Reload(const std::string& key, const std::string& checkpoint);

  /// Drains every tenant's queue, then stops the dispatcher shards.
  /// Idempotent and safe to call concurrently; accepted requests complete,
  /// Submit() afterwards is refused.
  void Shutdown();

  /// Per-tenant breaker introspection/control (NotFound/false for unknown
  /// keys).
  bool circuit_open(const std::string& key) const;
  Status ResetCircuitBreaker(const std::string& key);

  /// Requests waiting in `key`'s queue (0 for unknown keys).
  int64_t pending(const std::string& key) const;

  std::vector<std::string> tenant_keys() const { return registry_.Keys(); }
  int64_t tenant_count() const { return registry_.size(); }
  /// Test/bench introspection: the tenant's session (nullptr if unknown).
  InferenceSession* session(const std::string& key) const {
    return registry_.Find(key);
  }
  const FleetConfig& config() const { return config_; }

 private:
  struct Tenant {
    std::unique_ptr<TenantQueue> queue;
    int64_t weight = 1;
    int64_t wrr_credit = 0;   ///< Smooth-WRR state; mu_ guarded.
    bool in_service = false;  ///< Claimed by a shard; mu_ guarded.
  };

  void DispatchLoop();
  /// Picks the ripe, unclaimed tenant with the highest smooth-WRR credit
  /// and marks it in_service; returns nullptr when none is ripe, setting
  /// `next_ripe_ns` to the earliest future ripeness (0 = nothing queued
  /// anywhere). mu_ held.
  Tenant* ClaimTenantLocked(int64_t now_ns, bool drain,
                            int64_t* next_ripe_ns);

  const FleetConfig config_;
  ModelRegistry registry_;

  mutable std::mutex mu_;        ///< Guards tenants_ map + scheduler state.
  std::condition_variable cv_;   ///< Shards wait for work/shutdown.
  std::map<std::string, Tenant> tenants_;
  bool shutdown_ = false;
  std::once_flag join_once_;
  std::vector<std::thread> dispatchers_;
};

}  // namespace conformer::serve

#endif  // CONFORMER_SERVE_FLEET_SERVER_H_
