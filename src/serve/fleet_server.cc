#include "serve/fleet_server.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "tensor/ops.h"
#include "util/logging.h"
#include "util/profiler.h"

namespace conformer::serve {

namespace {

constexpr char kCircuitOpen[] =
    "circuit breaker open after consecutive batch failures";

metrics::Registry& Registry() { return metrics::Registry::Global(); }

std::string TenantMetric(const std::string& key, const char* name) {
  return "serve.tenant." + key + "." + name;
}

Status NotRegistered(const std::string& key) {
  return Status::NotFound("tenant \"" + key + "\" is not registered");
}

Status NotAdded(const std::string& key) {
  return Status::Unavailable("fleet is shut down; tenant \"" + key +
                             "\" not added");
}

FleetConfig Sanitize(FleetConfig config) {
  config.num_dispatchers = std::max<int64_t>(1, config.num_dispatchers);
  return config;
}

QueueConfig Sanitize(QueueConfig config) {
  if (config.max_batch_size < 1) config.max_batch_size = 1;
  if (config.max_queue_delay_us < 0) config.max_queue_delay_us = 0;
  if (config.max_queue_depth < 0) config.max_queue_depth = 0;
  if (config.circuit_breaker_failures < 0) config.circuit_breaker_failures = 0;
  return config;
}

}  // namespace

std::string MakeTenantKey(const std::string& model_name, int64_t pred_len) {
  return model_name + "@" + std::to_string(pred_len);
}

Status ValidateTenantKey(const std::string& key) {
  if (key.empty() || key.size() > 64) {
    return Status::InvalidArgument(
        "tenant key must be 1..64 chars, got \"" + key + "\"");
  }
  int64_t separators = 0;
  for (const char c : key) {
    if (c == '@') {
      ++separators;
      continue;
    }
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) {
      return Status::InvalidArgument(
          std::string("tenant key has invalid char '") + c + "': \"" + key +
          "\" (allowed: [A-Za-z0-9_.-] and one '@')");
    }
  }
  if (separators != 1 || key.front() == '@' || key.back() == '@') {
    return Status::InvalidArgument(
        "tenant key must be \"model@horizon\" — exactly one '@' between "
        "non-empty halves, got \"" + key + "\"");
  }
  return Status::OK();
}

FleetServer::Tenant::Tenant(const std::string& key,
                            std::unique_ptr<InferenceSession> session,
                            const QueueConfig& config, int64_t weight)
    : key(key),
      session(std::move(session)),
      config(Sanitize(config)),
      weight(std::max<int64_t>(1, weight)),
      requests(Registry().GetCounter(TenantMetric(key, "requests"))),
      rejected(Registry().GetCounter(TenantMetric(key, "rejected"))),
      shed(Registry().GetCounter(TenantMetric(key, "shed_expired"))),
      batches(Registry().GetCounter(TenantMetric(key, "batches"))),
      batch_failures(
          Registry().GetCounter(TenantMetric(key, "batch_failures"))),
      circuit_opens(Registry().GetCounter(TenantMetric(key, "circuit_opens"))),
      depth(Registry().GetGauge(TenantMetric(key, "queue_depth"))),
      latency(Registry().GetHistogram(
          TenantMetric(key, "request_latency_seconds"))) {}

FleetServer::FleetServer(FleetConfig config)
    : config_(Sanitize(config)),
      requests_(Registry().GetCounter("serve.requests")),
      rejected_(Registry().GetCounter("serve.rejected")),
      shed_(Registry().GetCounter("serve.shed_expired")),
      batches_(Registry().GetCounter("serve.batches")),
      batch_failures_(Registry().GetCounter("serve.batch_failures")),
      circuit_opens_(Registry().GetCounter("serve.circuit_opens")),
      dispatches_(Registry().GetCounter("serve.fleet.dispatches")),
      queue_depth_(Registry().GetGauge("serve.queue_depth")),
      batch_occupancy_(Registry().GetGauge("serve.batch_occupancy")),
      batch_size_(Registry().GetHistogram("serve.batch_size",
                                          {1, 2, 4, 8, 16, 32, 64, 128})),
      batch_latency_(Registry().GetHistogram("serve.batch_latency_seconds")),
      request_latency_(
          Registry().GetHistogram("serve.request_latency_seconds")),
      deadline_slack_(
          Registry().GetHistogram("serve.deadline_slack_seconds")) {
  dispatchers_.reserve(config_.num_dispatchers);
  for (int64_t i = 0; i < config_.num_dispatchers; ++i) {
    dispatchers_.emplace_back([this] { DispatchLoop(); });
  }
}

FleetServer::~FleetServer() { Shutdown(); }

Status FleetServer::AddTenant(const std::string& key, const TenantSpec& spec) {
  {
    // Reject duplicates before the (expensive) open, and again at insert —
    // two concurrent AddTenants of one key must not both succeed.
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return NotAdded(key);
    Status valid = ValidateTenantKey(key);
    if (!valid.ok()) return valid;
    if (tenants_.count(key) > 0) {
      return Status::AlreadyExists("tenant \"" + key +
                                   "\" is already registered");
    }
  }
  SessionConfig session_config = spec.session;
  if (session_config.fault_scope.empty()) session_config.fault_scope = key;
  Result<std::unique_ptr<InferenceSession>> session =
      InferenceSession::Open(session_config, spec.checkpoint);
  if (!session.ok()) return session.status();

  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return NotAdded(key);
  const bool inserted =
      tenants_
          .try_emplace(key, key, std::move(session.value()), spec.queue,
                       spec.weight)
          .second;
  if (!inserted) {
    return Status::AlreadyExists("tenant \"" + key +
                                 "\" was registered concurrently");
  }
  Registry().GetGauge("serve.fleet.tenants")
      .Set(static_cast<double>(tenants_.size()));
  return Status::OK();
}

Status FleetServer::AdmitLocked(const Tenant& tenant,
                                const data::Batch& request) const {
  // The session's full-geometry check: a malformed request becomes a status
  // on its own future instead of aborting the dispatcher, and admitted
  // requests are Concat-compatible by construction.
  Status valid = tenant.session->Validate(request);
  if (!valid.ok()) return valid;
  if (shutdown_) return Status::Unavailable("queue is shut down");
  if (tenant.circuit_open) return Status::Unavailable(kCircuitOpen);
  if (tenant.config.max_queue_depth > 0 &&
      static_cast<int64_t>(tenant.queue.size()) >=
          tenant.config.max_queue_depth) {
    return Status::ResourceExhausted("queue depth " +
                                     std::to_string(tenant.queue.size()) +
                                     " at capacity");
  }
  return Status::OK();
}

std::future<Result<Forecast>> FleetServer::Submit(const std::string& key,
                                                  data::Batch request,
                                                  RequestOptions options) {
  Pending pending;
  std::future<Result<Forecast>> future = pending.promise.get_future();
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

  Status refused;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(key);
    if (it == tenants_.end()) {
      refused = NotRegistered(key);
    } else {
      Tenant& tenant = it->second;
      requests_.Increment();
      tenant.requests.Increment();
      refused = AdmitLocked(tenant, pending.batch);
      if (refused.ok()) {
        tenant.queue.push_back(std::move(pending));
        ++queued_;
        SetDepthLocked(tenant);
      } else {
        rejected_.Increment();
        tenant.rejected.Increment();
      }
    }
  }
  if (refused.ok()) {
    cv_.notify_all();
  } else {
    // Every refusal is a status on the (already resolved) future — a client
    // can never crash the server with a bad or ill-timed request.
    pending.promise.set_value(Result<Forecast>(std::move(refused)));
  }
  return future;
}

Status FleetServer::Reload(const std::string& key,
                           const std::string& checkpoint) {
  InferenceSession* target = session(key);
  if (target == nullptr) return NotRegistered(key);
  return target->Reload(checkpoint);
}

void FleetServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  std::call_once(join_once_, [this] {
    for (std::thread& shard : dispatchers_) {
      if (shard.joinable()) shard.join();
    }
  });
}

bool FleetServer::circuit_open(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(key);
  return it != tenants_.end() && it->second.circuit_open;
}

Status FleetServer::ResetCircuitBreaker(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(key);
  if (it == tenants_.end()) return NotRegistered(key);
  it->second.circuit_open = false;
  it->second.consecutive_failures = 0;
  return Status::OK();
}

int64_t FleetServer::pending(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(key);
  return it == tenants_.end() ? 0
                              : static_cast<int64_t>(it->second.queue.size());
}

std::vector<std::string> FleetServer::tenant_keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> keys;
  keys.reserve(tenants_.size());
  for (const auto& [key, tenant] : tenants_) keys.push_back(key);
  return keys;
}

int64_t FleetServer::tenant_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(tenants_.size());
}

InferenceSession* FleetServer::session(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(key);
  return it == tenants_.end() ? nullptr : it->second.session.get();
}

void FleetServer::SetDepthLocked(Tenant& tenant) {
  tenant.depth.Set(static_cast<double>(tenant.queue.size()));
  queue_depth_.Set(static_cast<double>(queued_));
}

FleetServer::Tenant* FleetServer::ClaimTenantLocked(int64_t now_ns, bool drain,
                                                    int64_t* next_ripe_ns) {
  // Earliest time a tenant's pending batch may dispatch: now (0) when
  // draining, when the tenant never waits, or once the batch is full;
  // otherwise the coalescing delay after its oldest request.
  const auto ripe_at_ns = [drain](const Tenant& tenant) -> int64_t {
    if (drain || tenant.config.max_queue_delay_us == 0) return 0;
    int64_t series = 0;
    for (const Pending& p : tenant.queue) {
      series += p.batch.size();
      if (series >= tenant.config.max_batch_size) return 0;
    }
    return tenant.queue.front().enqueue_ns +
           tenant.config.max_queue_delay_us * 1000;
  };

  *next_ripe_ns = 0;
  Tenant* best = nullptr;
  int64_t total_weight = 0;
  for (auto& [key, tenant] : tenants_) {
    if (tenant.in_service || tenant.queue.empty()) continue;
    const int64_t ripe_ns = ripe_at_ns(tenant);
    if (ripe_ns > now_ns) {
      if (*next_ripe_ns == 0 || ripe_ns < *next_ripe_ns) {
        *next_ripe_ns = ripe_ns;
      }
      continue;
    }
    // Smooth weighted round-robin (nginx): every ripe candidate earns its
    // weight in credit, the richest is picked and pays the round's total
    // back — over time each backlogged tenant is served in proportion to
    // its weight, with maximally interleaved (never bursty) pick order.
    tenant.wrr_credit += tenant.weight;
    total_weight += tenant.weight;
    if (best == nullptr || tenant.wrr_credit > best->wrr_credit) {
      best = &tenant;
    }
  }
  if (best != nullptr) {
    best->wrr_credit -= total_weight;
    best->in_service = true;
    dispatches_.Increment();
  }
  return best;
}

void FleetServer::ServeOnce(Tenant& tenant, int64_t now_ns,
                            std::unique_lock<std::mutex>& lock) {
  // Pop the longest prefix that fits max_batch_size series; the first
  // request always ships, even if alone it exceeds the cap. Requests whose
  // deadline already passed are shed as they surface — the model never
  // spends time on work nobody is waiting for — and do not count against
  // the batch budget.
  std::vector<Pending> taken;
  std::vector<Pending> shed;
  int64_t series = 0;
  while (!tenant.queue.empty()) {
    Pending& front = tenant.queue.front();
    if (front.deadline_ns > 0 && now_ns >= front.deadline_ns) {
      shed.push_back(std::move(front));
      tenant.queue.pop_front();
      continue;
    }
    const int64_t next = front.batch.size();
    if (!taken.empty() && series + next > tenant.config.max_batch_size) break;
    series += next;
    taken.push_back(std::move(front));
    tenant.queue.pop_front();
  }
  queued_ -= static_cast<int64_t>(taken.size() + shed.size());
  SetDepthLocked(tenant);
  lock.unlock();

  for (Pending& p : shed) {
    shed_.Increment();
    tenant.shed.Increment();
    p.promise.set_value(Result<Forecast>(Status::DeadlineExceeded(
        "deadline passed before dispatch; request shed")));
  }
  if (taken.empty()) {
    lock.lock();
    return;
  }

  // Containment boundary: a throwing Predict fails only this batch's
  // promises with a status — the dispatcher survives to serve the next
  // batch, and no future is ever left broken.
  InferenceSession& session = *tenant.session;
  const int64_t start_ns = prof::internal::NowNs();
  Forecast merged;
  Status failure = Status::OK();
  try {
    CONFORMER_PROFILE_SCOPE_CAT("serve", "batch");
    if (taken.size() == 1) {
      merged = session.Predict(taken[0].batch);
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
      merged = session.Predict(batch);
    }
  } catch (const std::exception& e) {
    failure = Status::Internal(std::string("model Predict failed: ") +
                               e.what());
  } catch (...) {
    failure = Status::Internal("model Predict failed: unknown exception");
  }
  const int64_t end_ns = prof::internal::NowNs();

  if (!failure.ok()) {
    CONFORMER_LOG(Warning) << "serving batch of " << series
                           << " series failed: " << failure.ToString();
    batch_failures_.Increment();
    tenant.batch_failures.Increment();
    for (Pending& p : taken) {
      p.promise.set_value(Result<Forecast>(failure));
    }
    lock.lock();
    ++tenant.consecutive_failures;
    if (tenant.config.circuit_breaker_failures > 0 &&
        tenant.consecutive_failures >=
            tenant.config.circuit_breaker_failures &&
        !tenant.circuit_open) {
      // Trip: drain-and-reject instead of looping hot on a broken model.
      // Submit() refuses new work while the circuit is open.
      tenant.circuit_open = true;
      circuit_opens_.Increment();
      tenant.circuit_opens.Increment();
      CONFORMER_LOG(Error) << "serving circuit breaker open after "
                           << tenant.consecutive_failures
                           << " consecutive batch failures (tenant "
                           << tenant.key << ")";
      const Status open = Status::Unavailable(kCircuitOpen);
      for (Pending& p : tenant.queue) {
        rejected_.Increment();
        tenant.rejected.Increment();
        p.promise.set_value(Result<Forecast>(open));
      }
      queued_ -= static_cast<int64_t>(tenant.queue.size());
      tenant.queue.clear();
      SetDepthLocked(tenant);
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
      deadline_slack_.Observe(
          std::max(0.0, static_cast<double>(p.deadline_ns - end_ns) * 1e-9));
    }
    p.promise.set_value(Result<Forecast>(std::move(slice)));
    const double latency = static_cast<double>(end_ns - p.enqueue_ns) * 1e-9;
    request_latency_.Observe(latency);
    tenant.latency.Observe(latency);
  }

  batches_.Increment();
  tenant.batches.Increment();
  batch_size_.Observe(static_cast<double>(series));
  batch_occupancy_.Set(static_cast<double>(series) /
                       static_cast<double>(tenant.config.max_batch_size));
  batch_latency_.Observe(static_cast<double>(end_ns - start_ns) * 1e-9);

  lock.lock();
  tenant.consecutive_failures = 0;
}

void FleetServer::DispatchLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const bool drain = shutdown_;
    const int64_t now_ns = prof::internal::NowNs();
    int64_t next_ripe_ns = 0;
    Tenant* claimed = ClaimTenantLocked(now_ns, drain, &next_ripe_ns);
    if (claimed != nullptr) {
      ServeOnce(*claimed, now_ns, lock);
      claimed->in_service = false;
      // The tenant may still be backlogged, and the shutdown path below
      // waits on in_service draining — either way the other shards need a
      // look.
      cv_.notify_all();
      continue;
    }
    if (drain) {
      // Exit once nothing is claimable AND no shard is mid-batch (a serving
      // shard's tenant may still hold queued work this shard must not
      // abandon). In-service shards notify when they finish.
      const bool busy = std::any_of(
          tenants_.begin(), tenants_.end(),
          [](const auto& entry) { return entry.second.in_service; });
      if (!busy) return;
      cv_.wait(lock);
      continue;
    }
    if (next_ripe_ns == 0) {
      cv_.wait(lock);  // Idle: Submit/Shutdown wake us.
      continue;
    }
    // Everything pending is coalescing; sleep until the earliest batch
    // ripens (or a Submit tops one up to full and wakes us early).
    if (next_ripe_ns > now_ns) {
      cv_.wait_for(lock, std::chrono::nanoseconds(next_ripe_ns - now_ns));
    }
  }
}

}  // namespace conformer::serve
