#include "bench/e2e/serve_load.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <numeric>
#include <random>
#include <thread>
#include <utility>

namespace conformer::bench_e2e {

namespace {

struct InFlight {
  int64_t id = 0;
  int tenant = 0;
  int entry = 0;
  int64_t due_ns = 0;
  int64_t seen_ns = 0;
  std::future<Result<serve::Forecast>> future;
};

const char* Classify(StatusCode code, LoadResult* result) {
  switch (code) {
    case StatusCode::kResourceExhausted:
    case StatusCode::kUnavailable:
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
      ++result->rejected;
      return "rejected";
    case StatusCode::kDeadlineExceeded:
      ++result->shed;
      return "shed";
    default:
      ++result->errored;
      return "error";
  }
}

void SleepUntilNs(int64_t deadline_ns) {
  const int64_t wait_ns = deadline_ns - NowNs();
  if (wait_ns > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(wait_ns));
  }
}

// An independent random stream per (seed, stream) pair.
std::mt19937_64 StreamRng(uint64_t seed, uint64_t stream) {
  std::seed_seq seq{seed, stream};
  return std::mt19937_64(seq);
}

// Draws from a fixed multiset in rounds, each round every element once in a
// seeded order: the seed changes the order of the traffic, never its
// composition, so every prefix holds each element in its share to within
// one round.
class ShuffledRounds {
 public:
  ShuffledRounds(std::vector<int> items, std::mt19937_64 rng)
      : items_(std::move(items)), rng_(rng), next_(items_.size()) {}

  int Next() {
    if (next_ == items_.size()) {
      std::shuffle(items_.begin(), items_.end(), rng_);
      next_ = 0;
    }
    return items_[next_++];
  }

 private:
  std::vector<int> items_;
  std::mt19937_64 rng_;
  size_t next_;
};

}  // namespace

LoadResult RunLoad(serve::FleetServer& fleet,
                   const std::vector<TenantTraffic>& tenants,
                   const LoadShape& shape, bool record_spans) {
  LoadResult result;
  result.tenant_latency_ms.resize(tenants.size());
  const int64_t window_ns = static_cast<int64_t>(shape.seconds * 1e9);

  // The open-loop schedule: a fixed request count at uniform random times
  // in the window, so the offered load is identical on every seed and the
  // gaps are exponential-like.
  std::vector<int64_t> due_offsets;
  if (!shape.closed_loop) {
    std::mt19937_64 schedule_rng = StreamRng(shape.seed, 0);
    std::uniform_real_distribution<double> when(0.0, shape.seconds);
    due_offsets.resize(std::llround(shape.rate_per_s * shape.seconds));
    for (int64_t& offset : due_offsets) {
      offset = static_cast<int64_t>(when(schedule_rng) * 1e9);
    }
    std::sort(due_offsets.begin(), due_offsets.end());
  }
  std::vector<int> tenant_round;
  std::vector<ShuffledRounds> entry_rounds;
  for (size_t t = 0; t < tenants.size(); ++t) {
    tenant_round.insert(tenant_round.end(), tenants[t].mix,
                        static_cast<int>(t));
    std::vector<int> entries(tenants[t].pool.size());
    std::iota(entries.begin(), entries.end(), 0);
    entry_rounds.emplace_back(std::move(entries), StreamRng(shape.seed, 2 + t));
  }
  ShuffledRounds pick_tenant(std::move(tenant_round),
                             StreamRng(shape.seed, 1));

  std::mutex mu;  // Guards fifo, free_due, issuer_done.
  std::condition_variable slot_freed;
  std::vector<std::deque<InFlight>> fifo(tenants.size());
  std::deque<int64_t> free_due;  // Closed loop: due times of free slots.
  bool issuer_done = false;

  // A short lead so both threads are running before the first request is
  // due.
  const int64_t t0 = NowNs() + 2'000'000;
  for (int64_t i = 0; shape.closed_loop && i < shape.outstanding; ++i) {
    free_due.push_back(t0);
  }

  std::thread issuer([&] {
    PinCurrentThread(Cpus().issuer);
    for (int64_t id = 0;; ++id) {
      int64_t due = 0;
      if (shape.closed_loop) {
        std::unique_lock<std::mutex> lock(mu);
        slot_freed.wait(lock, [&] { return !free_due.empty(); });
        due = free_due.front();
        free_due.pop_front();
        lock.unlock();
        SleepUntilNs(due);  // Only the initial slots wait for t0.
        if (NowNs() - t0 >= window_ns) break;
      } else {
        if (id >= static_cast<int64_t>(due_offsets.size())) break;
        due = t0 + due_offsets[id];
        SleepUntilNs(due);
      }
      InFlight req;
      req.id = id;
      req.due_ns = due;
      req.tenant = pick_tenant.Next();
      req.entry = entry_rounds[req.tenant].Next();
      const TenantTraffic& tenant = tenants[req.tenant];
      const int64_t issue = NowNs();
      req.future = fleet.Submit(tenant.key, tenant.pool[req.entry]);
      const int64_t submitted = NowNs();
      result.lag_ms.push_back(static_cast<double>(issue - due) * 1e-6);
      result.submit_us.push_back(static_cast<double>(submitted - issue) *
                                 1e-3);
      std::lock_guard<std::mutex> lock(mu);
      fifo[req.tenant].push_back(std::move(req));
    }
    std::lock_guard<std::mutex> lock(mu);
    issuer_done = true;
  });

  int64_t last_seen = t0;
  std::thread collector([&] {
    PinCurrentThread(Cpus().collector);
    std::vector<InFlight> ready;
    while (true) {
      bool done = false;
      ready.clear();
      {
        std::lock_guard<std::mutex> lock(mu);
        for (std::deque<InFlight>& queue : fifo) {
          while (!queue.empty() &&
                 queue.front().future.wait_for(std::chrono::seconds(0)) ==
                     std::future_status::ready) {
            queue.front().seen_ns = NowNs();
            ready.push_back(std::move(queue.front()));
            queue.pop_front();
          }
        }
        done = issuer_done &&
               std::all_of(fifo.begin(), fifo.end(),
                           [](const auto& q) { return q.empty(); });
      }
      for (InFlight& req : ready) {
        const Result<serve::Forecast> out = req.future.get();
        const char* status = "ok";
        if (!out.ok()) {
          status = Classify(out.status().code(), &result);
        } else if (!BitwiseEqual(out.value().point,
                                 tenants[req.tenant].reference[req.entry])) {
          ++result.mismatched;
          status = "mismatch";
        } else {
          const double ms =
              static_cast<double>(req.seen_ns - req.due_ns) * 1e-6;
          const int64_t series = out.value().point.size(0);
          ++result.delivered;
          result.delivered_series += series;
          result.completions.push_back({req.seen_ns, series});
          result.latency_ms.push_back(ms);
          result.tenant_latency_ms[req.tenant].push_back(ms);
        }
        last_seen = std::max(last_seen, req.seen_ns);
        if (record_spans) {
          result.spans.push_back({tenants[req.tenant].key, req.id, req.due_ns,
                                  req.seen_ns, status});
        }
        if (shape.closed_loop) {
          {
            std::lock_guard<std::mutex> lock(mu);
            free_due.push_back(req.seen_ns);
          }
          slot_freed.notify_one();
        }
      }
      if (ready.empty()) {
        if (done) break;
        std::this_thread::sleep_for(kPollSleep);
      }
    }
  });

  issuer.join();
  collector.join();
  result.issued = static_cast<int64_t>(result.lag_ms.size());
  result.start_ns = t0;
  result.wall_seconds = static_cast<double>(last_seen - t0) * 1e-9;
  return result;
}

}  // namespace conformer::bench_e2e
