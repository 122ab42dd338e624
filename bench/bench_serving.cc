// Serving-throughput benchmark (docs/SERVING.md): the same request stream
// served three ways — one request at a time, directly coalesced batches,
// and through a one-tenant FleetServer with concurrent clients — so the
// value of micro-batching is a single JSON diff. Emits the
// bench_parallel_kernels JSON schema so CI can gate it with
// tools/compare_bench.py:
//
//   {"host": {"hardware_concurrency": N, "simd": ..., "compiler": ...},
//    "results": [{"kernel": "serve_seq_b1", "threads": T,
//                 "ops_per_sec": ...}]}
//
// ops_per_sec counts forecast *series* per second in every row, so rows are
// directly comparable: serve_queue_b8 / serve_seq_b1 is the micro-batching
// speedup (>= 3x on the multicore CI runner; ~1x on one core, where wider
// batches only amortize per-call overhead).

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "data/dataset_registry.h"
#include "serve/fleet_server.h"
#include "util/thread_pool.h"

namespace conformer::bench {
namespace {

using Clock = std::chrono::steady_clock;

/// Series forecast per second of `fn`, one full pass over `series_per_iter`
/// series.
template <typename Fn>
Rate MeasureSeriesPerSec(int64_t series_per_iter, Fn fn) {
  const Rate passes = MeasureOpsPerSec(fn);
  const double series = static_cast<double>(series_per_iter);
  return {passes.median * series, passes.iqr * series};
}

int Main() {
  const int64_t threads = ThreadPool::Global().num_threads();
  const int64_t kRequests = 32;

  serve::SessionConfig config;
  config.model_name = "conformer";
  config.window = {.input_len = 32, .label_len = 16, .pred_len = 16};
  config.dims = 7;
  // Untrained weights: throughput does not depend on parameter values, and
  // skipping training keeps the smoke job fast and deterministic.
  std::unique_ptr<serve::InferenceSession> session =
      serve::InferenceSession::Open(config, "").value();

  data::TimeSeries series = data::MakeDataset("etth1", 0.08).value();
  data::DatasetSplits splits = data::MakeSplits(series, config.window);
  std::vector<data::Batch> singles;
  for (int64_t r = 0; r < kRequests; ++r) {
    singles.push_back(splits.test.GetRange(r % splits.test.size(), 1));
  }

  std::vector<BenchRow> rows;

  // One forward pass per request: the no-batching floor.
  rows.push_back({"serve_seq_b1", threads,
                  MeasureSeriesPerSec(kRequests, [&] {
                    for (const data::Batch& b : singles) session->Predict(b);
                  })});

  // Perfectly coalesced batches, no queueing: the batching ceiling.
  for (const int64_t batch : {8, 16}) {
    std::vector<data::Batch> merged;
    for (int64_t first = 0; first < kRequests; first += batch) {
      merged.push_back(splits.test.GetRange(first % splits.test.size(), batch));
    }
    rows.push_back({"serve_direct_b" + std::to_string(batch), threads,
                    MeasureSeriesPerSec(kRequests, [&] {
                      for (const data::Batch& b : merged) session->Predict(b);
                    })});
  }

  // Static-runtime replay (docs/STATIC_RUNTIME.md) of the same coalesced
  // batches: the first Predict per geometry traces and compiles the plan
  // (outside the timed region via MeasureSeriesPerSec's warm-up pass), the
  // measured iterations replay it with zero per-op dispatch. The row pair
  // serve_plan_bN / serve_direct_bN is the static-runtime speedup.
  {
    serve::SessionConfig plan_config = config;
    plan_config.use_static_plan = true;
    std::unique_ptr<serve::InferenceSession> plan_session =
        serve::InferenceSession::Open(plan_config, "").value();
    for (const int64_t batch : {8, 16}) {
      std::vector<data::Batch> merged;
      for (int64_t first = 0; first < kRequests; first += batch) {
        merged.push_back(
            splits.test.GetRange(first % splits.test.size(), batch));
      }
      rows.push_back({"serve_plan_b" + std::to_string(batch), threads,
                      MeasureSeriesPerSec(kRequests, [&] {
                        for (const data::Batch& b : merged) {
                          plan_session->Predict(b);
                        }
                      })});
    }
  }

  // The real serving path: concurrent clients through a one-tenant,
  // one-shard fleet over the eager Conformer.
  const std::string key =
      serve::MakeTenantKey(config.model_name, config.window.pred_len);
  serve::TenantSpec spec;
  spec.session = config;
  {
    serve::FleetServer fleet({.num_dispatchers = 1});
    spec.queue = {.max_batch_size = 8, .max_queue_delay_us = 500};
    if (!fleet.AddTenant(key, spec).ok()) return 1;
    const int64_t kClients = 4;
    rows.push_back({"serve_queue_b8", threads,
                    MeasureSeriesPerSec(kRequests, [&] {
                      std::vector<std::thread> clients;
                      for (int64_t c = 0; c < kClients; ++c) {
                        clients.emplace_back([&, c] {
                          std::vector<std::future<Result<serve::Forecast>>>
                              futures;
                          for (int64_t r = c; r < kRequests; r += kClients) {
                            futures.push_back(fleet.Submit(key, singles[r]));
                          }
                          for (auto& f : futures) f.get();
                        });
                      }
                      for (std::thread& t : clients) t.join();
                    })});
  }

  // Overload resilience (docs/SERVING.md, "Overload & failure policy"):
  // open-loop arrivals at 2x the peak measured service rate, against a
  // bounded queue (depth 16) with per-request deadlines sized to one full
  // queue drain. The peak over the direct and queue rows bounds what the
  // queue path can possibly serve (the closed-loop serve_queue_b8 row alone
  // under-reads capacity on one core, where client threads steal dispatcher
  // time), so 2x of it is guaranteed saturation. Over-capacity arrivals are
  // rejected at admission and queued requests whose deadline lapses are
  // shed before the model runs, so the model's time goes to requests
  // somebody still wants:
  //   serve_overload_goodput_b8   delivered series/sec under 2x overload
  //   serve_overload_shed_rate_b8 shed+rejected fraction of offered load
  //                               (a ratio in [0,1], not a rate)
  {
    double capacity = 0.0;
    for (const BenchRow& row : rows) {
      if (row.kernel.rfind("serve_plan_", 0) == 0) continue;  // replay, not
                                                              // the queue path
      capacity = std::max(capacity, row.ops_per_sec);
    }
    serve::FleetServer fleet({.num_dispatchers = 1});
    spec.queue = {.max_batch_size = 8,
                  .max_queue_delay_us = 500,
                  .max_queue_depth = 16};
    if (!fleet.AddTenant(key, spec).ok()) return 1;
    const auto interarrival =
        std::chrono::nanoseconds(static_cast<int64_t>(1e9 / (2.0 * capacity)));
    const int64_t deadline_us = static_cast<int64_t>(16 * 1e6 / capacity);
    fleet.session(key)->Predict(singles[0]);  // Warm-up.

    int64_t submitted = 0, delivered = 0, shed = 0, rejected = 0;
    std::vector<std::future<Result<serve::Forecast>>> futures;
    const auto start = Clock::now();
    auto next_arrival = start;
    double elapsed = 0.0;
    do {
      std::this_thread::sleep_until(next_arrival);
      next_arrival += interarrival;
      futures.push_back(fleet.Submit(key, singles[submitted % kRequests],
                                     {.deadline_us = deadline_us}));
      ++submitted;
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    } while (elapsed < MinSeconds());
    for (auto& f : futures) {
      const Result<serve::Forecast> result = f.get();
      if (result.ok()) {
        ++delivered;
      } else if (result.status().code() == StatusCode::kDeadlineExceeded) {
        ++shed;
      } else {
        ++rejected;
      }
    }
    fleet.Shutdown();
    const double total =
        std::chrono::duration<double>(Clock::now() - start).count();
    rows.push_back({"serve_overload_goodput_b8", threads,
                    static_cast<double>(delivered) / total});
    rows.push_back({"serve_overload_shed_rate_b8", threads,
                    static_cast<double>(shed + rejected) /
                        static_cast<double>(submitted)});
  }

  PrintBenchJson(rows);
  return 0;
}

}  // namespace
}  // namespace conformer::bench

int main() { return conformer::bench::Main(); }
