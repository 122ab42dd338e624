// Load generation for the serving workloads: one issuer thread and one
// collector thread drive a FleetServer, and every delivered forecast is
// compared bitwise with its request's standalone InferenceSession::Predict.
//
//   open loop    requests are due on a seeded schedule (uniform arrival
//                times given the count, i.e. a Poisson process conditioned
//                on its total) and are issued when due whatever the server
//                is doing; a stall delays later requests, and their latency
//                counts it because latency runs from the due time.
//   closed loop  a fixed number of requests is outstanding; a request is
//                due the moment the collector saw its predecessor resolve.
//
// Tenants and pool entries are drawn in shuffled rounds, so the seed varies
// the order of the traffic but not its mix.
//
// The collector polls the head of each tenant's FIFO with wait_for(0) and
// sleeps kPollSleep when nothing is ready, so a resolve is seen at most that
// late (plus the time to check earlier results).

#ifndef CONFORMER_BENCH_E2E_SERVE_LOAD_H_
#define CONFORMER_BENCH_E2E_SERVE_LOAD_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/e2e/harness.h"
#include "bench/e2e/stats.h"
#include "serve/fleet_server.h"

namespace conformer::bench_e2e {

inline constexpr std::chrono::microseconds kPollSleep{100};

/// \brief One tenant's share of the traffic and its request pool.
struct TenantTraffic {
  std::string key;
  int mix = 1;  ///< Requests per round of the tenant mix.
  /// Distinct requests, issued in shuffled rounds of the whole pool.
  std::vector<data::Batch> pool;
  /// Standalone session Predict of each pool entry (the bitwise oracle).
  std::vector<Tensor> reference;
};

/// \brief How requests are issued.
struct LoadShape {
  bool closed_loop = false;
  double rate_per_s = 0.0;  ///< Open loop: mean arrival rate.
  int64_t outstanding = 0;  ///< Closed loop: requests in flight.
  double seconds = 0.0;     ///< Issue window.
  uint64_t seed = 0;        ///< Schedule, tenant and pool draws.
};

/// \brief What one load run observed.
struct LoadResult {
  int64_t issued = 0;
  int64_t delivered = 0;
  int64_t delivered_series = 0;
  int64_t rejected = 0;    ///< Admission refusals (queue full, shut down).
  int64_t shed = 0;        ///< Deadline passed before dispatch.
  int64_t errored = 0;     ///< Any other non-OK status.
  int64_t mismatched = 0;  ///< OK status, but not bitwise the reference.
  int64_t start_ns = 0;  ///< When the first request was due.
  /// First due time to the last resolve seen.
  double wall_seconds = 0.0;
  std::vector<Completion> completions;  ///< Delivered series, when seen.
  std::vector<double> latency_ms;  ///< Per delivered request, due -> seen.
  std::vector<std::vector<double>> tenant_latency_ms;
  std::vector<double> lag_ms;     ///< Per issued request, due -> Submit.
  std::vector<double> submit_us;  ///< Per issued request, Submit() call.
  std::vector<RequestSpan> spans;  ///< Filled when `record_spans`.

  int64_t failed() const { return rejected + shed + errored + mismatched; }
};

/// Drives `fleet` with `tenants` shaped by `shape` and blocks until every
/// issued request has resolved.
LoadResult RunLoad(serve::FleetServer& fleet,
                   const std::vector<TenantTraffic>& tenants,
                   const LoadShape& shape, bool record_spans);

}  // namespace conformer::bench_e2e

#endif  // CONFORMER_BENCH_E2E_SERVE_LOAD_H_
