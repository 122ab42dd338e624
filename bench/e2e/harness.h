// The measuring side of bench_e2e that is not a workload: named metrics
// with units, output checks, the host fingerprint, CPU placement, peak
// memory, and the chrome-trace writer for traced runs. Callers time calls
// into the library's public API with NowNs(); nothing here instruments
// src/.

#ifndef CONFORMER_BENCH_E2E_HARNESS_H_
#define CONFORMER_BENCH_E2E_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/profiler.h"

namespace conformer::bench_e2e {

/// Nanoseconds on the profiler's steady clock, so bench spans and profiler
/// events share one time axis in the trace.
inline int64_t NowNs() { return prof::internal::NowNs(); }

/// \brief One named measurement.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// False when the sample cannot support the statistic (a percentile with
  /// fewer than ten samples beyond it); printed as null with `note`.
  bool valid = true;
  std::string note;
};

/// \brief One output check. A failed check fails the run.
struct Check {
  std::string name;
  bool passed = false;
  std::string detail;
};

/// \brief Everything one run reports. Printed as a single JSON line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Adds the nearest-rank p-th percentile of `samples`, or an invalid
  /// entry naming how many samples lay beyond it.
  void AddPercentile(const std::string& name,
                     const std::vector<double>& samples, double p,
                     const std::string& unit);
  void AddCheck(const std::string& name, bool passed,
                const std::string& detail = "");
  /// Marks the whole run as not representative (the measurement is kept
  /// but compare.py skips it); the outputs may still be correct.
  void Invalidate(const std::string& reason);

  /// Attempted units of work (training steps or requests) and the ones
  /// that did not complete successfully.
  void SetCounts(int64_t attempted, int64_t failed);

  const Metric* Find(const std::string& name) const;
  bool checks_passed() const;

  /// The full report object (one line, no trailing newline).
  std::string ToJson(const std::string& workload, uint64_t seed,
                     double seconds, bool traced) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
  std::vector<std::string> invalid_reasons_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// \brief Which CPUs of the process's affinity mask run what. Every thread
/// gets a CPU of its own where there are enough: the load generator's
/// issuer and collector the last two, the system under test the rest. Left
/// alone, the scheduler stacks the mostly-sleeping threads onto one CPU, so
/// a request would wait behind another tenant's forward pass for a core it
/// could have had, by a different amount on every run. With two CPUs the
/// generator threads share one; with one, nothing is pinned.
struct CpuPlan {
  std::vector<int> server;  ///< Main thread on the first; dispatchers spread.
  int issuer = -1;
  int collector = -1;
};

/// The plan for this process, computed once from its affinity mask.
const CpuPlan& Cpus();

/// Restricts the calling thread (and threads it creates later) to `cpu`;
/// a negative cpu leaves it unpinned.
void PinCurrentThread(int cpu);

/// Kernel ids of this process's threads (empty where /proc is absent).
std::vector<int> ThreadIds();

/// Pins each thread that is not in `before` to its own server CPU, round
/// robin: used on a FleetServer's dispatcher shards right after they
/// start, since they are created inside the library.
void PinNewThreadsToServerCpus(const std::vector<int>& before);

/// Peak resident set size of this process, MiB.
double PeakRssMib();

/// Bitwise equality of two tensors' shapes and float contents.
bool BitwiseEqual(const Tensor& a, const Tensor& b);

/// \brief A request's life from its due time to the moment its result was
/// seen, written as an async event pair so overlapping requests render on
/// one track.
struct RequestSpan {
  std::string name;  ///< Tenant key.
  int64_t id = 0;    ///< Request index in the schedule.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  const char* status = "ok";
};

/// Writes the profiler's recorded events plus `requests` as one
/// chrome://tracing JSON file. At most `max_events` profiler events are
/// kept (the earliest, so nesting stays intact). False on I/O failure.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<RequestSpan>& requests,
                      int64_t max_events);

}  // namespace conformer::bench_e2e

#endif  // CONFORMER_BENCH_E2E_HARNESS_H_
