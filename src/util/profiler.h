// Op-level profiler: RAII scoped timers feeding per-thread event logs, with
// aggregation (count / total / min / max / self wall time, bytes moved) and
// export as a JSON summary or a chrome://tracing event file.
//
// Cost model: when profiling is disabled the scope constructor is one relaxed
// atomic load and a branch — no allocation, no clock read. When enabled, each
// scope costs two steady_clock reads plus an append to a thread-local event
// buffer (uncontended mutex). Recording is safe from ThreadPool workers; see
// profiler_test.cc for the concurrency contract.
//
// Enabling: CONFORMER_PROFILE=1 in the environment, or
// Profiler::Global().Enable() programmatically.
//
// With CONFORMER_PROFILE=1, setting CONFORMER_PROFILE_JSON=<path> and/or
// CONFORMER_TRACE_FILE=<path> dumps the summary / trace at process exit, so
// any existing binary becomes profilable without code changes.

#ifndef CONFORMER_UTIL_PROFILER_H_
#define CONFORMER_UTIL_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace conformer::prof {

/// \brief One completed scope. `name` and `cat` must be string literals (or
/// otherwise outlive the profiler); events store the pointers only.
struct Event {
  const char* name = "";
  const char* cat = "";
  int64_t start_ns = 0;  ///< Nanoseconds since process start (steady clock).
  int64_t dur_ns = 0;
  int64_t bytes = 0;     ///< Bytes moved by the op, 0 if not reported.
  uint32_t tid = 0;      ///< Dense per-process thread id (registration order).
};

/// \brief Aggregated statistics for one (category, name) pair.
struct OpStats {
  std::string cat;
  std::string name;
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t min_ns = 0;
  int64_t max_ns = 0;
  /// Exclusive time: total minus time spent in scopes nested inside this one
  /// on the same thread. Summing `self_ns` over all rows never double-counts.
  int64_t self_ns = 0;
  int64_t bytes = 0;
};

namespace internal {

/// Global enabled flag; read on every scope construction (relaxed).
extern std::atomic<bool> g_enabled;

/// Nanoseconds since the process-wide steady-clock epoch.
int64_t NowNs();

/// Appends a completed scope to the calling thread's log.
void Record(const char* name, const char* cat, int64_t start_ns,
            int64_t dur_ns, int64_t bytes);

}  // namespace internal

/// True when profiling is currently enabled (cheap; relaxed load).
inline bool ProfilingEnabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// \brief Process-wide event sink and aggregator.
class Profiler {
 public:
  /// The singleton used by all scopes. Never destroyed (leaky), so scopes on
  /// detached threads can record safely during shutdown.
  static Profiler& Global();

  void Enable();
  void Disable();
  bool enabled() const { return ProfilingEnabled(); }

  /// Drops all recorded events (thread logs stay registered). Must not run
  /// concurrently with aggregation; concurrent recording is allowed and the
  /// affected events land either before or after the reset.
  void Reset();

  /// Total events recorded so far.
  int64_t event_count() const;

  /// Copies out all events, ordered by (tid, start).
  std::vector<Event> Snapshot() const;

  /// Per-(cat, name) aggregates with self-time attribution, sorted by
  /// descending total time.
  std::vector<OpStats> Aggregate() const;

  /// JSON document: schema tag, op aggregates, tensor-allocation stats
  /// (current / peak bytes, alloc count) and the metrics registry.
  std::string SummaryJson() const;

  /// Writes SummaryJson() to `path`; false on I/O failure.
  bool WriteSummaryJson(const std::string& path) const;

  /// Writes events as a chrome://tracing "traceEvents" JSON file; false on
  /// I/O failure. `max_events` > 0 keeps only the chronologically first
  /// events (a complete time prefix, so nesting stays intact) — long training
  /// runs record millions of events and the tracing UI struggles past a few
  /// hundred MB. The env-var dump path reads CONFORMER_TRACE_MAX_EVENTS.
  bool WriteTrace(const std::string& path, int64_t max_events = 0) const;

 private:
  friend void internal::Record(const char*, const char*, int64_t, int64_t,
                               int64_t);
  struct ThreadLog;
  Profiler();

  /// Registers (or returns) the calling thread's log.
  ThreadLog* LocalLog();

  mutable std::mutex mu_;  // guards logs_ (the list, not the per-log events)
  std::vector<std::shared_ptr<ThreadLog>> logs_;
};

/// \brief RAII timer for one named scope.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name, const char* cat = "op",
                       int64_t bytes = 0)
      : name_(name), cat_(cat), bytes_(bytes), active_(ProfilingEnabled()) {
    if (active_) start_ns_ = internal::NowNs();
  }

  ~ScopedTimer() {
    if (active_) {
      internal::Record(name_, cat_, start_ns_,
                       internal::NowNs() - start_ns_, bytes_);
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Attributes `bytes` moved to this scope after construction (e.g. once
  /// shapes are known).
  void set_bytes(int64_t bytes) { bytes_ = bytes; }

 private:
  const char* name_;
  const char* cat_;
  int64_t bytes_;
  int64_t start_ns_ = 0;
  bool active_;
};

}  // namespace conformer::prof

// Scope macros: the only instrumentation API call sites should use.
#define CONFORMER_PROFILE_CONCAT_INNER(a, b) a##b
#define CONFORMER_PROFILE_CONCAT(a, b) CONFORMER_PROFILE_CONCAT_INNER(a, b)
/// Times the enclosing scope under (`cat`, `name`).
#define CONFORMER_PROFILE_SCOPE_CAT(cat, name)                 \
  ::conformer::prof::ScopedTimer CONFORMER_PROFILE_CONCAT(     \
      conformer_prof_scope_, __LINE__)((name), (cat))
/// Times the enclosing scope and reports `bytes` moved.
#define CONFORMER_PROFILE_SCOPE_BYTES(cat, name, bytes)        \
  ::conformer::prof::ScopedTimer CONFORMER_PROFILE_CONCAT(     \
      conformer_prof_scope_, __LINE__)((name), (cat), (bytes))
/// Times the enclosing scope under the default "op" category.
#define CONFORMER_PROFILE_SCOPE(name) CONFORMER_PROFILE_SCOPE_CAT("op", name)

#endif  // CONFORMER_UTIL_PROFILER_H_
