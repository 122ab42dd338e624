#include "bench/e2e/harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <thread>

#include "bench/e2e/stats.h"
#include "tensor/vec/vec.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace conformer::bench_e2e {

namespace {

// Shortest decimal that round-trips: every digit the measurement has, and
// no invented ones.
std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

std::string Quoted(const std::string& text) {
  return "\"" + JsonEscape(text) + "\"";
}

std::string HostJson() {
  const CpuPlan& cpus = Cpus();
  std::string server;
  for (const int cpu : cpus.server) {
    server += (server.empty() ? "" : ", ") + std::to_string(cpu);
  }
  return "{\"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpus\": {\"server\": [" + server + "]" +
         ", \"issuer\": " + std::to_string(cpus.issuer) +
         ", \"collector\": " + std::to_string(cpus.collector) + "}" +
         ", \"kernel_threads\": " +
         std::to_string(ThreadPool::Global().num_threads()) +
         ", \"simd\": " + Quoted(vec::SimdLevelName(vec::ActiveSimdLevel())) +
         ", \"compiler\": " + Quoted(__VERSION__) + "}";
}

}  // namespace

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit, true, ""});
}

void Report::AddPercentile(const std::string& name,
                           const std::vector<double>& samples, double p,
                           const std::string& unit) {
  const Percentile pct = NearestRank(samples, p);
  Metric metric{name, pct.value, unit, pct.valid, ""};
  if (!pct.valid) {
    metric.note = std::to_string(pct.beyond) + " of " +
                  std::to_string(samples.size()) +
                  " samples beyond it; need " +
                  std::to_string(kMinSamplesBeyond);
  }
  metrics_.push_back(std::move(metric));
}

void Report::AddCheck(const std::string& name, bool passed,
                      const std::string& detail) {
  checks_.push_back({name, passed, detail});
}

void Report::Invalidate(const std::string& reason) {
  invalid_reasons_.push_back(reason);
}

void Report::SetCounts(int64_t attempted, int64_t failed) {
  attempted_ = attempted;
  failed_ = failed;
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

bool Report::checks_passed() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.passed; });
}

std::string Report::ToJson(const std::string& workload, uint64_t seed,
                           double seconds, bool traced) const {
  std::string out = "{\"bench\": \"bench_e2e\", \"workload\": " +
                    Quoted(workload) + ", \"seed\": " + std::to_string(seed) +
                    ", \"seconds\": " + Number(seconds) +
                    ", \"trace\": " + (traced ? "1" : "0") +
                    ", \"valid\": " +
                    (invalid_reasons_.empty() ? "true" : "false") +
                    ", \"invalid_reasons\": [";
  for (size_t i = 0; i < invalid_reasons_.size(); ++i) {
    out += (i > 0 ? ", " : "") + Quoted(invalid_reasons_[i]);
  }
  out += "], \"host\": " + HostJson() +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + ", \"checks\": {";
  for (size_t i = 0; i < checks_.size(); ++i) {
    const Check& c = checks_[i];
    out += (i > 0 ? ", " : "") + Quoted(c.name) +
           ": {\"pass\": " + (c.passed ? "true" : "false") +
           ", \"detail\": " + Quoted(c.detail) + "}";
  }
  out += "}, \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += (i > 0 ? ", " : "") + Quoted(m.name) +
           ": {\"value\": " + (m.valid ? Number(m.value) : "null") +
           ", \"unit\": " + Quoted(m.unit);
    if (!m.valid) out += ", \"invalid\": " + Quoted(m.note);
    out += "}";
  }
  out += "}}";
  return out;
}

const CpuPlan& Cpus() {
  static const CpuPlan plan = [] {
    CpuPlan p;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return p;
    std::vector<int> allowed;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask)) allowed.push_back(cpu);
    }
    const size_t n = allowed.size();
    if (n < 2) return p;
    const size_t generator_cpus = n >= 3 ? 2 : 1;
    p.server.assign(allowed.begin(), allowed.end() - generator_cpus);
    p.issuer = allowed[n - 1];
    p.collector = allowed[n - generator_cpus];
    return p;
  }();
  return plan;
}

namespace {

void Pin(pid_t tid, int cpu) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpu, &mask);
  sched_setaffinity(tid, sizeof(mask), &mask);
}

}  // namespace

void PinCurrentThread(int cpu) {
  if (cpu >= 0) Pin(0, cpu);
}

std::vector<int> ThreadIds() {
  std::vector<int> tids;
  std::error_code error;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", error)) {
    tids.push_back(std::atoi(entry.path().filename().c_str()));
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

void PinNewThreadsToServerCpus(const std::vector<int>& before) {
  const std::vector<int>& cpus = Cpus().server;
  if (cpus.empty()) return;
  size_t next = 0;
  for (const int tid : ThreadIds()) {
    if (std::binary_search(before.begin(), before.end(), tid)) continue;
    Pin(tid, cpus[next++ % cpus.size()]);
  }
}

double PeakRssMib() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB.
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.defined() && b.defined() && a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<RequestSpan>& requests,
                      int64_t max_events) {
  std::vector<prof::Event> events = prof::Profiler::Global().Snapshot();
  if (static_cast<int64_t>(events.size()) > max_events) {
    std::stable_sort(events.begin(), events.end(),
                     [](const prof::Event& a, const prof::Event& b) {
                       return a.start_ns < b.start_ns;
                     });
    events.resize(max_events);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  bool first = true;
  const auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  for (const prof::Event& e : events) {
    sep();
    std::fprintf(f,
                 "{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"ts\": %s, "
                 "\"dur\": %s, \"pid\": 1, \"tid\": %u}",
                 Quoted(e.name).c_str(), Quoted(e.cat).c_str(),
                 Number(static_cast<double>(e.start_ns) * 1e-3).c_str(),
                 Number(static_cast<double>(e.dur_ns) * 1e-3).c_str(), e.tid);
  }
  for (const RequestSpan& r : requests) {
    for (const bool begin : {true, false}) {
      sep();
      std::fprintf(
          f,
          "{\"name\": %s, \"cat\": \"request\", \"ph\": \"%s\", \"id\": %lld, "
          "\"ts\": %s, \"pid\": 1, \"tid\": 0, \"args\": {\"status\": %s}}",
          Quoted(r.name).c_str(), begin ? "b" : "e",
          static_cast<long long>(r.id),
          Number(static_cast<double>(begin ? r.start_ns : r.end_ns) * 1e-3)
              .c_str(),
          Quoted(r.status).c_str());
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace conformer::bench_e2e
