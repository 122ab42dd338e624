// bench_e2e: end-to-end and per-layer measurement of Conformer training
// steps and served forecast requests (README.md beside this file).
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Prints one JSON line: every metric by name with its unit, the output
// checks, the host fingerprint. --trace 0 measures the end-to-end metrics;
// --trace 1 runs the load untraced for a quarter of the time, then traced
// for the full time (their medians give trace.overhead_share), runs the
// per-layer probes and writes a chrome trace. Exits 1 when an output check
// fails and 2 on bad usage.
//
// Workload constants live here, not in the environment, so two commits of
// a comparison run identical traffic.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "bench/e2e/harness.h"
#include "bench/e2e/probes.h"
#include "bench/e2e/serve_load.h"
#include "bench/e2e/stats.h"
#include "bench/e2e/train_loop.h"
#include "tensor/vec/vec.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace conformer::bench_e2e {
namespace {

constexpr int kSetupRepeats = 3;
constexpr int kWarmupSteps = 5;
constexpr double kMaxLagMs = 1.0;
constexpr int64_t kMaxTraceEvents = 250'000;
constexpr int64_t kGoodputWindowNs = 1'000'000'000;
// Kernels run single-threaded: the tensors are small, and each server CPU
// belongs to one dispatcher shard (Cpus()), so a kernel worker could only
// time-slice a shard's CPU.
constexpr int64_t kKernelThreads = 1;

/// \brief What one pass over a workload's load measured.
struct Pass {
  std::vector<double> latency_ms;  ///< Per completed unit of work.
  std::vector<double> lag_ms;      ///< How late each unit was issued.
  double goodput_series_per_s = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<RequestSpan> spans;  ///< Serving, traced passes only.
};

// Goodput of a closed loop (the system's capacity): the median of its
// whole 1-s windows in the issue window, so a host stall of a second or two
// does not move it. The whole-run rate stands in for runs under a second.
double ClosedLoopGoodput(const std::vector<Completion>& done, int64_t start_ns,
                         double seconds, double whole_run) {
  const int64_t end_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  const std::vector<double> rates =
      WindowRates(done, start_ns, end_ns, kGoodputWindowNs);
  return rates.empty() ? whole_run : Median(rates);
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds everything timing needs, after Teardown() of any earlier state.
  virtual void Setup(uint64_t seed) = 0;
  /// Runs the load for `seconds`, adding workload-specific metrics and
  /// checks to `report`; `traced` adds the per-layer ones of a traced pass.
  virtual Pass Measure(double seconds, bool traced, Report* report) = 0;
  /// Releases the state; stops server threads so probes run on a quiet
  /// process.
  virtual void Teardown() = 0;
};

// train_conformer: a closed loop of optimizer steps.
class TrainWorkload : public Workload {
 public:
  void Setup(uint64_t seed) override {
    loop_ = std::make_unique<TrainLoop>(seed);
    double loss_sum = 0.0;
    for (int i = 0; i < kWarmupSteps; ++i) loss_sum += loop_->Step().loss;
    warmup_loss_sums_.push_back(loss_sum);
  }

  Pass Measure(double seconds, bool traced, Report* report) override {
    Pass pass;
    std::vector<StepTiming> steps;
    std::vector<Completion> done;
    const int64_t start = NowNs();
    int64_t previous_end = start;
    while (NowNs() - start < static_cast<int64_t>(seconds * 1e9)) {
      const int64_t step_start = NowNs();
      steps.push_back(loop_->Step());
      pass.lag_ms.push_back(static_cast<double>(step_start - previous_end) *
                            1e-6);
      previous_end = NowNs();
      pass.latency_ms.push_back(static_cast<double>(steps.back().total_ns) *
                                1e-6);
      pass.failed += steps.back().finite ? 0 : 1;
      if (steps.back().finite) done.push_back({previous_end, kTrainBatch});
    }
    const double wall_s = static_cast<double>(previous_end - start) * 1e-9;
    pass.attempted = static_cast<int64_t>(steps.size());
    const double whole_run =
        static_cast<double>((pass.attempted - pass.failed) * kTrainBatch) /
        wall_s;
    pass.goodput_series_per_s =
        ClosedLoopGoodput(done, start, seconds, whole_run);
    report->Add("goodput_whole_run_series_per_s", whole_run, "series/s");

    // The warm-up losses repeat bitwise across set-ups (same seed), and
    // their sum, printed exactly, compares two commits' numerics.
    char hex[64];
    std::snprintf(hex, sizeof(hex), "%a", warmup_loss_sums_.back());
    bool repeatable = true;
    for (double sum : warmup_loss_sums_) {
      repeatable = repeatable && sum == warmup_loss_sums_.back();
    }
    report->AddCheck("train_loss_sum",
                     std::isfinite(warmup_loss_sums_.back()) && repeatable,
                     std::string(hex) + " over " +
                         std::to_string(kWarmupSteps) +
                         " warm-up steps, equal across " +
                         std::to_string(warmup_loss_sums_.size()) +
                         " set-ups: " + (repeatable ? "yes" : "no"));
    report->AddCheck("train_losses_finite", pass.failed == 0,
                     std::to_string(pass.failed) + " of " +
                         std::to_string(pass.attempted) +
                         " steps non-finite");
    if (traced) AddTrainPhaseMetrics(steps, report);
    return pass;
  }

  void Teardown() override { loop_.reset(); }

 private:
  std::unique_ptr<TrainLoop> loop_;
  std::vector<double> warmup_loss_sums_;
};

struct ServeTenant {
  std::string model;
  int64_t horizon;
  int mix;
  int singles;  ///< 1-series requests in the pool.
  int quads;    ///< 4-series requests in the pool.
};

struct ServeConfig {
  std::vector<ServeTenant> tenants;
  bool static_plan = false;
  serve::QueueConfig queue;
  LoadShape shape;  ///< seconds and seed are set per pass.
};

// serve_* and fleet_mix: requests through one FleetServer.
class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(ServeConfig config) : config_(std::move(config)) {}

  void Setup(uint64_t seed) override {
    seed_ = seed;
    SeedGlobalRng(seed);
    const data::TimeSeries series = MakeBenchSeries(seed);
    // Two shards (the FleetConfig default) for a fleet; one for a single
    // tenant, which only one shard can serve at a time anyway, so its plan
    // arena stays in one CPU's cache.
    const int64_t tenants = static_cast<int64_t>(config_.tenants.size());
    const std::vector<int> threads_before = ThreadIds();
    fleet_ = std::make_unique<serve::FleetServer>(
        serve::FleetConfig{.num_dispatchers = std::min<int64_t>(2, tenants)});
    PinNewThreadsToServerCpus(threads_before);
    Rng pick(seed);
    for (const ServeTenant& spec : config_.tenants) {
      const std::string key =
          spec.model + "@" + std::to_string(spec.horizon);
      serve::TenantSpec tenant;
      tenant.session.model_name = spec.model;
      tenant.session.window = FleetWindow(spec.horizon);
      tenant.session.dims = series.dims();
      tenant.session.hyper = BenchHyperParams();
      tenant.session.use_static_plan = config_.static_plan;
      tenant.queue = config_.queue;
      const Status added = fleet_->AddTenant(key, tenant);
      CONFORMER_CHECK(added.ok()) << added.ToString();
      serve::InferenceSession* session = fleet_->session(key);
      const data::DatasetSplits splits =
          data::MakeSplits(series, tenant.session.window);

      // Every batch the queue can form has 1..max_batch_size series (no
      // pool request is larger); capture each plan, or warm this thread's
      // buffer pool, before timing.
      std::vector<data::Batch> warm;
      for (int64_t rows = 1; rows <= config_.queue.max_batch_size; ++rows) {
        warm.push_back(splits.test.GetRange(0, rows));
        session->Predict(warm.back());
      }
      warm_batches_.push_back(std::move(warm));

      TenantTraffic traffic;
      traffic.key = key;
      traffic.mix = spec.mix;
      for (int i = 0; i < spec.singles + spec.quads; ++i) {
        const int64_t rows = i < spec.singles ? 1 : 4;
        const int64_t first = pick.UniformInt(splits.test.size() - rows + 1);
        traffic.pool.push_back(splits.test.GetRange(first, rows));
        traffic.reference.push_back(
            session->Predict(traffic.pool.back()).point);
      }
      tenants_.push_back(std::move(traffic));
    }
    WarmDispatchers();
  }

  Pass Measure(double seconds, bool traced, Report* report) override {
    if (config_.static_plan) {
      int64_t missing = 0;
      for (size_t t = 0; t < tenants_.size(); ++t) {
        for (const data::Batch& batch : warm_batches_[t]) {
          missing += fleet_->session(tenants_[t].key)->plan_for(batch) ==
                     nullptr;
        }
      }
      report->AddCheck("plans_cover_batch_sizes", missing == 0,
                       std::to_string(missing) + " batch sizes without a plan");
    }
    metrics::Registry& registry = metrics::Registry::Global();
    const auto counter = [&](const char* name) {
      return registry.GetCounter(name).value();
    };
    const int64_t predicts_before = counter("serve.predicts");
    const int64_t series_before = counter("serve.predicted_series");
    const int64_t hits_before = counter("serve.plan_hits");

    LoadShape shape = config_.shape;
    shape.seconds = seconds;
    shape.seed = seed_;
    LoadResult load = RunLoad(*fleet_, tenants_, shape, traced);

    const double predicts =
        static_cast<double>(counter("serve.predicts") - predicts_before);
    Pass pass;
    pass.latency_ms = load.latency_ms;
    pass.lag_ms = load.lag_ms;
    pass.attempted = load.issued;
    pass.failed = load.failed();
    // An open loop delivers what it is offered unless the server falls
    // behind; windows would only add the arrival process's noise.
    const double whole_run =
        static_cast<double>(load.delivered_series) / load.wall_seconds;
    pass.goodput_series_per_s =
        shape.closed_loop ? ClosedLoopGoodput(load.completions, load.start_ns,
                                              seconds, whole_run)
                          : whole_run;
    report->Add("goodput_whole_run_series_per_s", whole_run, "series/s");

    const auto share = [&](int64_t n) {
      return static_cast<double>(n) / static_cast<double>(load.issued);
    };
    report->AddCheck("forecasts_match_standalone_predict",
                     load.mismatched == 0,
                     std::to_string(load.delivered + load.mismatched) +
                         " delivered forecasts compared bitwise, " +
                         std::to_string(load.mismatched) + " differ");
    report->AddCheck(
        "every_request_resolved",
        load.issued == load.delivered + load.rejected + load.shed +
                           load.errored + load.mismatched,
        std::to_string(load.issued) + " issued");
    report->Add("failed_share", share(load.failed()), "fraction");
    if (!traced) return pass;

    report->AddPercentile("serve.submit_us_p50", load.submit_us, 50, "us");
    report->AddPercentile("serve.submit_us_p99", load.submit_us, 99, "us");
    report->Add("serve.batch_size_mean",
                static_cast<double>(counter("serve.predicted_series") -
                                    series_before) /
                    predicts,
                "series");
    report->Add("serve.plan_hit_ratio",
                static_cast<double>(counter("serve.plan_hits") - hits_before) /
                    predicts,
                "fraction");
    report->Add("serve.shed_share", share(load.shed), "fraction");
    report->Add("serve.rejected_share", share(load.rejected), "fraction");
    if (tenants_.size() > 1) {
      // p90: the rarest tenant gets too few requests in one run for a p99
      // with ten samples beyond it.
      for (size_t t = 0; t < tenants_.size(); ++t) {
        report->AddPercentile(
            TenantMetricPrefix(tenants_[t].key) + ".latency_ms_p90",
            load.tenant_latency_ms[t], 90, "ms");
      }
    }
    pass.spans = std::move(load.spans);
    return pass;
  }

  void Teardown() override {
    fleet_.reset();  // Drains and joins the dispatcher shards.
    tenants_.clear();
    warm_batches_.clear();
  }

 private:
  // Dispatcher threads have their own buffer pools and first-use costs:
  // send every batch size through the fleet once, for every tenant at once.
  void WarmDispatchers() {
    for (int64_t rows = 1; rows <= config_.queue.max_batch_size; ++rows) {
      std::vector<std::future<Result<serve::Forecast>>> futures;
      for (const TenantTraffic& tenant : tenants_) {
        for (int64_t r = 0; r < rows; ++r) {
          futures.push_back(fleet_->Submit(tenant.key, tenant.pool[0]));
        }
      }
      for (auto& future : futures) {
        const Result<serve::Forecast> out = future.get();
        CONFORMER_CHECK(out.ok()) << out.status().ToString();
      }
    }
  }

  const ServeConfig config_;
  uint64_t seed_ = 0;
  std::unique_ptr<serve::FleetServer> fleet_;
  std::vector<TenantTraffic> tenants_;
  std::vector<std::vector<data::Batch>> warm_batches_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  const ServeTenant conformer{"conformer", 24, 1, 64, 0};
  if (name == "train_conformer") return std::make_unique<TrainWorkload>();
  if (name == "serve_steady") {
    // ~1/3 of what batch-1 plan replay sustains: batches stay at 1-2, so
    // latency is replay + coalescing delay + dispatch.
    return std::make_unique<ServeWorkload>(ServeConfig{
        .tenants = {conformer},
        .static_plan = true,
        .queue = {.max_batch_size = 8,
                  .max_queue_delay_us = 1000,
                  .max_queue_depth = 256},
        .shape = {.closed_loop = false, .rate_per_s = 200.0}});
  }
  if (name == "serve_saturated") {
    // Twice max_batch_size requests always in flight: full batch-8
    // batches back to back, so goodput is the batch-8 capacity, and the
    // queue never refuses one.
    return std::make_unique<ServeWorkload>(ServeConfig{
        .tenants = {conformer},
        .static_plan = true,
        .queue = {.max_batch_size = 8,
                  .max_queue_delay_us = 1000,
                  .max_queue_depth = 64},
        .shape = {.closed_loop = true, .outstanding = 16}});
  }
  if (name == "fleet_mix") {
    // Six eager tenants (SessionConfig defaults) behind two dispatcher
    // shards; one request in four carries four series.
    std::vector<ServeTenant> tenants;
    for (const FleetTenant& t : FleetTenants()) {
      tenants.push_back({t.model, t.horizon, t.mix, 12, 4});
    }
    return std::make_unique<ServeWorkload>(ServeConfig{
        .tenants = std::move(tenants),
        .static_plan = false,
        .queue = {.max_batch_size = 8,
                  .max_queue_delay_us = 1000,
                  .max_queue_depth = 256},
        .shape = {.closed_loop = false, .rate_per_s = 100.0}});
  }
  return nullptr;
}

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool traced = false;
  std::string trace_out;
};

// The tails go in the report but not in BENCHMARK.json's end-to-end set:
// host stalls move them by more than any bound could absorb.
void AddPassMetrics(const Pass& pass, Report* report) {
  report->AddPercentile("latency_ms_p50", pass.latency_ms, 50, "ms");
  report->AddPercentile("latency_ms_p90", pass.latency_ms, 90, "ms");
  report->AddPercentile("latency_ms_p99", pass.latency_ms, 99, "ms");
  report->Add("goodput_series_per_s", pass.goodput_series_per_s, "series/s");
}

// The generator's lateness; past kMaxLagMs the load was not the one the
// workload specifies, so the run is marked invalid.
void AddLag(const Pass& pass, Report* report) {
  report->AddPercentile("loadgen.lag_ms_p99", pass.lag_ms, 99, "ms");
  const Metric* lag = report->Find("loadgen.lag_ms_p99");
  if (lag->valid && lag->value > kMaxLagMs) {
    report->Invalidate("load generator lag p99 " + std::to_string(lag->value) +
                       " ms exceeds " + std::to_string(kMaxLagMs) + " ms");
  }
}

int Run(const Options& options) {
  // Set-up, training and the probes run on the first server CPU.
  PinCurrentThread(Cpus().server.empty() ? -1 : Cpus().server[0]);
  ThreadPool::Global().SetNumThreads(kKernelThreads);
  vec::SetSimdLevel(vec::DetectedSimdLevel());
  prof::Profiler& profiler = prof::Profiler::Global();
  profiler.Disable();

  std::unique_ptr<Workload> workload = MakeWorkload(options.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  Report report;
  Pass pass;
  if (!options.traced) {
    std::vector<double> setup_s;
    for (int r = 0; r < kSetupRepeats; ++r) {
      workload->Teardown();
      const int64_t start = NowNs();
      workload->Setup(options.seed);
      setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    }
    pass = workload->Measure(options.seconds, /*traced=*/false, &report);
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("peak_rss_mib", PeakRssMib(), "MiB");
    AddPassMetrics(pass, &report);
    AddLag(pass, &report);
  } else {
    workload->Setup(options.seed);
    // A short untraced pass is the baseline for the tracing overhead; the
    // traced pass gets the full time so its tails have samples.
    Report untraced_report;
    const Pass untraced =
        workload->Measure(options.seconds / 4, false, &untraced_report);
    profiler.Reset();
    profiler.Enable();
    pass = workload->Measure(options.seconds, /*traced=*/true, &report);
    profiler.Disable();
    workload->Teardown();
    report.Add("trace.overhead_share",
               Median(pass.latency_ms) / Median(untraced.latency_ms) - 1.0,
               "fraction");
    AddLag(pass, &report);

    // Every traced run reports the training-step layer table; workloads
    // that do not train take the phase times from the probe's steps.
    const std::vector<StepTiming> probe_steps =
        RunTrainProbe(options.seed, &report);
    if (report.Find("train.forward_ms") == nullptr) {
      AddTrainPhaseMetrics(probe_steps, &report);
    }
    RunComponentProbes(options.seed, &report);
    RunRuntimeProbes(options.seed, &report);
    RunFleetModelProbes(options.seed, &report);
    report.AddCheck("trace_written",
                    WriteChromeTrace(options.trace_out, pass.spans,
                                     kMaxTraceEvents),
                    options.trace_out);
  }
  report.SetCounts(pass.attempted, pass.failed);
  std::printf("%s\n", report.ToJson(options.workload, options.seed,
                                    options.seconds, options.traced)
                          .c_str());
  std::fflush(stdout);
  return report.checks_passed() ? 0 : 1;
}

int Usage(const char* problem) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload <train_conformer|"
               "serve_steady|serve_saturated|fleet_mix> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               problem);
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0 &&
                             options.seconds <= 600.0)) {
        return Usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      options.traced = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty() || !have_seed || options.seconds <= 0.0 ||
      !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (options.trace_out.empty()) {
    options.trace_out = "bench_e2e_trace_" + options.workload + ".json";
  }
  return Run(options);
}

}  // namespace
}  // namespace conformer::bench_e2e

int main(int argc, char** argv) {
  return conformer::bench_e2e::Main(argc, argv);
}
