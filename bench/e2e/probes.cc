#include "bench/e2e/probes.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include "attention/multi_head_attention.h"
#include "bench/e2e/stats.h"
#include "core/input_representation.h"
#include "core/sirn.h"
#include "flow/normalizing_flow.h"
#include "nn/conv1d.h"
#include "nn/gru.h"
#include "runtime/static_runtime.h"
#include "serve/inference_session.h"
#include "util/logging.h"

namespace conformer::bench_e2e {

namespace {

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-6;
}

// Times `forward` and, when `bwd_name` is set, the backward pass of a fixed
// random projection of its output (so every output element gets a
// gradient).
void ProbeModule(const std::string& fwd_name, const std::string& bwd_name,
                 const std::function<Tensor()>& forward, Report* report) {
  Rng rng(1);
  Tensor projection;
  std::vector<double> fwd_ms, bwd_ms;
  for (int rep = -1; rep < kProbeReps; ++rep) {
    int64_t start = NowNs();
    Tensor out = forward();
    const double fwd = MsSince(start);
    double bwd = 0.0;
    if (!bwd_name.empty()) {
      if (!projection.defined()) projection = Tensor::Randn(out.shape(), &rng);
      Tensor loss = Sum(Mul(out, projection));
      start = NowNs();
      loss.Backward();
      bwd = MsSince(start);
    }
    if (rep < 0) continue;  // Warm-up.
    fwd_ms.push_back(fwd);
    bwd_ms.push_back(bwd);
  }
  report->Add(fwd_name, Median(fwd_ms), "ms");
  if (!bwd_name.empty()) report->Add(bwd_name, Median(bwd_ms), "ms");
}

// Replay time per step kind. OnStep fires after each step, so a step's
// time is the gap since the previous callback (or since Start()).
class StepKindTimer : public runtime::StepObserver {
 public:
  enum Kind { kOpaque, kMatMul, kOther, kNumKinds };

  explicit StepKindTimer(const runtime::Plan& plan) {
    for (const runtime::PlanStep& step : plan.steps()) {
      kinds_.push_back(step.chain.empty() ? kOpaque
                       : step.op_name.find("MatMul") != std::string::npos
                           ? kMatMul
                           : kOther);
    }
  }

  void Start() {
    std::memset(ns_, 0, sizeof(ns_));
    last_ns_ = NowNs();
  }

  void OnStep(int step_index, const float*, int64_t) override {
    const int64_t now = NowNs();
    ns_[kinds_[step_index]] += now - last_ns_;
    last_ns_ = now;
  }

  double ms(Kind kind) const { return static_cast<double>(ns_[kind]) * 1e-6; }

 private:
  std::vector<Kind> kinds_;
  int64_t ns_[kNumKinds] = {};
  int64_t last_ns_ = 0;
};

}  // namespace

const std::vector<FleetTenant>& FleetTenants() {
  static const std::vector<FleetTenant> tenants = {
      {"linear", 24, 4}, {"nbeats", 24, 2},   {"gru", 48, 2},
      {"lstnet", 24, 1}, {"timesnet", 24, 1}, {"informer", 48, 1},
  };
  return tenants;
}

data::WindowConfig FleetWindow(int64_t horizon) {
  data::WindowConfig window = TrainWindow();
  window.pred_len = horizon;
  return window;
}

std::string TenantMetricPrefix(const std::string& key) {
  std::string name = key;
  std::replace(name.begin(), name.end(), '@', '-');
  return "fleet." + name;
}

void AddTrainPhaseMetrics(const std::vector<StepTiming>& steps,
                          Report* report) {
  const struct {
    const char* name;
    int64_t StepTiming::*field;
  } phases[] = {
      {"train.data_ms", &StepTiming::data_ns},
      {"train.forward_ms", &StepTiming::forward_ns},
      {"train.backward_ms", &StepTiming::backward_ns},
      {"train.clip_ms", &StepTiming::clip_ns},
      {"train.optimizer_ms", &StepTiming::optimizer_ns},
  };
  for (const auto& phase : phases) {
    std::vector<double> ms;
    for (const StepTiming& s : steps) {
      ms.push_back(static_cast<double>(s.*phase.field) * 1e-6);
    }
    report->Add(phase.name, Median(ms), "ms");
  }
}

std::vector<StepTiming> RunTrainProbe(uint64_t seed, Report* report) {
  TrainLoop loop(seed);
  loop.Step();  // Warm-up.
  prof::Profiler& profiler = prof::Profiler::Global();
  std::vector<StepTiming> steps;
  const int64_t start_ns = NowNs();
  profiler.Enable();
  for (int i = 0; i < kTrainProbeSteps; ++i) steps.push_back(loop.Step());
  profiler.Disable();
  const int64_t end_ns = NowNs();

  int64_t ops = 0, bwd_nodes = 0, bwd_slices = 0, gemms = 0;
  for (const prof::Event& e : prof::Profiler::Global().Snapshot()) {
    if (e.start_ns < start_ns || e.start_ns > end_ns) continue;
    const std::string_view cat = e.cat;
    const std::string_view name = e.name;
    ops += cat == "op";
    bwd_nodes += cat == "bwd";
    bwd_slices += cat == "bwd" && name == "Slice";
    gemms += cat == "kernel" && name == "Gemm";
  }
  const double n = static_cast<double>(steps.size());
  report->Add("tensor.ops_per_step", static_cast<double>(ops) / n, "count");
  report->Add("autograd.bwd_nodes_per_step",
              static_cast<double>(bwd_nodes) / n, "count");
  report->Add("autograd.bwd_slice_per_step",
              static_cast<double>(bwd_slices) / n, "count");
  report->Add("tensor.gemm_calls_per_step", static_cast<double>(gemms) / n,
              "count");
  return steps;
}

void RunComponentProbes(uint64_t seed, Report* report) {
  SeedGlobalRng(seed);
  Rng rng(seed);
  const int64_t d = BenchHyperParams().d_model;
  const int64_t len = TrainWindow().input_len;
  const auto hidden_input = [&](Shape shape) {
    Tensor x = Tensor::Randn(shape, &rng);
    x.set_requires_grad(true);
    return x;
  };

  // One encoder SIRN layer, as the Conformer stacks it.
  core::SirnConfig sirn_config;
  sirn_config.d_model = d;
  sirn_config.n_heads = BenchHyperParams().n_heads;
  sirn_config.ma_kernel = BenchHyperParams().ma_kernel;
  core::Sirn sirn(sirn_config);
  const Tensor x = hidden_input({kTrainBatch, len, d});
  ProbeModule("core.sirn.fwd_ms", "core.sirn.bwd_ms",
              [&] { return sirn.Forward(x).sequence; }, report);

  nn::Gru gru(d, d, /*num_layers=*/1);
  ProbeModule("nn.gru.fwd_ms", "nn.gru.bwd_ms",
              [&] { return gru.Forward(x).output; }, report);

  // SIRN's seasonal convolution over channels-first activations.
  nn::Conv1dLayer conv(d, d, /*kernel=*/3, /*padding=*/1, PadMode::kReplicate);
  const Tensor channels_first = hidden_input({kTrainBatch, d, len});
  ProbeModule("nn.conv1d.fwd_ms", "nn.conv1d.bwd_ms",
              [&] { return conv.Forward(channels_first); }, report);

  attention::AttentionConfig attn_config;
  attention::MultiHeadAttention window_attention(
      d, BenchHyperParams().n_heads, attention::AttentionKind::kSlidingWindow,
      attn_config);
  ProbeModule("attention.sliding_window.fwd_ms",
              "attention.sliding_window.bwd_ms",
              [&] { return window_attention.Forward(x); }, report);

  // The encoder's input representation on a real batch of the series.
  const data::TimeSeries series = MakeBenchSeries(seed);
  const data::DatasetSplits splits = data::MakeSplits(series, TrainWindow());
  const data::Batch batch = splits.train.GetRange(0, kTrainBatch);
  core::InputRepresentationConfig input_config;
  input_config.dims = series.dims();
  input_config.length = len;
  input_config.d_model = d;
  core::InputRepresentation input(input_config);
  ProbeModule("core.input_representation.fwd_ms",
              "core.input_representation.bwd_ms",
              [&] { return input.Forward(batch.x, batch.x_mark); }, report);
  ProbeModule("fft.multivariate_weights_ms", "",
              [&] { return input.MultivariateWeights(batch.x); }, report);

  flow::NormalizingFlow flow(d, /*num_transforms=*/2);
  const Tensor h_e = hidden_input({kTrainBatch, d});
  const Tensor h_d = hidden_input({kTrainBatch, d});
  Rng flow_rng(seed);
  ProbeModule(
      "flow.fwd_ms", "flow.bwd_ms",
      [&] { return flow.Forward(h_e, h_d, /*sample=*/true, &flow_rng); },
      report);
}

void RunRuntimeProbes(uint64_t seed, Report* report) {
  SeedGlobalRng(seed);
  const data::TimeSeries series = MakeBenchSeries(seed);
  const data::DatasetSplits splits = data::MakeSplits(series, TrainWindow());
  Result<std::unique_ptr<models::Forecaster>> built = models::MakeForecaster(
      "conformer", TrainWindow(), series.dims(), BenchHyperParams());
  CONFORMER_CHECK(built.ok()) << built.status().ToString();
  std::unique_ptr<models::Forecaster> model = std::move(built).value();
  model->SetTraining(false);
  const auto predict = [&](const data::Batch& b) { return model->Predict(b); };

  for (const int64_t rows : {int64_t{1}, int64_t{8}}) {
    const data::Batch batch = splits.test.GetRange(0, rows);
    Result<runtime::TraceResult> traced =
        runtime::CapturePredictPlan(predict, batch);
    CONFORMER_CHECK(traced.ok()) << traced.status().ToString();
    runtime::PlanExecutor executor(traced.value().plan);
    const runtime::Plan& plan = executor.plan();
    const std::string b = ".b" + std::to_string(rows);
    report->Add("runtime.plan_steps" + b,
                static_cast<double>(plan.steps().size()), "count");

    std::vector<double> replay_ms;
    for (int rep = -1; rep < kProbeReps; ++rep) {
      const int64_t start = NowNs();
      executor.Run(batch);
      if (rep >= 0) replay_ms.push_back(MsSince(start));
    }
    report->Add("runtime.replay_ms" + b, Median(replay_ms), "ms");
    if (rows != 8) continue;

    report->Add("runtime.arena_kib.b8",
                static_cast<double>(plan.arena_numel()) * sizeof(float) /
                    1024.0,
                "KiB");
    StepKindTimer timer(plan);
    std::vector<double> kind_ms[StepKindTimer::kNumKinds];
    for (int rep = -1; rep < kProbeReps; ++rep) {
      timer.Start();
      executor.Run(batch, &timer);
      if (rep < 0) continue;
      for (int k = 0; k < StepKindTimer::kNumKinds; ++k) {
        kind_ms[k].push_back(timer.ms(static_cast<StepKindTimer::Kind>(k)));
      }
    }
    report->Add("runtime.replay_ms.b8.opaque",
                Median(kind_ms[StepKindTimer::kOpaque]), "ms");
    report->Add("runtime.replay_ms.b8.matmul",
                Median(kind_ms[StepKindTimer::kMatMul]), "ms");
    report->Add("runtime.replay_ms.b8.other",
                Median(kind_ms[StepKindTimer::kOther]), "ms");
  }
}

void RunFleetModelProbes(uint64_t seed, Report* report) {
  SeedGlobalRng(seed);
  const data::TimeSeries series = MakeBenchSeries(seed);
  for (const FleetTenant& tenant : FleetTenants()) {
    serve::SessionConfig config;
    config.model_name = tenant.model;
    config.window = FleetWindow(tenant.horizon);
    config.dims = series.dims();
    config.hyper = BenchHyperParams();
    Result<std::unique_ptr<serve::InferenceSession>> session =
        serve::InferenceSession::Open(config, "");
    CONFORMER_CHECK(session.ok()) << session.status().ToString();
    const data::Batch batch =
        data::MakeSplits(series, config.window).test.GetRange(0, 1);
    // Eager Predict speed depends on what the thread's activation-buffer
    // pool already holds; start every model from an empty pool.
    ClearBufferPool();
    std::vector<double> ms;
    for (int rep = -1; rep < kProbeReps; ++rep) {
      const int64_t start = NowNs();
      session.value()->Predict(batch);
      if (rep >= 0) ms.push_back(MsSince(start));
    }
    report->Add(TenantMetricPrefix(std::string(tenant.model) + "@" +
                                   std::to_string(tenant.horizon)) +
                    ".predict_ms_b1",
                Median(ms), "ms");
  }
}

}  // namespace conformer::bench_e2e
