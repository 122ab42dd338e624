// Static-runtime suite (docs/STATIC_RUNTIME.md): differential parity of the
// AOT-planned replay against the eager Predict path. Every registry model is
// traced, planned, and replayed — cold and warm, at 1 and 8 threads —
// with bitwise comparison per node (VerifyParity) and at the output boundary,
// or its trace fails naming the composite whose host logic no step list can
// replay, and its session serves eagerly. A warm replay allocates only its
// output. Also covered: the seeded randomized-geometry fuzz pass, the
// injected-mismatch drill for the per-node checker, arena offset/liveness
// overlap invariants, interleaved eager/replay runs, untraceable-op
// fallback, the InferenceSession plan cache, and concurrent replay through a
// fleet shard (tsan label).

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <future>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "baselines/registry.h"
#include "data/dataset_registry.h"
#include "runtime/static_runtime.h"
#include "serve/fleet_server.h"
#include "tensor/alloc_stats.h"
#include "util/metrics.h"
#include "util/profiler.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace conformer::runtime {
namespace {

data::WindowConfig TestWindow() {
  return {.input_len = 24, .label_len = 8, .pred_len = 8};
}

data::DatasetSplits MakeTestSplits() {
  data::TimeSeries series = data::MakeDataset("etth1", 0.05).value();
  return data::MakeSplits(series, TestWindow());
}

void ExpectTensorsBitwiseEqual(const Tensor& a, const Tensor& b,
                               const std::string& what) {
  ASSERT_TRUE(a.defined() && b.defined()) << what;
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)), 0)
      << what << " differs";
}

bool TensorsBitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.defined() && b.defined() && a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

// Restores the global kernel pool size when a test returns or fails.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(ThreadPool::Global().num_threads()) {}
  ~ThreadCountGuard() { ThreadPool::Global().SetNumThreads(saved_); }

 private:
  int64_t saved_;
};

std::function<Tensor(const data::Batch&)> BindPredict(
    const models::Forecaster& model) {
  return [&model](const data::Batch& b) { return model.Predict(b); };
}

// A trace may fail only because a composite with data-dependent host logic
// ran: Unimplemented, naming that composite.
bool FailedOnHostLogic(const Status& status) {
  if (status.code() != StatusCode::kUnimplemented) return false;
  for (const char* composite :
       {"ProbSparseAttention", "LshAttention", "AutoCorrelationAttention",
        "TimesNetLite"}) {
    if (status.message().find(composite) != std::string::npos) return true;
  }
  return false;
}

// -- Differential parity: every registry model, 1 and 8 threads ------------

TEST(StaticRuntimeTest, AllModelsReplayBitwiseIdenticalAtOneAndEightThreads) {
  ThreadCountGuard thread_guard;
  data::DatasetSplits splits = MakeTestSplits();
  const data::Batch batch = splits.test.GetRange(0, 3);

  for (int64_t threads : {int64_t{1}, int64_t{8}}) {
    ThreadPool::Global().SetNumThreads(threads);
    for (const std::string& name : models::AvailableModels()) {
      const std::string tag =
          name + " @" + std::to_string(threads) + " threads";
      auto model =
          models::MakeForecaster(name, TestWindow(), splits.test.dims())
              .value();
      model->SetTraining(false);
      const Tensor eager = model->Predict(batch);

      Result<TraceResult> traced = CapturePredictPlan(BindPredict(*model),
                                                      batch);
      if (!traced.ok()) {
        // Host-logic models serve eagerly; AllModelsPlanOrFailNamingHostLogic
        // covers their sessions.
        EXPECT_TRUE(FailedOnHostLogic(traced.status()))
            << tag << ": " << traced.status().ToString();
        continue;
      }
      // The traced call's own output answers the request that built the plan.
      ExpectTensorsBitwiseEqual(eager, traced.value().output,
                                tag + " traced output");

      PlanExecutor executor(traced.value().plan);
      ASSERT_TRUE(executor.GeometryMatches(batch)) << tag;
      const Tensor cold = executor.Run(batch);
      ExpectTensorsBitwiseEqual(eager, cold, tag + " cold replay");

      // Warm replay under the per-node checker: every planned step must
      // reproduce its eager node value bitwise, not just the boundary.
      ParityReport report = VerifyParity(executor, BindPredict(*model), batch);
      EXPECT_TRUE(report.structural_ok)
          << tag << ": " << report.structural_error;
      EXPECT_TRUE(report.mismatches.empty())
          << tag << ": first mismatch at step "
          << report.mismatches[0].step_index << " ("
          << report.mismatches[0].op_name << ")";
    }
  }
}

// -- One kind of plan step: every model plans, or fails naming host logic --

TEST(StaticRuntimeTest, AllModelsPlanOrFailNamingHostLogic) {
  data::DatasetSplits splits = MakeTestSplits();
  const data::Batch batch = splits.test.GetRange(0, 3);
  const data::Batch other = splits.test.GetRange(40, 3);
  for (const std::string& name : models::AvailableModels()) {
    serve::SessionConfig config;
    config.model_name = name;
    config.window = TestWindow();
    config.dims = splits.test.dims();
    config.use_static_plan = true;
    auto session = serve::InferenceSession::Open(config, "");
    ASSERT_TRUE(session.ok()) << name;
    const models::Forecaster& model = session.value()->model();
    const Tensor eager = model.Predict(batch);

    Result<TraceResult> traced = CapturePredictPlan(BindPredict(model), batch);
    if (traced.ok()) {
      // Every step is a closure over arena pointers, so a warm replay
      // allocates only the returned output.
      PlanExecutor executor(traced.value().plan);
      (void)executor.Run(batch);
      ResetAllocPeak();
      const Tensor warm = executor.Run(batch);
      EXPECT_EQ(GetAllocStats().total_allocs, 1) << name;
      ExpectTensorsBitwiseEqual(eager, warm, name + " warm replay");
    } else {
      EXPECT_NE(name, "conformer") << traced.status().ToString();
      EXPECT_TRUE(FailedOnHostLogic(traced.status()))
          << name << ": " << traced.status().ToString();
    }

    // Either way the session answers bitwise equal to the model: from the
    // plan when it built, eagerly from a null-executor entry when not. The
    // second batch has the same geometry and other values, so a plan that
    // froze a data-dependent choice at trace time would diverge on it.
    ExpectTensorsBitwiseEqual(eager, session.value()->Predict(batch).point,
                              name + " session, traced batch");
    ExpectTensorsBitwiseEqual(model.Predict(other),
                              session.value()->Predict(other).point,
                              name + " session, other batch");
    EXPECT_EQ(session.value()->plan_for(batch) != nullptr, traced.ok())
        << name;
  }
}

// Ops recorded by the profiler while `fn` runs.
int64_t OpsDuring(const std::function<void()>& fn) {
  prof::Profiler& profiler = prof::Profiler::Global();
  profiler.Reset();
  profiler.Enable();
  fn();
  profiler.Disable();
  int64_t ops = 0;
  for (const prof::Event& e : profiler.Snapshot()) {
    ops += std::string_view(e.cat) == "op";
  }
  profiler.Reset();
  return ops;
}

// A session's first request at a geometry traces the eager forward and
// answers with its output, whether or not the plan builds: the forward runs
// once (a second forward would double the op count), and the forecast is
// the model's own. A model whose trace fails must record ops, so the count
// can tell one forward from two.
TEST(StaticRuntimeSessionTest, FirstRequestAtANewGeometryRunsOneForward) {
  data::DatasetSplits splits = MakeTestSplits();
  const data::Batch batch = splits.test.GetRange(0, 3);
  for (const std::string& name : models::AvailableModels()) {
    serve::SessionConfig config;
    config.model_name = name;
    config.window = TestWindow();
    config.dims = splits.test.dims();
    config.use_static_plan = true;
    auto session = serve::InferenceSession::Open(config, "");
    ASSERT_TRUE(session.ok()) << name;
    Tensor eager;
    const int64_t forward_ops =
        OpsDuring([&] { eager = session.value()->model().Predict(batch); });
    serve::Forecast first;
    const int64_t first_ops =
        OpsDuring([&] { first = session.value()->Predict(batch); });
    if (session.value()->plan_for(batch) == nullptr) {
      EXPECT_GT(forward_ops, 0) << name;
    }
    EXPECT_EQ(first_ops, forward_ops) << name;
    ExpectTensorsBitwiseEqual(eager, first.point, name + " first request");
  }
}

TEST(StaticRuntimeTest, ConformerPerNodeParityAtBatchOneAndEight) {
  ThreadCountGuard thread_guard;
  data::DatasetSplits splits = MakeTestSplits();
  auto model =
      models::MakeForecaster("conformer", TestWindow(), splits.test.dims())
          .value();
  model->SetTraining(false);
  for (int64_t threads : {int64_t{1}, int64_t{8}}) {
    ThreadPool::Global().SetNumThreads(threads);
    for (int64_t rows : {int64_t{1}, int64_t{8}}) {
      const std::string tag = "B=" + std::to_string(rows) + " @" +
                              std::to_string(threads) + " threads";
      const data::Batch batch = splits.test.GetRange(0, rows);
      Result<TraceResult> traced =
          CapturePredictPlan(BindPredict(*model), batch);
      ASSERT_TRUE(traced.ok()) << tag << ": " << traced.status().ToString();
      PlanExecutor executor(traced.value().plan);
      ParityReport report = VerifyParity(executor, BindPredict(*model), batch);
      EXPECT_TRUE(report.structural_ok)
          << tag << ": " << report.structural_error;
      EXPECT_TRUE(report.mismatches.empty())
          << tag << ": first mismatch at step "
          << report.mismatches[0].step_index << " ("
          << report.mismatches[0].op_name << ")";
    }
  }
}

// -- Seeded randomized-geometry fuzz ---------------------------------------

TEST(StaticRuntimeFuzzTest, RandomGeometriesReplayBitwiseIdentical) {
  // Deterministic: the seed fixes the (model, window, batch) sequence, so a
  // failure reproduces by rerunning the test.
  constexpr uint64_t kFuzzSeed = 20260808;
  constexpr int kIterations = 12;
  Rng rng(kFuzzSeed);

  const std::vector<std::string> names = models::AvailableModels();
  data::TimeSeries series = data::MakeDataset("etth1", 0.08).value();

  for (int iter = 0; iter < kIterations; ++iter) {
    const std::string& name =
        names[rng.UniformInt(static_cast<int64_t>(names.size()))];
    data::WindowConfig window;
    // 24..48 clears every registry model's shortest input window (LSTNet's
    // 7 is the longest) and straddles the default 25-step moving average.
    window.input_len = 24 + rng.UniformInt(25);            // 24..48
    window.pred_len = 4 + rng.UniformInt(13);              // 4..16
    window.label_len = 4 + rng.UniformInt(window.input_len - 3);
    const int64_t batch_size = 1 + rng.UniformInt(5);      // 1..5

    data::DatasetSplits splits = data::MakeSplits(series, window);
    const int64_t start = rng.UniformInt(splits.test.size() - batch_size);
    const data::Batch batch = splits.test.GetRange(start, batch_size);
    const std::string tag = "iter " + std::to_string(iter) + ": " + name +
                            " B=" + std::to_string(batch_size) + " I=" +
                            std::to_string(window.input_len) + " L=" +
                            std::to_string(window.label_len) + " P=" +
                            std::to_string(window.pred_len);

    auto model = models::MakeForecaster(name, window, splits.test.dims(),
                                        {.seed = kFuzzSeed + iter})
                     .value();
    model->SetTraining(false);
    const Tensor eager = model->Predict(batch);

    Result<TraceResult> traced = CapturePredictPlan(BindPredict(*model),
                                                    batch);
    if (!traced.ok()) {
      EXPECT_TRUE(FailedOnHostLogic(traced.status()))
          << tag << ": " << traced.status().ToString();
      continue;
    }
    PlanExecutor executor(traced.value().plan);
    ExpectTensorsBitwiseEqual(eager, traced.value().output, tag + " trace");
    ExpectTensorsBitwiseEqual(eager, executor.Run(batch), tag + " replay");
  }
}

// -- Injected mismatch must trip the per-node checker ----------------------

TEST(StaticRuntimeTest, InjectedCorruptionTripsPerNodeParity) {
  data::DatasetSplits splits = MakeTestSplits();
  const data::Batch batch = splits.test.GetRange(0, 2);
  auto model =
      models::MakeForecaster("gru", TestWindow(), splits.test.dims()).value();
  model->SetTraining(false);

  Result<TraceResult> traced = CapturePredictPlan(BindPredict(*model), batch);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  PlanExecutor executor(traced.value().plan);
  ASSERT_TRUE(VerifyParity(executor, BindPredict(*model), batch).ok());

  // Arm the fault on a mid-plan step: the checker must localize the first
  // divergence to exactly that step, not some downstream consumer.
  const int num_steps = static_cast<int>(executor.plan().steps().size());
  ASSERT_GT(num_steps, 2);
  const int target = num_steps / 2;
  // Plans are immutable in production; the test-only fault hook is the one
  // sanctioned mutation.
  Plan& plan = const_cast<Plan&>(executor.plan());
  plan.CorruptStepForTesting(target);

  ParityReport report = VerifyParity(executor, BindPredict(*model), batch);
  EXPECT_TRUE(report.structural_ok) << report.structural_error;
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.mismatches.empty());
  EXPECT_EQ(report.mismatches[0].step_index, target);
  EXPECT_EQ(report.mismatches[0].op_name,
            executor.plan().steps()[target].op_name);
  EXPECT_EQ(report.mismatches[0].flat_index, 0);

  plan.CorruptStepForTesting(-1);
  EXPECT_TRUE(VerifyParity(executor, BindPredict(*model), batch).ok());
}

// -- Arena plan invariants -------------------------------------------------

TEST(StaticRuntimeTest, PlannedOffsetsNeverAliasLiveRanges) {
  data::DatasetSplits splits = MakeTestSplits();
  const data::Batch batch = splits.test.GetRange(0, 3);
  auto model =
      models::MakeForecaster("conformer", TestWindow(), splits.test.dims())
          .value();
  model->SetTraining(false);

  Result<TraceResult> traced = CapturePredictPlan(BindPredict(*model), batch);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  const Plan& plan = *traced.value().plan;
  const std::vector<PlanSlot>& slots = plan.slots();

  int64_t planned_input_numel = 0;
  int64_t planned_activation_numel = 0;
  for (size_t i = 0; i < slots.size(); ++i) {
    const PlanSlot& a = slots[i];
    if (a.offset < 0) continue;
    EXPECT_EQ(a.offset % kArenaAlignFloats, 0) << "slot " << i;
    EXPECT_LE(a.offset + a.numel, plan.arena_numel()) << "slot " << i;
    if (a.kind == SlotKind::kInput) planned_input_numel += a.numel;
    if (a.kind == SlotKind::kActivation) planned_activation_numel += a.numel;

    // Two slots whose lifetimes overlap must occupy disjoint arena ranges.
    // Inputs are live from before step 0 (def_step -1) through last_use.
    for (size_t j = i + 1; j < slots.size(); ++j) {
      const PlanSlot& b = slots[j];
      if (b.offset < 0) continue;
      const bool lifetimes_overlap =
          !(a.last_use < b.def_step || b.last_use < a.def_step);
      if (!lifetimes_overlap) continue;
      const bool ranges_disjoint = a.offset + a.numel <= b.offset ||
                                   b.offset + b.numel <= a.offset;
      EXPECT_TRUE(ranges_disjoint)
          << "slots " << i << " and " << j << " alias: [" << a.offset << ", "
          << a.offset + a.numel << ") vs [" << b.offset << ", "
          << b.offset + b.numel << ") with overlapping lifetimes [" <<
          a.def_step << ", " << a.last_use << "] / [" << b.def_step << ", "
          << b.last_use << "]";
    }
  }

  // Liveness-based reuse must actually shrink the arena below the sum of
  // all activation buffers (conformer has hundreds of short-lived nodes).
  EXPECT_GT(plan.unshared_activation_numel(), 0);
  EXPECT_LT(plan.arena_numel() - planned_input_numel,
            plan.unshared_activation_numel());
  EXPECT_GT(planned_activation_numel, 0);
}

// -- Interleaved eager runs and plan replay ---------------------------------

TEST(StaticRuntimeTest, EagerAndPlanReplayDoNotInterfere) {
  data::DatasetSplits splits = MakeTestSplits();
  const data::Batch batch = splits.test.GetRange(0, 2);
  auto model =
      models::MakeForecaster("conformer", TestWindow(), splits.test.dims())
          .value();
  model->SetTraining(false);
  const Tensor reference = model->Predict(batch);

  // The plan's pinned constants and arena must not alias eager storage in
  // either direction: eager runs before, between and after replays agree
  // bitwise (and asan catches a scribble in the sanitizer job).
  NoGradGuard guard;
  (void)model->Predict(batch);
  Result<TraceResult> traced = CapturePredictPlan(BindPredict(*model), batch);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  PlanExecutor executor(traced.value().plan);
  ExpectTensorsBitwiseEqual(reference, executor.Run(batch), "replay");
  ExpectTensorsBitwiseEqual(reference, model->Predict(batch),
                            "eager after replay");
  ExpectTensorsBitwiseEqual(reference, executor.Run(batch),
                            "replay after eager");
}

// -- Untraceable ops fall back instead of freezing wrong values ------------

TEST(StaticRuntimeTest, UncapturedOpConsumedByTraceFailsTheBuild) {
  // A raw op result with no replay closure (stand-in for any future op
  // added without capture support): consuming its output must invalidate
  // the trace, not silently freeze the traced value into the plan.
  data::DatasetSplits splits = MakeTestSplits();
  const data::Batch batch = splits.test.GetRange(0, 1);

  auto predict = [](const data::Batch& b) {
    Tensor raw = internal::AttachOpResult(
        b.x.shape(),
        std::make_shared<Storage>(
            std::vector<float>(b.x.data(), b.x.data() + b.x.numel())),
        {b.x}, nullptr, "TestRawOp");
    return Add(raw, b.x);
  };
  Result<TraceResult> traced = CapturePredictPlan(predict, batch);
  ASSERT_FALSE(traced.ok());
  EXPECT_NE(traced.status().ToString().find("TestRawOp"), std::string::npos)
      << traced.status().ToString();
}

// -- InferenceSession plan cache -------------------------------------------

TEST(StaticRuntimeSessionTest, PlanCacheServesBitwiseIdenticalForecasts) {
  data::DatasetSplits splits = MakeTestSplits();
  serve::SessionConfig config;
  config.model_name = "conformer";
  config.window = TestWindow();
  config.dims = splits.test.dims();
  config.use_static_plan = true;
  auto session = serve::InferenceSession::Open(config, "");
  ASSERT_TRUE(session.ok());

  metrics::Registry& registry = metrics::Registry::Global();
  const int64_t builds_before =
      registry.GetCounter("serve.plan_builds").value();
  const int64_t hits_before = registry.GetCounter("serve.plan_hits").value();

  const data::Batch batch = splits.test.GetRange(0, 3);
  ASSERT_EQ(session.value()->plan_for(batch), nullptr);
  const Tensor first = session.value()->Predict(batch).point;   // trace
  ASSERT_NE(session.value()->plan_for(batch), nullptr);
  const Tensor second = session.value()->Predict(batch).point;  // replay
  const Tensor third = session.value()->Predict(batch).point;   // replay
  ExpectTensorsBitwiseEqual(first, second, "traced vs first replay");
  ExpectTensorsBitwiseEqual(first, third, "traced vs second replay");
  EXPECT_EQ(registry.GetCounter("serve.plan_builds").value() - builds_before,
            1);
  EXPECT_EQ(registry.GetCounter("serve.plan_hits").value() - hits_before, 2);

  // A new geometry misses the cache and compiles its own plan — never a
  // silent replay through the wrong-shape program.
  const data::Batch wider = splits.test.GetRange(0, 5);
  const Tensor wider_first = session.value()->Predict(wider).point;
  ASSERT_NE(session.value()->plan_for(wider), nullptr);
  EXPECT_NE(session.value()->plan_for(wider), session.value()->plan_for(batch));
  ExpectTensorsBitwiseEqual(wider_first, session.value()->Predict(wider).point,
                            "second geometry replay");
  EXPECT_EQ(registry.GetCounter("serve.plan_builds").value() - builds_before,
            2);
}

// -- Concurrent replay (tsan) ----------------------------------------------

TEST(StaticRuntimeTsanTest, ConcurrentExecutorsShareOnePlan) {
  data::DatasetSplits splits = MakeTestSplits();
  const data::Batch batch = splits.test.GetRange(0, 2);
  auto model =
      models::MakeForecaster("gru", TestWindow(), splits.test.dims()).value();
  model->SetTraining(false);
  const Tensor reference = model->Predict(batch);

  Result<TraceResult> traced = CapturePredictPlan(BindPredict(*model), batch);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  std::shared_ptr<const Plan> plan = traced.value().plan;

  // The Plan is immutable and shared; each thread owns its executor (arena).
  constexpr int kThreads = 4;
  constexpr int kRunsPerThread = 6;
  std::atomic<int> divergences{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      PlanExecutor executor(plan);
      for (int r = 0; r < kRunsPerThread; ++r) {
        if (!TensorsBitwiseEqual(reference, executor.Run(batch))) {
          divergences.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(divergences.load(), 0);
}

TEST(StaticRuntimeTsanTest, FleetDispatchesPlanReplayUnderLoad) {
  data::DatasetSplits splits = MakeTestSplits();
  serve::TenantSpec spec;
  spec.session.model_name = "gru";
  spec.session.window = TestWindow();
  spec.session.dims = splits.test.dims();
  spec.session.use_static_plan = true;
  spec.queue = {.max_batch_size = 4, .max_queue_delay_us = 2 * 1000};
  serve::FleetServer fleet({.num_dispatchers = 1});
  ASSERT_TRUE(fleet.AddTenant("gru@8", spec).ok());

  // Direct references first (these also populate the plan cache).
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 4;
  std::vector<Tensor> direct;
  for (int r = 0; r < kRequestsPerClient; ++r) {
    direct.push_back(
        fleet.session("gru@8")->Predict(splits.test.GetRange(r, 1)).point);
  }

  // Client threads submit concurrently; the fleet's one shard is the only
  // Predict caller, replaying the shared plan per micro-batch.
  std::atomic<int> divergences{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        Result<serve::Forecast> forecast =
            fleet.Submit("gru@8", splits.test.GetRange(r, 1)).get();
        if (!forecast.ok() ||
            !TensorsBitwiseEqual(direct[r], forecast.value().point)) {
          divergences.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  fleet.Shutdown();
  EXPECT_EQ(divergences.load(), 0);
}

}  // namespace
}  // namespace conformer::runtime
