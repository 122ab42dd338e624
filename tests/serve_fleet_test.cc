// Multi-tenant fleet suite (docs/SERVING.md, "The model fleet"). Proves the
// fleet's isolation contract:
//   (a) AddTenant enforces the tenant-key contract and rejects duplicates;
//       Submit against an unregistered key resolves NotFound, and the
//       serve.queue_depth gauge sums every tenant's queue,
//   (b) micro-batching stays transparent per tenant — a request served
//       through the fleet is bitwise identical to the tenant session's own
//       Predict — including tenants with different horizons,
//   (c) Reload of one tenant leaves every other tenant's outputs bitwise
//       unchanged,
//   (d) a scoped fault injection (CONFORMER_SERVE_FAULTS ... scope=<key>)
//       trips only the target tenant's circuit breaker while the others
//       keep serving bitwise-identical forecasts,
//   (e) Shutdown() drains every tenant's queue (no accepted request lost),
//   (f) concurrent clients across tenants are race-free (tsan label), and
//   (g) the open-loop load generator's report tallies add up, and
//   (h) out-of-range or NaN calendar marks serve as their clamped value.

#include <algorithm>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "serve/loadgen.h"
#include "serve_test_util.h"

namespace conformer::serve {
namespace {

// -- Tenant keys -------------------------------------------------------------

TEST(TenantKeyTest, MakeTenantKeyFollowsTheContract) {
  EXPECT_EQ(MakeTenantKey("conformer", 16), "conformer@16");
  EXPECT_TRUE(ValidateTenantKey(MakeTenantKey("linear", 96)).ok());
}

TEST(TenantKeyTest, ValidateKeyRejectsMalformedKeys) {
  EXPECT_TRUE(ValidateTenantKey("conformer@16").ok());
  EXPECT_TRUE(ValidateTenantKey("my-model_v2.1@720").ok());
  for (const std::string& bad : std::vector<std::string>{
           "", "conformer", "@16", "conformer@", "a@b@c", "con former@16",
           "conformer@16\n", std::string(70, 'a') + "@1"}) {
    EXPECT_EQ(ValidateTenantKey(bad).code(), StatusCode::kInvalidArgument)
        << "\"" << bad << "\" should be rejected";
  }
}

// -- Fleet routing ----------------------------------------------------------

TEST(FleetServerTest, SubmitToUnregisteredTenantResolvesNotFound) {
  data::DatasetSplits splits = MakeTestSplits();
  FleetServer fleet;
  Result<Forecast> result =
      fleet.Submit("ghost@8", splits.test.GetRange(0, 1)).get();
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(fleet.tenant_count(), 0);
}

TEST(FleetServerTest, SubmitRejectsRankZeroInput) {
  data::DatasetSplits splits = MakeTestSplits();
  FleetServer fleet;
  TenantSpec spec;
  spec.session = LinearConfig(splits.test.dims());
  ASSERT_TRUE(fleet.AddTenant("linear@8", spec).ok());
  data::Batch request;
  request.x = Tensor::Zeros({});
  Result<Forecast> result = fleet.Submit("linear@8", request).get();
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // The fleet still serves a well-formed request.
  EXPECT_TRUE(fleet.Submit("linear@8", splits.test.GetRange(0, 1)).get().ok());
}

TEST(FleetServerTest, AddTenantRejectsDuplicateAndMalformedKeys) {
  data::DatasetSplits splits = MakeTestSplits();
  FleetServer fleet;
  TenantSpec spec;
  spec.session = LinearConfig(splits.test.dims());
  ASSERT_TRUE(fleet.AddTenant("linear@8", spec).ok());
  EXPECT_EQ(fleet.AddTenant("linear@8", spec).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(fleet.AddTenant("not a key", spec).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.tenant_count(), 1);
  EXPECT_EQ(fleet.tenant_keys(), std::vector<std::string>{"linear@8"});
  EXPECT_NE(fleet.session("linear@8"), nullptr);
  EXPECT_EQ(fleet.session("other@8"), nullptr);
}

TEST(FleetServerTest, StampsTenantKeyAsFaultScope) {
  data::DatasetSplits splits = MakeTestSplits();
  FleetServer fleet;
  TenantSpec spec;
  spec.session = LinearConfig(splits.test.dims());
  ASSERT_TRUE(fleet.AddTenant("linear@8", spec).ok());
  EXPECT_EQ(fleet.session("linear@8")->config().fault_scope, "linear@8");
}

TEST(FleetServerTest, QueueDepthGaugeSumsEveryTenant) {
  data::DatasetSplits splits = MakeTestSplits();
  FleetServer fleet({.num_dispatchers = 2});
  TenantSpec spec;
  spec.session = LinearConfig(splits.test.dims());
  // Nothing ripens for ten seconds, so every request stays queued.
  spec.queue = {.max_batch_size = 64, .max_queue_delay_us = 10 * 1000 * 1000};
  ASSERT_TRUE(fleet.AddTenant("linear-a@8", spec).ok());
  ASSERT_TRUE(fleet.AddTenant("linear-b@8", spec).ok());

  GateGuard gate;
  const int64_t n = 3;
  const int64_t m = 2;
  std::vector<std::future<Result<Forecast>>> futures;
  for (int64_t r = 0; r < n; ++r) {
    futures.push_back(fleet.Submit("linear-a@8", splits.test.GetRange(r, 1)));
  }
  for (int64_t r = 0; r < m; ++r) {
    futures.push_back(fleet.Submit("linear-b@8", splits.test.GetRange(r, 1)));
  }
  metrics::Registry& registry = metrics::Registry::Global();
  EXPECT_EQ(registry.GetGauge("serve.queue_depth").value(),
            static_cast<double>(n + m));
  EXPECT_EQ(registry.GetGauge("serve.tenant.linear-a@8.queue_depth").value(),
            static_cast<double>(n));
  EXPECT_EQ(registry.GetGauge("serve.tenant.linear-b@8.queue_depth").value(),
            static_cast<double>(m));

  gate.Open();
  fleet.Shutdown();
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());
  EXPECT_EQ(registry.GetGauge("serve.queue_depth").value(), 0.0);
}

TEST(FleetServerTest, ServesMixedHorizonTenantsBatchTransparently) {
  data::DatasetSplits splits8 = MakeTestSplits(8);
  data::DatasetSplits splits16 = MakeTestSplits(16);

  FleetServer fleet({.num_dispatchers = 2});
  TenantSpec spec8;
  spec8.session = LinearConfig(splits8.test.dims(), 8);
  spec8.queue = {.max_batch_size = 4, .max_queue_delay_us = 200};
  TenantSpec spec16;
  spec16.session = LinearConfig(splits16.test.dims(), 16);
  // One eager tenant beside one plan-replay tenant (the default).
  spec16.session.use_static_plan = false;
  spec16.queue = {.max_batch_size = 4, .max_queue_delay_us = 200};
  ASSERT_TRUE(fleet.AddTenant("linear@8", spec8).ok());
  ASSERT_TRUE(fleet.AddTenant("linear@16", spec16).ok());
  EXPECT_EQ(fleet.tenant_keys(),
            (std::vector<std::string>{"linear@16", "linear@8"}));

  // Interleaved submits to both horizons; every response must be bitwise
  // identical to the tenant session's own unbatched Predict.
  const int64_t kRequests = 8;
  std::vector<std::future<Result<Forecast>>> f8, f16;
  for (int64_t r = 0; r < kRequests; ++r) {
    f8.push_back(fleet.Submit("linear@8", splits8.test.GetRange(r, 1)));
    f16.push_back(fleet.Submit("linear@16", splits16.test.GetRange(r, 1)));
  }
  for (int64_t r = 0; r < kRequests; ++r) {
    Result<Forecast> got8 = f8[r].get();
    Result<Forecast> got16 = f16[r].get();
    ASSERT_TRUE(got8.ok()) << got8.status().message();
    ASSERT_TRUE(got16.ok()) << got16.status().message();
    EXPECT_EQ(got8.value().point.size(1), 8);
    EXPECT_EQ(got16.value().point.size(1), 16);
    ExpectTensorsBitwiseEqual(
        got8.value().point,
        fleet.session("linear@8")->Predict(splits8.test.GetRange(r, 1)).point,
        "linear@8 request " + std::to_string(r));
    ExpectTensorsBitwiseEqual(
        got16.value().point,
        fleet.session("linear@16")
            ->Predict(splits16.test.GetRange(r, 1))
            .point,
        "linear@16 request " + std::to_string(r));
  }
}

// -- Out-of-range calendar marks ----------------------------------------------

// A calendar mark outside its [-0.5, 0.5] encoding decodes as the nearest
// in-range value would, and NaN as the lowest index: eagerly, when the plan
// is traced, and when it replays. The request passes Validate, so it must
// get a forecast, never abort the server.
TEST(FleetServerTest, OutOfRangeCalendarMarksServeAsTheirClampedValue) {
  data::DatasetSplits splits = MakeTestSplits(16);
  const data::Batch good = splits.test.GetRange(0, 1);
  // Every mark of the first time step, in both mark tensors, set to `value`.
  auto with_first_marks = [&good](float value) {
    data::Batch batch = good;
    for (Tensor* marks : {&batch.x_mark, &batch.y_mark}) {
      *marks = marks->Clone();
      std::fill(marks->data(), marks->data() + marks->size(2), value);
    }
    return batch;
  };
  const float kInf = std::numeric_limits<float>::infinity();
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  // {mark sent, the in-range mark it must serve as}
  const std::pair<float, float> cases[] = {
      {-0.6f, -0.5f}, {kNaN, -0.5f}, {kInf, 0.5f}};
  for (const bool plan : {false, true}) {
    FleetServer fleet;
    TenantSpec spec;
    spec.session.model_name = "conformer";
    spec.session.window = TestWindow(16);
    spec.session.dims = splits.test.dims();
    spec.session.use_static_plan = plan;
    ASSERT_TRUE(fleet.AddTenant("conformer@16", spec).ok());
    for (const auto& [sent, clamped] : cases) {
      const std::string tag = "mark " + std::to_string(sent) +
                              (plan ? " with the plan" : " eager");
      // With the plan, the first call traces and the second replays.
      for (int call = 0; call < 2; ++call) {
        Result<Forecast> got =
            fleet.Submit("conformer@16", with_first_marks(sent)).get();
        ASSERT_TRUE(got.ok()) << tag << ": " << got.status().message();
        Result<Forecast> want =
            fleet.Submit("conformer@16", with_first_marks(clamped)).get();
        ASSERT_TRUE(want.ok()) << tag << ": " << want.status().message();
        ExpectTensorsBitwiseEqual(got.value().point, want.value().point, tag);
      }
    }
    fleet.Shutdown();
  }
}

// -- Isolation --------------------------------------------------------------

TEST(FleetServerTest, ReloadTouchesOnlyTheTargetTenant) {
  data::DatasetSplits splits = MakeTestSplits();
  const std::string dir = MakeTempDir("reload");
  std::unique_ptr<models::Forecaster> trained =
      PublishTrainedLinear(splits, dir);
  const data::Batch probe = splits.test.GetRange(0, 1);

  FleetServer fleet;
  TenantSpec spec;
  spec.session = LinearConfig(splits.test.dims());
  spec.queue = {.max_batch_size = 4, .max_queue_delay_us = 0};
  ASSERT_TRUE(fleet.AddTenant("linear-a@8", spec).ok());
  ASSERT_TRUE(fleet.AddTenant("linear-b@8", spec).ok());

  const Tensor b_before =
      fleet.Submit("linear-b@8", probe).get().value().point;

  // Reload A from the trained checkpoint: A now serves the trained
  // parameters, B is bitwise where it was.
  ASSERT_TRUE(fleet.Reload("linear-a@8", dir).ok());
  EXPECT_EQ(fleet.Reload("ghost@8", dir).code(), StatusCode::kNotFound);

  const Tensor a_after =
      fleet.Submit("linear-a@8", probe).get().value().point;
  const Tensor b_after =
      fleet.Submit("linear-b@8", probe).get().value().point;
  ExpectTensorsBitwiseEqual(a_after, trained->Predict(probe),
                            "reloaded tenant vs trained reference");
  ExpectTensorsBitwiseEqual(b_after, b_before,
                            "untouched tenant across neighbour reload");
  std::filesystem::remove_all(dir);
}

TEST(FleetServerTest, ScopedFaultTripsOnlyTheTargetTenantsBreaker) {
  data::DatasetSplits splits = MakeTestSplits();
  const data::Batch probe = splits.test.GetRange(0, 1);

  FleetServer fleet({.num_dispatchers = 2});
  TenantSpec spec;
  spec.session = LinearConfig(splits.test.dims());
  spec.queue = {.max_batch_size = 4,
                .max_queue_delay_us = 0,
                .circuit_breaker_failures = 1};
  ASSERT_TRUE(fleet.AddTenant("linear-a@8", spec).ok());
  ASSERT_TRUE(fleet.AddTenant("linear-b@8", spec).ok());
  const Tensor a_baseline =
      fleet.Submit("linear-a@8", probe).get().value().point;
  const Tensor b_baseline =
      fleet.Submit("linear-b@8", probe).get().value().point;

  {
    // Every A Predict throws; B is out of scope and must not even be
    // counted by the injector.
    InjectorGuard injector({.throw_every = 1, .scope = "linear-a@8"});

    Result<Forecast> a_result = fleet.Submit("linear-a@8", probe).get();
    EXPECT_EQ(a_result.status().code(), StatusCode::kInternal);
    ASSERT_TRUE(WaitFor([&] { return fleet.circuit_open("linear-a@8"); }));
    EXPECT_FALSE(fleet.circuit_open("linear-b@8"));

    // A is breaker-rejected; B keeps serving bitwise-identical forecasts
    // with the injector still armed.
    EXPECT_EQ(fleet.Submit("linear-a@8", probe).get().status().code(),
              StatusCode::kUnavailable);
    Result<Forecast> b_result = fleet.Submit("linear-b@8", probe).get();
    ASSERT_TRUE(b_result.ok()) << b_result.status().message();
    ExpectTensorsBitwiseEqual(b_result.value().point, b_baseline,
                              "out-of-scope tenant under injected faults");
  }

  // Fault cleared: closing the breaker restores A.
  ASSERT_TRUE(fleet.ResetCircuitBreaker("linear-a@8").ok());
  EXPECT_EQ(fleet.ResetCircuitBreaker("ghost@8").code(),
            StatusCode::kNotFound);
  Result<Forecast> healed = fleet.Submit("linear-a@8", probe).get();
  ASSERT_TRUE(healed.ok()) << healed.status().message();
  ExpectTensorsBitwiseEqual(healed.value().point, a_baseline,
                            "healed tenant vs its pre-fault output");
}

// -- Shutdown ---------------------------------------------------------------

TEST(FleetServerTest, ShutdownDrainsEveryTenant) {
  data::DatasetSplits splits = MakeTestSplits();
  auto fleet = std::make_unique<FleetServer>(FleetConfig{.num_dispatchers = 2});
  TenantSpec spec;
  spec.session = LinearConfig(splits.test.dims());
  spec.queue = {.max_batch_size = 2, .max_queue_delay_us = 100000};
  ASSERT_TRUE(fleet->AddTenant("linear-a@8", spec).ok());
  ASSERT_TRUE(fleet->AddTenant("linear-b@8", spec).ok());

  // Hold the dispatchers at the model boundary while requests pile up, so
  // Shutdown() races a genuinely backlogged fleet.
  GateGuard gate;
  std::vector<std::future<Result<Forecast>>> futures;
  for (int64_t r = 0; r < 6; ++r) {
    futures.push_back(
        fleet->Submit(r % 2 == 0 ? "linear-a@8" : "linear-b@8",
                      splits.test.GetRange(r, 1)));
  }
  std::thread closer([&] { fleet->Shutdown(); });
  gate.Open();
  closer.join();

  for (auto& future : futures) {
    Result<Forecast> result = future.get();
    EXPECT_TRUE(result.ok()) << result.status().message();
  }
  EXPECT_EQ(fleet->Submit("linear-a@8", splits.test.GetRange(0, 1))
                .get()
                .status()
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(fleet->AddTenant("linear-c@8", spec).code(),
            StatusCode::kUnavailable);
  fleet.reset();  // Double-shutdown via the destructor must be a no-op.
}

// -- Concurrency (tsan) -----------------------------------------------------

TEST(FleetServerTest, ConcurrentMultiTenantSubmitIsRaceFree) {
  data::DatasetSplits splits = MakeTestSplits();
  const std::vector<std::string> keys = {"linear-a@8", "linear-b@8",
                                         "linear-c@8"};
  FleetServer fleet({.num_dispatchers = 3});
  TenantSpec spec;
  spec.session = LinearConfig(splits.test.dims());
  spec.queue = {.max_batch_size = 4, .max_queue_delay_us = 200};
  for (const std::string& key : keys) {
    ASSERT_TRUE(fleet.AddTenant(key, spec).ok());
  }
  // Freshly initialized models differ per instance, so references are
  // per-tenant: [tenant][row].
  std::vector<std::vector<Tensor>> reference(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    for (int64_t r = 0; r < 4; ++r) {
      reference[k].push_back(
          fleet.session(keys[k])->Predict(splits.test.GetRange(r, 1)).point);
    }
  }

  const int64_t kClients = 6;
  const int64_t kPerClient = 8;
  std::vector<std::thread> clients;
  for (int64_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<
          std::tuple<size_t, int64_t, std::future<Result<Forecast>>>>
          futures;
      for (int64_t r = 0; r < kPerClient; ++r) {
        const size_t tenant = static_cast<size_t>(c + r) % keys.size();
        const int64_t row = (c + r) % 4;
        futures.emplace_back(
            tenant, row,
            fleet.Submit(keys[tenant], splits.test.GetRange(row, 1)));
      }
      for (auto& [tenant, row, future] : futures) {
        Result<Forecast> result = future.get();
        ASSERT_TRUE(result.ok()) << result.status().message();
        ExpectTensorsBitwiseEqual(
            result.value().point, reference[tenant][row],
            "concurrent fleet " + keys[tenant] + " row " +
                std::to_string(row));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  fleet.Shutdown();
}

// -- Load generator ---------------------------------------------------------

TEST(LoadgenTest, OpenLoopReportTalliesAddUp) {
  data::DatasetSplits splits = MakeTestSplits();
  FleetServer fleet({.num_dispatchers = 2});
  TenantSpec spec;
  spec.session = LinearConfig(splits.test.dims());
  spec.queue = {.max_batch_size = 8, .max_queue_delay_us = 200};
  ASSERT_TRUE(fleet.AddTenant("linear-a@8", spec).ok());
  ASSERT_TRUE(fleet.AddTenant("linear-b@8", spec).ok());

  std::vector<TenantLoad> mix;
  mix.push_back({"linear-a@8", splits.test.GetRange(0, 1), 2.0});
  mix.push_back({"linear-b@8", splits.test.GetRange(1, 1), 1.0});
  LoadgenOptions options;
  options.offered_rps = 200.0;
  options.duration_seconds = 0.25;
  options.num_clients = 2;
  options.think_scale_us = 50.0;  // Exercise the heavy-tail path too.
  options.seed = 7;
  const LoadReport report = RunOpenLoop(fleet, mix, options);

  EXPECT_GE(report.wall_seconds, options.duration_seconds * 0.9);
  ASSERT_EQ(report.tenants.size(), 2u);
  int64_t issued = 0;
  for (const TenantLoadStats& tenant : report.tenants) {
    EXPECT_EQ(tenant.issued,
              tenant.ok + tenant.rejected + tenant.shed + tenant.failed)
        << tenant.key;
    issued += tenant.issued;
  }
  EXPECT_GT(issued, 0);
  EXPECT_GT(report.goodput_rps, 0.0);
  EXPECT_GT(report.achieved_rps, 0.0);
  // The 2:1 mix should actually skew traffic toward tenant a.
  EXPECT_GT(report.tenants[0].issued, report.tenants[1].issued);
  // A gentle load against a fast linear model delivers everything.
  for (const TenantLoadStats& tenant : report.tenants) {
    EXPECT_EQ(tenant.ok, tenant.issued) << tenant.key;
    EXPECT_GT(tenant.p50_ms, 0.0) << tenant.key;
    EXPECT_LE(tenant.p50_ms, tenant.p99_ms) << tenant.key;
  }

  // Empty/invalid option sets degrade to an empty report, not UB.
  EXPECT_EQ(RunOpenLoop(fleet, {}, options).tenants.size(), 0u);
  LoadgenOptions zero = options;
  zero.offered_rps = 0.0;
  EXPECT_EQ(RunOpenLoop(fleet, mix, zero).achieved_rps, 0.0);
}

}  // namespace
}  // namespace conformer::serve
