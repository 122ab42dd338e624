// Serving resilience chaos suite (docs/SERVING.md, "Overload & failure
// policy"). Proves the three containment properties of ISSUE 8 with
// injected faults:
//   (a) a throwing Predict fails only its own batch's futures and the queue
//       serves the next batch successfully (plus the consecutive-failure
//       circuit breaker),
//   (b) requests past their deadline are shed without running the model
//       while within-deadline requests stay bitwise identical to the
//       unloaded path (plus bounded admission),
//   (c) a corrupt / wrong-architecture / injected-mid-swap Reload() is
//       rejected with the old model's outputs bitwise unchanged, while a
//       valid reload swaps with zero failed in-flight requests under
//       concurrent client load.
// Also regression-covers the Shutdown() double-join race and graceful
// Submit()-after-Shutdown(). Labeled tsan+fault; CI runs it under tsan and
// asan at 8 threads.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "data/time_features.h"
#include "serve_test_util.h"

namespace conformer::serve {
namespace {

// The single-tenant deployment: one linear tenant on a one-shard fleet.
constexpr char kKey[] = "linear@8";

Status AddLinearTenant(FleetServer& fleet, const data::DatasetSplits& splits,
                       QueueConfig queue) {
  return fleet.AddTenant(kKey, LinearTenant(splits.test.dims(), queue));
}

Result<std::unique_ptr<InferenceSession>> OpenLinearSession(
    const data::DatasetSplits& splits) {
  return InferenceSession::Open(LinearConfig(splits.test.dims()), "");
}

// -- Fault injector --------------------------------------------------------

TEST(FaultInjectorTest, ParsesEnvStyleSpecs) {
  FaultInjector::Config config;
  ASSERT_TRUE(FaultInjector::ParseConfig(
      "throw_every=3,stall_us=250,stall_every=2,fail_reload=1", &config));
  EXPECT_EQ(config.throw_every, 3);
  EXPECT_EQ(config.stall_us, 250);
  EXPECT_EQ(config.stall_every, 2);
  EXPECT_TRUE(config.fail_reload);

  EXPECT_FALSE(FaultInjector::ParseConfig("bogus", &config));
  EXPECT_FALSE(FaultInjector::ParseConfig("throw_every=x", &config));
  EXPECT_FALSE(FaultInjector::ParseConfig("unknown_key=1", &config));
  EXPECT_FALSE(FaultInjector::ParseConfig("throw_every=-1", &config));
}

TEST(FaultInjectorTest, InjectsThrowsAndStallsIntoPredict) {
  data::DatasetSplits splits = MakeTestSplits();
  auto session = OpenLinearSession(splits);
  ASSERT_TRUE(session.ok());
  const data::Batch batch = splits.test.GetRange(0, 1);

  {
    InjectorGuard injector({.throw_every = 1});
    EXPECT_THROW(session.value()->Predict(batch), InjectedFault);
  }
  // Uninstalled: the hook is inert again.
  EXPECT_FALSE(FaultInjector::Enabled());
  (void)session.value()->Predict(batch);

  const int64_t stalls_before = CounterValue("serve.injected_stalls");
  {
    InjectorGuard injector({.stall_us = 1000, .stall_every = 1});
    (void)session.value()->Predict(batch);
  }
  EXPECT_EQ(CounterValue("serve.injected_stalls"), stalls_before + 1);
}

// -- Shutdown (satellites 1 + 2) -------------------------------------------

TEST(ShutdownTest, ConcurrentShutdownCallersAreSafe) {
  data::DatasetSplits splits = MakeTestSplits();

  // Repeat to give tsan / the double-join race a real chance to fire: both
  // threads used to observe a joinable dispatcher and join twice.
  for (int round = 0; round < 8; ++round) {
    FleetServer fleet({.num_dispatchers = 1});
    ASSERT_TRUE(AddLinearTenant(fleet, splits,
                              {.max_batch_size = 4,
                               .max_queue_delay_us = 500})
                  .ok());
    std::vector<std::future<Result<Forecast>>> futures;
    for (int64_t r = 0; r < 3; ++r) {
      futures.push_back(fleet.Submit(kKey, splits.test.GetRange(r, 1)));
    }
    std::vector<std::thread> closers;
    for (int t = 0; t < 4; ++t) {
      closers.emplace_back([&fleet] { fleet.Shutdown(); });
    }
    for (std::thread& t : closers) t.join();
    // Every pre-shutdown request completed (drain semantics).
    for (auto& f : futures) {
      Result<Forecast> result = f.get();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
    EXPECT_EQ(fleet.pending(kKey), 0);
  }
}

TEST(ShutdownTest, SubmitAfterShutdownRejectsGracefully) {
  data::DatasetSplits splits = MakeTestSplits();
  FleetServer fleet({.num_dispatchers = 1});
  ASSERT_TRUE(AddLinearTenant(fleet, splits,
                              {.max_batch_size = 4, .max_queue_delay_us = 0})
                  .ok());
  fleet.Shutdown();
  fleet.Shutdown();  // Idempotent.

  const int64_t rejected_before = CounterValue("serve.rejected");
  std::future<Result<Forecast>> future =
      fleet.Submit(kKey, splits.test.GetRange(0, 1));
  // Refused at admission: already resolved, nobody had to dispatch it.
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  Result<Forecast> result = future.get();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(CounterValue("serve.rejected"), rejected_before + 1);
}

// -- Admission (tentpole 1) ------------------------------------------------

TEST(AdmissionTest, MalformedRequestsRejectedNotCrashed) {
  data::DatasetSplits splits = MakeTestSplits();
  FleetServer fleet({.num_dispatchers = 1});
  ASSERT_TRUE(AddLinearTenant(fleet, splits,
                              {.max_batch_size = 4, .max_queue_delay_us = 0})
                  .ok());

  // Empty batch.
  EXPECT_EQ(fleet.Submit(kKey, data::Batch{}).get().status().code(),
            StatusCode::kInvalidArgument);

  // Wrong window geometry (input_len 12 != the session's 24).
  data::TimeSeries series = data::MakeDataset("etth1", 0.05).value();
  data::DatasetSplits short_splits = data::MakeSplits(
      series, {.input_len = 12, .label_len = 4, .pred_len = 4});
  EXPECT_EQ(fleet.Submit(kKey, short_splits.test.GetRange(0, 1))
                .get()
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // Admission pins the FULL Batch contract, not just x: a request with a
  // missing or mis-shaped x_mark / y / y_mark used to pass admission and
  // then CHECK-abort the whole process in Concat or the model forward.
  const data::Batch good = splits.test.GetRange(0, 1);
  const int64_t dims = splits.test.dims();
  const int64_t decoder_len = TestWindow().label_len + TestWindow().pred_len;
  const auto expect_rejected = [&](const data::Batch& bad) {
    std::future<Result<Forecast>> future = fleet.Submit(kKey, bad);
    // Refused at admission: resolved without touching the dispatcher.
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(future.get().status().code(), StatusCode::kInvalidArgument);
  };
  {
    data::Batch bad = good;
    bad.x_mark = Tensor();  // Undefined calendar features.
    expect_rejected(bad);
  }
  {
    data::Batch bad = good;
    bad.y = Tensor();  // Undefined decoder block.
    expect_rejected(bad);
  }
  {
    data::Batch bad = good;
    bad.y_mark = Tensor();
    expect_rejected(bad);
  }
  {
    data::Batch bad = good;  // Wrong calendar-feature width.
    bad.x_mark = Tensor::Zeros(
        {1, TestWindow().input_len, data::kNumTimeFeatures + 1});
    expect_rejected(bad);
  }
  {
    data::Batch bad = good;  // Decoder block missing the pred_len rows.
    bad.y = Tensor::Zeros({1, TestWindow().label_len, dims});
    expect_rejected(bad);
  }
  {
    data::Batch bad = good;  // Row count disagrees with x.
    bad.y_mark = Tensor::Zeros({2, decoder_len, data::kNumTimeFeatures});
    expect_rejected(bad);
  }

  // The queue survived every malformed request: a well-formed one serves.
  Result<Forecast> served = fleet.Submit(kKey, good).get();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
}

TEST(AdmissionTest, BoundedQueueRejectsOverCapacityImmediately) {
  data::DatasetSplits splits = MakeTestSplits();
  FleetServer fleet({.num_dispatchers = 1});
  ASSERT_TRUE(AddLinearTenant(fleet, splits,
                              {.max_batch_size = 1,
                               .max_queue_delay_us = 0,
                               .max_queue_depth = 2})
                  .ok());
  GateGuard gate;  // Blocks the dispatcher inside Predict.

  std::vector<std::future<Result<Forecast>>> accepted;
  accepted.push_back(fleet.Submit(kKey, splits.test.GetRange(0, 1)));
  // The dispatcher picks up the first request and blocks at the gate.
  ASSERT_TRUE(WaitFor([&] { return fleet.pending(kKey) == 0; }));
  accepted.push_back(fleet.Submit(kKey, splits.test.GetRange(1, 1)));
  accepted.push_back(fleet.Submit(kKey, splits.test.GetRange(2, 1)));
  ASSERT_EQ(fleet.pending(kKey), 2);

  const int64_t rejected_before = CounterValue("serve.rejected");
  std::future<Result<Forecast>> overflow =
      fleet.Submit(kKey, splits.test.GetRange(3, 1));
  ASSERT_EQ(overflow.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(overflow.get().status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(CounterValue("serve.rejected"), rejected_before + 1);

  gate.Open();
  for (auto& f : accepted) {
    Result<Forecast> result = f.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
}

// -- Deadlines (tentpole 1, acceptance b) ----------------------------------

TEST(DeadlineTest, ExpiredRequestsShedWithoutModelTime) {
  data::DatasetSplits splits = MakeTestSplits();
  FleetServer fleet({.num_dispatchers = 1});
  ASSERT_TRUE(AddLinearTenant(fleet, splits,
                              {.max_batch_size = 8, .max_queue_delay_us = 0})
                  .ok());
  const data::Batch batch_c = splits.test.GetRange(2, 1);
  const Tensor unloaded = fleet.session(kKey)->Predict(batch_c).point;
  GateGuard gate;

  std::future<Result<Forecast>> a =
      fleet.Submit(kKey, splits.test.GetRange(0, 1));
  ASSERT_TRUE(WaitFor([&] { return fleet.pending(kKey) == 0; }));

  // B's 1ms deadline lapses while the dispatcher is stuck serving A; C has
  // ten seconds of slack and must be untouched by the shedding around it.
  std::future<Result<Forecast>> b = fleet.Submit(
      kKey, splits.test.GetRange(1, 1), {.deadline_us = 1000});
  std::future<Result<Forecast>> c =
      fleet.Submit(kKey, batch_c, {.deadline_us = 10 * 1000 * 1000});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const int64_t predicts_before = CounterValue("serve.predicts");
  const int64_t shed_before = CounterValue("serve.shed_expired");
  const int64_t slack_before = metrics::Registry::Global()
                                   .GetHistogram("serve.deadline_slack_seconds")
                                   .GetSnapshot()
                                   .count;
  gate.Open();

  ASSERT_TRUE(a.get().ok());
  Result<Forecast> shed = b.get();
  EXPECT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kDeadlineExceeded);
  Result<Forecast> served = c.get();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ExpectTensorsBitwiseEqual(served.value().point, unloaded,
                            "within-deadline request vs unloaded path");

  EXPECT_EQ(CounterValue("serve.shed_expired"), shed_before + 1);
  // A's batch + C's batch ran; B never reached the model.
  EXPECT_EQ(CounterValue("serve.predicts"), predicts_before + 2);
  EXPECT_GT(metrics::Registry::Global()
                .GetHistogram("serve.deadline_slack_seconds")
                .GetSnapshot()
                .count,
            slack_before);
}

TEST(DeadlineTest, HugeDeadlineSaturatesInsteadOfOverflowing) {
  data::DatasetSplits splits = MakeTestSplits();
  FleetServer fleet({.num_dispatchers = 1});
  ASSERT_TRUE(AddLinearTenant(fleet, splits,
                              {.max_batch_size = 4, .max_queue_delay_us = 0})
                  .ok());

  // INT64_MAX microseconds used to overflow the absolute nanosecond
  // deadline (signed overflow, UB; in practice a negative deadline_ns that
  // silently disabled shedding). It must saturate to "effectively never"
  // and the request must serve normally.
  Result<Forecast> result =
      fleet
          .Submit(kKey, splits.test.GetRange(0, 1),
                  {.deadline_us = std::numeric_limits<int64_t>::max()})
          .get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

// -- Fault containment (tentpole 2, acceptance a, satellite 3) -------------

TEST(ContainmentTest, ThrowingForwardFailsOnlyItsBatch) {
  data::DatasetSplits splits = MakeTestSplits();
  FleetServer fleet({.num_dispatchers = 1});
  ASSERT_TRUE(AddLinearTenant(fleet, splits,
                              {.max_batch_size = 4,
                               .max_queue_delay_us = 20 * 1000})
                  .ok());
  const data::Batch batch_ok = splits.test.GetRange(2, 1);
  const Tensor reference = fleet.session(kKey)->Predict(batch_ok).point;
  const int64_t failures_before = CounterValue("serve.batch_failures");

  {
    // Two requests coalesce into one doomed batch: both futures must carry
    // the error, and nothing else may be affected.
    InjectorGuard injector({.throw_every = 1, .scope = kKey});
    std::future<Result<Forecast>> f1 =
        fleet.Submit(kKey, splits.test.GetRange(0, 1));
    std::future<Result<Forecast>> f2 =
        fleet.Submit(kKey, splits.test.GetRange(1, 1));
    Result<Forecast> r1 = f1.get();  // get() never throws: no broken promises.
    Result<Forecast> r2 = f2.get();
    EXPECT_FALSE(r1.ok());
    EXPECT_FALSE(r2.ok());
    EXPECT_EQ(r1.status().code(), StatusCode::kInternal);
    EXPECT_NE(r1.status().message().find("injected Predict fault"),
              std::string::npos);
    EXPECT_EQ(CounterValue("serve.batch_failures"), failures_before + 1);
  }

  // The queue keeps serving: the very next batch succeeds bitwise.
  Result<Forecast> healed = fleet.Submit(kKey, batch_ok).get();
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  ExpectTensorsBitwiseEqual(healed.value().point, reference,
                            "batch after contained failure");
  EXPECT_FALSE(fleet.circuit_open(kKey));
}

TEST(ContainmentTest, CircuitBreakerTripsDrainsAndRejects) {
  data::DatasetSplits splits = MakeTestSplits();
  FleetServer fleet({.num_dispatchers = 1});
  ASSERT_TRUE(AddLinearTenant(fleet, splits,
                              {.max_batch_size = 1,
                               .max_queue_delay_us = 0,
                               .circuit_breaker_failures = 2})
                  .ok());
  const int64_t opens_before = CounterValue("serve.circuit_opens");

  {
    InjectorGuard injector({.throw_every = 1, .scope = kKey});
    EXPECT_FALSE(fleet.Submit(kKey, splits.test.GetRange(0, 1)).get().ok());
    EXPECT_FALSE(fleet.Submit(kKey, splits.test.GetRange(1, 1)).get().ok());
    ASSERT_TRUE(WaitFor([&] { return fleet.circuit_open(kKey); }));
    EXPECT_EQ(CounterValue("serve.circuit_opens"), opens_before + 1);
    const int64_t throws_at_trip = CounterValue("serve.injected_throws");

    // Open circuit: rejected at admission, resolved immediately, and the
    // broken model is never called again — no hot loop.
    std::future<Result<Forecast>> refused =
        fleet.Submit(kKey, splits.test.GetRange(2, 1));
    ASSERT_EQ(refused.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(refused.get().status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(CounterValue("serve.injected_throws"), throws_at_trip);
  }

  // Operator fixes the model and closes the circuit: serving resumes.
  ASSERT_TRUE(fleet.ResetCircuitBreaker(kKey).ok());
  Result<Forecast> healed =
      fleet.Submit(kKey, splits.test.GetRange(2, 1)).get();
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
}

// -- Checkpoint hot-reload (tentpole 3, acceptance c) ----------------------

TEST(ReloadTest, ValidReloadSwapsParameters) {
  data::DatasetSplits splits = MakeTestSplits();
  const std::string dir = MakeTempDir("reload_valid");
  std::unique_ptr<models::Forecaster> trained =
      PublishTrainedLinear(splits, dir);

  auto session = OpenLinearSession(splits);
  ASSERT_TRUE(session.ok());
  const data::Batch batch = splits.test.GetRange(0, 2);
  const Tensor before = session.value()->Predict(batch).point;

  const int64_t reloads_before = CounterValue("serve.reloads");
  ASSERT_TRUE(session.value()->Reload(dir).ok());
  EXPECT_EQ(CounterValue("serve.reloads"), reloads_before + 1);

  const Tensor after = session.value()->Predict(batch).point;
  ExpectTensorsBitwiseEqual(after, trained->Predict(batch),
                            "post-reload vs trained model");
  // The swap actually changed the parameters (trained != fresh init).
  EXPECT_NE(std::memcmp(before.data(), after.data(),
                        before.numel() * sizeof(float)),
            0);
  std::filesystem::remove_all(dir);
}

TEST(ReloadTest, CorruptCheckpointRejectedOldModelBitwiseUndisturbed) {
  data::DatasetSplits splits = MakeTestSplits();
  const std::string dir = MakeTempDir("reload_corrupt");
  PublishTrainedLinear(splits, dir);
  const std::string path =
      train::CheckpointManager(dir).ListCheckpoints().value().back();

  // Flip one byte in the middle of the file: some section CRC must fail.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 2] ^= 0x20;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  auto session = OpenLinearSession(splits);
  ASSERT_TRUE(session.ok());
  const data::Batch batch = splits.test.GetRange(0, 2);
  const Tensor before = session.value()->Predict(batch).point;

  const int64_t failures_before = CounterValue("serve.reload_failures");
  EXPECT_FALSE(session.value()->Reload(path).ok());
  EXPECT_EQ(CounterValue("serve.reload_failures"), failures_before + 1);
  ExpectTensorsBitwiseEqual(session.value()->Predict(batch).point, before,
                            "outputs after rejected corrupt reload");
  std::filesystem::remove_all(dir);
}

TEST(ReloadTest, WrongArchitectureCheckpointRejected) {
  data::DatasetSplits splits = MakeTestSplits();
  const std::string dir = MakeTempDir("reload_wrong_arch");
  // Publish a GRU checkpoint, then try to reload it into a linear session.
  {
    auto gru =
        models::MakeForecaster("gru", TestWindow(), splits.test.dims())
            .value();
    train::Adam optimizer(gru->Parameters());
    train::TrainProgress progress;
    progress.global_step = 1;
    progress.epoch_rng_state = Rng(3).Serialize();
    ASSERT_TRUE(train::CheckpointManager(dir).Save(*gru, optimizer, progress)
                    .ok());
  }

  auto session = OpenLinearSession(splits);
  ASSERT_TRUE(session.ok());
  const data::Batch batch = splits.test.GetRange(0, 2);
  const Tensor before = session.value()->Predict(batch).point;

  EXPECT_FALSE(session.value()->Reload(dir).ok());
  ExpectTensorsBitwiseEqual(session.value()->Predict(batch).point, before,
                            "outputs after rejected wrong-arch reload");
  std::filesystem::remove_all(dir);
}

TEST(ReloadTest, InjectedMidSwapFaultLeavesOldModelServing) {
  data::DatasetSplits splits = MakeTestSplits();
  const std::string dir = MakeTempDir("reload_midswap");
  PublishTrainedLinear(splits, dir);

  auto session = OpenLinearSession(splits);
  ASSERT_TRUE(session.ok());
  const data::Batch batch = splits.test.GetRange(0, 2);
  const Tensor before = session.value()->Predict(batch).point;

  {
    // The chaos case tentpole (4) names: the checkpoint stages fine, then
    // the swap step is corrupted. The old model must keep serving.
    InjectorGuard injector({.fail_reload = true});
    Status status = session.value()->Reload(dir);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("injected"), std::string::npos);
    ExpectTensorsBitwiseEqual(session.value()->Predict(batch).point, before,
                              "outputs after injected mid-swap fault");
  }
  // Injector gone: the same reload goes through.
  EXPECT_TRUE(session.value()->Reload(dir).ok());
  std::filesystem::remove_all(dir);
}

TEST(ReloadTest, ReloadInvalidatesStaticPlanCache) {
  data::DatasetSplits splits = MakeTestSplits();
  const std::string dir = MakeTempDir("reload_plan");
  std::unique_ptr<models::Forecaster> trained =
      PublishTrainedLinear(splits, dir);

  SessionConfig config = LinearConfig(splits.test.dims());
  config.use_static_plan = true;
  auto session = InferenceSession::Open(config, "");
  ASSERT_TRUE(session.ok());

  const data::Batch batch = splits.test.GetRange(0, 2);
  (void)session.value()->Predict(batch);  // Builds the plan.
  (void)session.value()->Predict(batch);  // Replays it.
  ASSERT_NE(session.value()->plan_for(batch), nullptr);

  ASSERT_TRUE(session.value()->Reload(dir).ok());
  // Plans compiled against the old parameters are gone...
  EXPECT_EQ(session.value()->plan_for(batch), nullptr);
  // ...and the rebuilt plan serves the *new* parameters bitwise.
  ExpectTensorsBitwiseEqual(session.value()->Predict(batch).point,
                            trained->Predict(batch),
                            "plan replay after reload");
  EXPECT_NE(session.value()->plan_for(batch), nullptr);
  std::filesystem::remove_all(dir);
}

TEST(ReloadTest, ConcurrentReloadsUnderClientLoadZeroFailures) {
  data::DatasetSplits splits = MakeTestSplits();
  const std::string dir = MakeTempDir("reload_live");
  PublishTrainedLinear(splits, dir);

  FleetServer fleet({.num_dispatchers = 1});
  ASSERT_TRUE(AddLinearTenant(fleet, splits,
                              {.max_batch_size = 4, .max_queue_delay_us = 1000})
                  .ok());

  // Acceptance (c): a valid reload swaps with zero failed in-flight
  // requests under concurrent client load.
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 24;
  std::atomic<int64_t> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        Result<Forecast> result =
            fleet.Submit(kKey, splits.test.GetRange((c + r) % 8, 1)).get();
        if (!result.ok() ||
            result.value().point.size(1) != TestWindow().pred_len) {
          failures.fetch_add(1);
        }
      }
    });
  }
  std::thread reloader([&] {
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(fleet.Reload(kKey, dir).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  for (std::thread& t : clients) t.join();
  reloader.join();
  fleet.Shutdown();
  EXPECT_EQ(failures.load(), 0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace conformer::serve
