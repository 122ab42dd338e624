// Fixtures shared by the serving suites (serve_test, serve_resilience_test,
// serve_fleet_test): the common test window and data, a linear tenant spec,
// temp directories, bitwise tensor comparison, polling, fault-injector
// guards, and a trained-linear checkpoint.

#ifndef CONFORMER_TESTS_SERVE_TEST_UTIL_H_
#define CONFORMER_TESTS_SERVE_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "baselines/registry.h"
#include "data/dataset_registry.h"
#include "serve/fault_injector.h"
#include "serve/fleet_server.h"
#include "train/checkpoint.h"
#include "train/trainer.h"
#include "util/metrics.h"

namespace conformer::serve {

inline data::WindowConfig TestWindow(int64_t pred_len = 8) {
  return {.input_len = 24, .label_len = 8, .pred_len = pred_len};
}

inline data::DatasetSplits MakeTestSplits(int64_t pred_len = 8) {
  return data::MakeSplits(data::MakeDataset("etth1", 0.05).value(),
                          TestWindow(pred_len));
}

inline SessionConfig LinearConfig(int64_t dims, int64_t pred_len = 8) {
  SessionConfig config;
  config.model_name = "linear";
  config.window = TestWindow(pred_len);
  config.dims = dims;
  return config;
}

/// A linear tenant under `queue` policy; AddTenant it to a
/// FleetServer({.num_dispatchers = 1}) for the single-tenant deployment.
inline TenantSpec LinearTenant(int64_t dims, QueueConfig queue,
                               int64_t pred_len = 8) {
  TenantSpec spec;
  spec.session = LinearConfig(dims, pred_len);
  spec.queue = queue;
  return spec;
}

inline std::string MakeTempDir(const std::string& tag) {
  const std::string dir = "/tmp/conformer_serve_" + tag + "_" +
                          std::to_string(static_cast<int64_t>(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

inline void ExpectTensorsBitwiseEqual(const Tensor& a, const Tensor& b,
                                      const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)), 0)
      << what << " differs";
}

inline bool WaitFor(const std::function<bool()>& pred,
                    int64_t timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

inline int64_t CounterValue(const std::string& name) {
  return metrics::Registry::Global().GetCounter(name).value();
}

/// RAII: closes the injector's Predict gate on construction, opens it on
/// destruction so a failing ASSERT never leaves a queue drain blocked.
struct GateGuard {
  GateGuard() { FaultInjector::SetPredictGate(true); }
  ~GateGuard() { FaultInjector::SetPredictGate(false); }
  void Open() { FaultInjector::SetPredictGate(false); }
};

/// RAII: uninstalls the fault injector on scope exit.
struct InjectorGuard {
  explicit InjectorGuard(const FaultInjector::Config& config) {
    FaultInjector::Install(config);
  }
  ~InjectorGuard() { FaultInjector::Uninstall(); }
};

/// Trains a linear model briefly into the checkpoint directory `dir`;
/// returns the trained model (eval mode) for reference outputs.
inline std::unique_ptr<models::Forecaster> PublishTrainedLinear(
    const data::DatasetSplits& splits, const std::string& dir) {
  auto model =
      models::MakeForecaster("linear", TestWindow(), splits.test.dims())
          .value();
  train::TrainConfig config;
  config.epochs = 1;
  config.max_train_batches = 4;
  config.max_eval_batches = 2;
  config.batch_size = 8;
  config.checkpoint_dir = dir;
  train::Trainer(config).Fit(model.get(), splits.train, splits.val);
  model->SetTraining(false);
  return model;
}

}  // namespace conformer::serve

#endif  // CONFORMER_TESTS_SERVE_TEST_UTIL_H_
