// Crash-safety suite (docs/ROBUSTNESS.md): checkpoint round-trips across
// every registered baseline, truncation/bit-flip corruption (CRC + stream
// validation), manifest fallback, kill-and-resume bitwise equality, and
// non-finite-loss skip/rollback recovery.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/gru_forecaster.h"
#include "baselines/registry.h"
#include "data/dataset_registry.h"
#include "nn/linear.h"
#include "tensor/ops.h"
#include "train/checkpoint.h"
#include "train/optimizer.h"
#include "train/trainer.h"
#include "util/binary_io.h"
#include "util/metrics.h"
#include "util/random.h"

namespace conformer::train {
namespace {

std::string MakeTempDir(const std::string& tag) {
  const std::string dir = "/tmp/conformer_ckpt_" + tag + "_" +
                          std::to_string(static_cast<int64_t>(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TrainProgress MakeProgress(int64_t global_step, uint64_t rng_seed = 9) {
  TrainProgress p;
  p.global_step = global_step;
  p.epoch = 1;
  p.step_in_epoch = 2;
  p.loss_sum = 1.5;
  p.finite_batches = 2;
  p.best_val = 0.25;
  p.bad_epochs = 1;
  p.epoch_rng_state = Rng(rng_seed).Serialize();
  p.result.epochs_run = 1;
  p.result.train_losses = {0.75};
  p.result.val_mses = {0.25};
  return p;
}

void ExpectParamsBitwiseEqual(const nn::Module& a, const nn::Module& b) {
  const auto pa = a.NamedParameters();
  const auto pb = b.NamedParameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].first, pb[i].first);
    ASSERT_EQ(pa[i].second.numel(), pb[i].second.numel()) << pa[i].first;
    EXPECT_EQ(std::memcmp(pa[i].second.data(), pb[i].second.data(),
                          pa[i].second.numel() * sizeof(float)),
              0)
        << "parameter '" << pa[i].first << "' differs";
  }
}

// -- Rng / optimizer state round-trips ---------------------------------------

TEST(RngStateTest, SerializeRoundTripReproducesDraws) {
  Rng a(123);
  a.Uniform();  // Advance past the seed state.
  const std::string state = a.Serialize();
  std::vector<double> expected;
  for (int i = 0; i < 16; ++i) expected.push_back(a.Uniform());

  Rng b(999);
  ASSERT_TRUE(b.Deserialize(state).ok());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(expected[i], b.Uniform());
}

TEST(RngStateTest, RejectsMalformedState) {
  Rng rng(1);
  EXPECT_FALSE(rng.Deserialize("not a generator state").ok());
  const double next = Rng(1).Uniform();
  EXPECT_EQ(rng.Uniform(), next);  // Failed restore left the state intact.
}

TEST(OptimizerStateTest, AdamResumedTrajectoryIsBitwiseIdentical) {
  Tensor x = Tensor::Full({4}, 3.0f).set_requires_grad(true);
  Adam opt({x}, 0.1f);
  auto step = [](Tensor& t, Adam& o) {
    o.ZeroGrad();
    Sum(Mul(t, t)).Backward();
    o.Step();
  };
  for (int i = 0; i < 5; ++i) step(x, opt);
  std::ostringstream state(std::ios::binary);
  opt.SaveState(state);
  std::vector<float> mid(x.data(), x.data() + x.numel());
  for (int i = 0; i < 5; ++i) step(x, opt);

  Tensor y = Tensor::FromVector(mid, {4}).set_requires_grad(true);
  Adam opt2({y}, 0.05f);  // Different LR: LoadState must restore the saved one.
  std::istringstream in(state.str(), std::ios::binary);
  ASSERT_TRUE(opt2.LoadState(in).ok());
  for (int i = 0; i < 5; ++i) step(y, opt2);
  EXPECT_EQ(std::memcmp(x.data(), y.data(), 4 * sizeof(float)), 0);
}

TEST(OptimizerStateTest, LoadRejectsBufferCountMismatch) {
  Tensor a = Tensor::Full({2}, 1.0f).set_requires_grad(true);
  Tensor b = Tensor::Full({2}, 1.0f).set_requires_grad(true);
  Adam two({a, b}, 0.1f);
  std::ostringstream state(std::ios::binary);
  two.SaveState(state);

  Adam one({a}, 0.1f);
  std::istringstream in(state.str(), std::ios::binary);
  const Status st = one.LoadState(in);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("buffers"), std::string::npos);
}

// -- Checkpoint round-trip over every registered model -----------------------

TEST(CheckpointTest, RoundTripAcrossAllRegisteredBaselines) {
  const std::string root = MakeTempDir("roundtrip");
  data::WindowConfig window{.input_len = 16, .label_len = 8, .pred_len = 8};
  models::ModelHyperParams hp;
  hp.d_model = 8;
  hp.n_heads = 2;
  hp.hidden = 8;
  hp.ma_kernel = 5;
  hp.dropout = 0.0f;

  for (const std::string& name : models::AvailableModels()) {
    SCOPED_TRACE(name);
    SeedGlobalRng(100);
    auto src = models::MakeForecaster(name, window, /*dims=*/3, hp);
    ASSERT_TRUE(src.ok()) << src.status().ToString();
    SeedGlobalRng(200);  // Different init so the restore is observable.
    auto dst = models::MakeForecaster(name, window, /*dims=*/3, hp);
    ASSERT_TRUE(dst.ok());

    CheckpointManager manager(root + "/" + name, /*keep_last=*/2);
    Adam src_opt(src.value()->Parameters(), 1e-3f);
    ASSERT_TRUE(
        manager.Save(*src.value(), src_opt, MakeProgress(7)).ok());

    Adam dst_opt(dst.value()->Parameters(), 1e-3f);
    TrainProgress restored;
    ASSERT_TRUE(
        manager.RestoreLatest(dst.value().get(), &dst_opt, &restored).ok());
    ExpectParamsBitwiseEqual(*src.value(), *dst.value());
    EXPECT_EQ(restored.global_step, 7);
    EXPECT_EQ(restored.epoch, 1);
    EXPECT_EQ(restored.step_in_epoch, 2);
    EXPECT_EQ(restored.best_val, 0.25);
    ASSERT_EQ(restored.result.train_losses.size(), 1u);
    EXPECT_EQ(restored.result.train_losses[0], 0.75);
    EXPECT_EQ(restored.epoch_rng_state, Rng(9).Serialize());
  }
  std::filesystem::remove_all(root);
}

// -- Corruption: truncation fuzz, bit flips, fallback ------------------------

TEST(CheckpointFuzzTest, TruncationAtEveryByteOffsetErrorsCleanly) {
  const std::string dir = MakeTempDir("truncfuzz");
  nn::Linear model(4, 3);
  Adam opt(model.Parameters(), 0.1f);
  CheckpointManager manager(dir, 2);
  ASSERT_TRUE(manager.Save(model, opt, MakeProgress(1)).ok());
  Result<std::vector<std::string>> list = manager.ListCheckpoints();
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list.value().size(), 1u);
  const std::string bytes = ReadFileBytes(list.value()[0]);
  ASSERT_GT(bytes.size(), 100u);

  const std::string victim = dir + "/truncated.ckpt";
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFileBytes(victim, bytes.substr(0, len));
    nn::Linear target(4, 3);
    Adam target_opt(target.Parameters(), 0.1f);
    TrainProgress progress;
    const Status st = LoadCheckpointFile(victim, &target, &target_opt,
                                         &progress);
    ASSERT_FALSE(st.ok()) << "truncation to " << len
                          << " bytes was not detected";
    ASSERT_FALSE(st.message().empty());
  }
  std::filesystem::remove_all(dir);
}

TEST(CheckpointFuzzTest, SingleBitFlipsAreCaught) {
  const std::string dir = MakeTempDir("bitflip");
  nn::Linear model(4, 3);
  Adam opt(model.Parameters(), 0.1f);
  CheckpointManager manager(dir, 2);
  ASSERT_TRUE(manager.Save(model, opt, MakeProgress(1)).ok());
  const std::string path = manager.ListCheckpoints().value()[0];
  const std::string bytes = ReadFileBytes(path);

  const std::string victim = dir + "/flipped.ckpt";
  for (size_t offset = 0; offset < bytes.size(); ++offset) {
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x20);
    WriteFileBytes(victim, corrupt);
    nn::Linear target(4, 3);
    Adam target_opt(target.Parameters(), 0.1f);
    TrainProgress progress;
    const Status st = LoadCheckpointFile(victim, &target, &target_opt,
                                         &progress);
    ASSERT_FALSE(st.ok()) << "bit flip at offset " << offset
                          << " was not detected";
  }
  std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, FallsBackToPreviousCheckpointWhenNewestIsCorrupt) {
  const std::string dir = MakeTempDir("fallback");
  nn::Linear model(3, 2);
  Adam opt(model.Parameters(), 0.1f);
  CheckpointManager manager(dir, 2);

  model.Parameters()[0].data()[0] = 11.0f;
  ASSERT_TRUE(manager.Save(model, opt, MakeProgress(1)).ok());
  model.Parameters()[0].data()[0] = 22.0f;
  ASSERT_TRUE(manager.Save(model, opt, MakeProgress(2)).ok());

  Result<std::vector<std::string>> list = manager.ListCheckpoints();
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list.value().size(), 2u);
  const std::string newest = list.value().back();
  std::string bytes = ReadFileBytes(newest);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xFF);
  WriteFileBytes(newest, bytes);

  nn::Linear target(3, 2);
  Adam target_opt(target.Parameters(), 0.1f);
  TrainProgress progress;
  ASSERT_TRUE(manager.RestoreLatest(&target, &target_opt, &progress).ok());
  EXPECT_EQ(progress.global_step, 1);
  EXPECT_EQ(target.Parameters()[0].data()[0], 11.0f);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, LoadParamsFromDirectoryTakesNewestThenFallsBack) {
  const std::string dir = MakeTempDir("params_dir");
  nn::Linear model(3, 2);
  Adam opt(model.Parameters(), 0.1f);
  CheckpointManager manager(dir, 2);
  model.Parameters()[0].data()[0] = 11.0f;
  ASSERT_TRUE(manager.Save(model, opt, MakeProgress(1)).ok());
  model.Parameters()[0].data()[0] = 22.0f;
  ASSERT_TRUE(manager.Save(model, opt, MakeProgress(2)).ok());

  // A directory loads its newest checkpoint, like RestoreLatest.
  nn::Linear target(3, 2);
  ASSERT_TRUE(LoadCheckpointParams(dir, &target).ok());
  EXPECT_EQ(target.Parameters()[0].data()[0], 22.0f);

  // A corrupt newest checkpoint falls back to the one before it.
  const std::string newest = manager.ListCheckpoints().value().back();
  std::string bytes = ReadFileBytes(newest);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xFF);
  WriteFileBytes(newest, bytes);
  nn::Linear fallback(3, 2);
  ASSERT_TRUE(LoadCheckpointParams(dir, &fallback).ok());
  EXPECT_EQ(fallback.Parameters()[0].data()[0], 11.0f);

  // A directory without a manifest is NotFound, not a file-read error.
  const std::string empty = MakeTempDir("params_dir_empty");
  EXPECT_EQ(LoadCheckpointParams(empty, &fallback).code(),
            StatusCode::kNotFound);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(empty);
}

TEST(CheckpointTest, RetentionPrunesOldCheckpoints) {
  const std::string dir = MakeTempDir("retention");
  nn::Linear model(3, 2);
  Adam opt(model.Parameters(), 0.1f);
  CheckpointManager manager(dir, /*keep_last=*/2);
  for (int64_t step = 1; step <= 4; ++step) {
    ASSERT_TRUE(manager.Save(model, opt, MakeProgress(step)).ok());
  }
  Result<std::vector<std::string>> list = manager.ListCheckpoints();
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list.value().size(), 2u);
  EXPECT_NE(list.value()[0].find("ckpt-000000000003"), std::string::npos);
  EXPECT_NE(list.value()[1].find("ckpt-000000000004"), std::string::npos);
  // Pruned files are really gone.
  EXPECT_FALSE(io::FileExists(dir + "/ckpt-000000000001.ckpt"));
  EXPECT_FALSE(io::FileExists(dir + "/ckpt-000000000002.ckpt"));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, RestoreLatestWithoutManifestIsNotFound) {
  const std::string dir = MakeTempDir("nomanifest");
  nn::Linear model(3, 2);
  Adam opt(model.Parameters(), 0.1f);
  TrainProgress progress;
  CheckpointManager manager(dir, 2);
  const Status st = manager.RestoreLatest(&model, &opt, &progress);
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  std::filesystem::remove_all(dir);
}

/// Returns checkpoint file `bytes` with section `name`'s payload replaced by
/// `payload` under a freshly computed CRC, so only the payload is wrong.
std::string ReplaceSection(const std::string& bytes, const std::string& name,
                           const std::string& payload) {
  std::istringstream in(bytes, std::ios::binary);
  std::ostringstream out(std::ios::binary);
  uint32_t magic = 0, version = 0, count = 0;
  EXPECT_TRUE(io::ReadU32(in, &magic, "magic").ok());
  EXPECT_TRUE(io::ReadU32(in, &version, "version").ok());
  EXPECT_TRUE(io::ReadU32(in, &count, "count").ok());
  io::WriteU32(out, magic);
  io::WriteU32(out, version);
  io::WriteU32(out, count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string section;
    uint64_t len = 0;
    uint32_t crc = 0;
    EXPECT_TRUE(io::ReadString(in, &section, "name", 256).ok());
    EXPECT_TRUE(io::ReadU64(in, &len, "len").ok());
    EXPECT_TRUE(io::ReadU32(in, &crc, "crc").ok());
    std::string body(len, '\0');
    in.read(body.data(), static_cast<std::streamsize>(len));
    if (section == name) body = payload;
    io::WriteString(out, section);
    io::WriteU64(out, body.size());
    io::WriteU32(out, io::Crc32(body.data(), body.size()));
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
  }
  return out.str();
}

TEST(CheckpointTest, OptimizerTypeMismatchIsRejected) {
  const std::string dir = MakeTempDir("opttype");
  nn::Linear model(3, 2);
  Adam adam(model.Parameters(), 0.1f);
  CheckpointManager manager(dir, 2);
  ASSERT_TRUE(manager.Save(model, adam, MakeProgress(1)).ok());

  // An "sgd"-typed optimizer section that passes its CRC must still be
  // refused: Adam is the only optimizer a checkpoint can hold.
  std::ostringstream section(std::ios::binary);
  io::WriteString(section, "sgd");
  io::WriteF64(section, 0.1);  // lr
  io::WriteF64(section, 0.0);  // momentum
  io::WriteU64(section, 0);    // velocity buffers
  const std::string path = manager.ListCheckpoints().value().back();
  WriteFileBytes(path,
                 ReplaceSection(ReadFileBytes(path), "optimizer", section.str()));

  TrainProgress progress;
  const Status st = LoadCheckpointFile(path, &model, &adam, &progress);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("'sgd'"), std::string::npos) << st.ToString();
  std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, RejectedCheckpointLeavesTargetStateUnchanged) {
  // A best snapshot with one buffer for a two-parameter model: every CRC
  // and the model/optimizer sections are valid, so the geometry check is the
  // only thing that rejects the file. It must reject it before writing the
  // target's weights or optimizer state.
  const std::string dir = MakeTempDir("rejected");
  nn::Linear model(3, 2);
  for (Tensor& p : model.Parameters()) {
    std::fill(p.data(), p.data() + p.numel(), 7.0f);
  }
  Adam opt(model.Parameters(), 0.1f);
  TrainProgress saved = MakeProgress(1);
  saved.best_snapshot = {std::vector<float>(model.Parameters()[0].numel())};
  CheckpointManager manager(dir, 2);
  ASSERT_TRUE(manager.Save(model, opt, saved).ok());

  nn::Linear target(3, 2);
  for (Tensor& p : target.Parameters()) {
    std::fill(p.data(), p.data() + p.numel(), -1.0f);
  }
  Adam target_opt(target.Parameters(), 0.5f);
  TrainProgress progress;
  EXPECT_FALSE(manager.RestoreLatest(&target, &target_opt, &progress).ok());
  for (const Tensor& p : target.Parameters()) {
    for (int64_t i = 0; i < p.numel(); ++i) EXPECT_EQ(p.data()[i], -1.0f);
  }
  EXPECT_EQ(target_opt.learning_rate(), 0.5f);
  EXPECT_EQ(progress.global_step, 0);
  std::filesystem::remove_all(dir);
}

// -- Kill-and-resume bitwise equality ----------------------------------------

data::DatasetSplits SmallSplits() {
  data::TimeSeries ts = data::MakeDataset("etth1", 0.07, 11).value();
  data::WindowConfig cfg{.input_len = 16, .label_len = 8, .pred_len = 8};
  return data::MakeSplits(ts, cfg);
}

TrainConfig ResumeBaseConfig() {
  TrainConfig config;
  config.epochs = 3;
  config.batch_size = 8;
  config.learning_rate = 5e-3f;
  config.patience = 10;
  config.max_train_batches = 6;
  config.max_eval_batches = 3;
  config.checkpoint_every_n_steps = 4;
  config.checkpoint_keep_last = 3;
  return config;
}

void ExpectFitResultsIdentical(const FitResult& a, const FitResult& b) {
  EXPECT_EQ(a.epochs_run, b.epochs_run);
  EXPECT_EQ(a.early_stopped, b.early_stopped);
  EXPECT_EQ(a.best_val_mse, b.best_val_mse);
  ASSERT_EQ(a.train_losses.size(), b.train_losses.size());
  for (size_t i = 0; i < a.train_losses.size(); ++i) {
    EXPECT_EQ(a.train_losses[i], b.train_losses[i]) << "epoch " << i;
  }
  ASSERT_EQ(a.val_mses.size(), b.val_mses.size());
  for (size_t i = 0; i < a.val_mses.size(); ++i) {
    EXPECT_EQ(a.val_mses[i], b.val_mses[i]) << "epoch " << i;
  }
}

void RunKillAndResume(TrainConfig base, int64_t abort_step,
                      const std::string& tag) {
  const std::string dir_clean = MakeTempDir(tag + "_clean");
  const std::string dir_crash = MakeTempDir(tag + "_crash");
  data::DatasetSplits splits = SmallSplits();

  // Reference: the uninterrupted run (checkpointing on, never restored).
  SeedGlobalRng(77);
  models::GruForecaster clean(splits.train.config(), splits.train.dims(), 8, 1);
  TrainConfig c1 = base;
  c1.checkpoint_dir = dir_clean;
  const FitResult r1 = Trainer(c1).Fit(&clean, splits.train, splits.val);

  // Crash: identical run killed mid-flight after `abort_step` steps.
  SeedGlobalRng(77);
  models::GruForecaster crashed(splits.train.config(), splits.train.dims(), 8,
                                1);
  TrainConfig c2 = base;
  c2.checkpoint_dir = dir_crash;
  c2.debug_abort_after_steps = abort_step;
  Trainer(c2).Fit(&crashed, splits.train, splits.val);

  // Resume into a fresh process-equivalent: newly constructed model, same
  // checkpoint directory.
  SeedGlobalRng(77);
  models::GruForecaster resumed(splits.train.config(), splits.train.dims(), 8,
                                1);
  TrainConfig c3 = base;
  c3.checkpoint_dir = dir_crash;
  const FitResult r2 = Trainer(c3).Fit(&resumed, splits.train, splits.val);

  EXPECT_TRUE(r2.resumed);
  EXPECT_FALSE(r1.resumed);
  ExpectFitResultsIdentical(r1, r2);
  ExpectParamsBitwiseEqual(clean, resumed);

  std::filesystem::remove_all(dir_clean);
  std::filesystem::remove_all(dir_crash);
}

TEST(ResumeTest, KillAfterEpochBoundaryResumesBitwiseIdentical) {
  // Abort at step 7: the freshest checkpoint is the epoch-0 boundary write.
  RunKillAndResume(ResumeBaseConfig(), /*abort_step=*/7, "boundary");
}

TEST(ResumeTest, KillMidEpochResumesBitwiseIdentical) {
  // Abort at step 5: the freshest checkpoint is the step-4 write inside
  // epoch 0, so the resume must re-shuffle from the saved RNG state and skip
  // the consumed batches.
  RunKillAndResume(ResumeBaseConfig(), /*abort_step=*/5, "midepoch");
}

TEST(ResumeTest, ResumeOfFinishedRunIsIdempotent) {
  const std::string dir = MakeTempDir("finished");
  data::DatasetSplits splits = SmallSplits();
  TrainConfig config = ResumeBaseConfig();
  config.checkpoint_dir = dir;

  SeedGlobalRng(77);
  models::GruForecaster model(splits.train.config(), splits.train.dims(), 8, 1);
  const FitResult r1 = Trainer(config).Fit(&model, splits.train, splits.val);

  SeedGlobalRng(77);
  models::GruForecaster again(splits.train.config(), splits.train.dims(), 8, 1);
  const FitResult r2 = Trainer(config).Fit(&again, splits.train, splits.val);
  EXPECT_TRUE(r2.resumed);
  ExpectFitResultsIdentical(r1, r2);
  ExpectParamsBitwiseEqual(model, again);
  std::filesystem::remove_all(dir);
}

// -- Non-finite loss recovery ------------------------------------------------

/// GRU whose Loss turns NaN on the given (0-based) global step indices.
class NanInjectingGru : public models::GruForecaster {
 public:
  NanInjectingGru(data::WindowConfig window, int64_t dims,
                  std::set<int64_t> nan_steps)
      : GruForecaster(window, dims, 8, 1), nan_steps_(std::move(nan_steps)) {}

  Tensor Loss(const data::Batch& batch) override {
    Tensor base = GruForecaster::Loss(batch);
    const int64_t step = step_++;
    if (nan_steps_.count(step) > 0) {
      return MulScalar(base, std::numeric_limits<float>::quiet_NaN());
    }
    return base;
  }

 private:
  std::set<int64_t> nan_steps_;
  int64_t step_ = 0;
};

bool AllParamsFinite(const nn::Module& module) {
  for (const Tensor& p : module.Parameters()) {
    for (int64_t i = 0; i < p.numel(); ++i) {
      if (!std::isfinite(p.data()[i])) return false;
    }
  }
  return true;
}

TEST(NonFiniteTest, NanStepsAreSkippedAndCounted) {
  data::DatasetSplits splits = SmallSplits();
  TrainConfig config;
  config.epochs = 2;
  config.batch_size = 8;
  config.learning_rate = 5e-3f;
  config.patience = 10;
  config.max_train_batches = 6;
  config.max_eval_batches = 3;

  SeedGlobalRng(31);
  models::GruForecaster clean(splits.train.config(), splits.train.dims(), 8, 1);
  const FitResult clean_result =
      Trainer(config).Fit(&clean, splits.train, splits.val);

  metrics::Counter& counter =
      metrics::Registry::Global().GetCounter("train.nonfinite_steps");
  const int64_t before = counter.value();
  SeedGlobalRng(31);
  NanInjectingGru poisoned(splits.train.config(), splits.train.dims(), {2, 9});
  const FitResult result =
      Trainer(config).Fit(&poisoned, splits.train, splits.val);

  EXPECT_EQ(result.nonfinite_steps, 2);
  EXPECT_EQ(counter.value() - before, 2);
  EXPECT_TRUE(AllParamsFinite(poisoned));
  for (double loss : result.train_losses) EXPECT_TRUE(std::isfinite(loss));
  for (double mse : result.val_mses) EXPECT_TRUE(std::isfinite(mse));
  // Same early-stopping behaviour as the clean run.
  EXPECT_EQ(result.epochs_run, clean_result.epochs_run);
  EXPECT_EQ(result.early_stopped, clean_result.early_stopped);
  EXPECT_EQ(clean_result.nonfinite_steps, 0);
}

TEST(NonFiniteTest, ConsecutiveNanStepsTriggerLastGoodRestore) {
  data::DatasetSplits splits = SmallSplits();
  TrainConfig config;
  config.epochs = 1;
  config.batch_size = 8;
  config.learning_rate = 5e-3f;
  config.max_train_batches = 8;
  config.max_eval_batches = 3;

  metrics::Counter& restores =
      metrics::Registry::Global().GetCounter("train.nonfinite_restores");
  const int64_t before = restores.value();
  SeedGlobalRng(31);
  NanInjectingGru poisoned(splits.train.config(), splits.train.dims(),
                           {2, 3, 4});
  const FitResult result =
      Trainer(config).Fit(&poisoned, splits.train, splits.val);

  EXPECT_EQ(result.nonfinite_steps, 3);
  EXPECT_EQ(restores.value() - before, 1);
  EXPECT_TRUE(AllParamsFinite(poisoned));
  EXPECT_EQ(result.epochs_run, 1);
}

}  // namespace
}  // namespace conformer::train
