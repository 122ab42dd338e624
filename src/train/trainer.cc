#include "train/trainer.h"

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>

#include "train/checkpoint.h"
#include "train/optimizer.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/profiler.h"

namespace conformer::train {

namespace {

// Consecutive non-finite steps after which Fit rolls back to the last
// known-good parameters and optimizer state.
constexpr int64_t kNonfinitePatience = 3;

// Snapshot / restore of parameter values for best-weights early stopping and
// non-finite rollback.
std::vector<std::vector<float>> SnapshotParams(const std::vector<Tensor>& params) {
  std::vector<std::vector<float>> snap;
  snap.reserve(params.size());
  for (const Tensor& p : params) {
    snap.emplace_back(p.data(), p.data() + p.numel());
  }
  return snap;
}

void RestoreParams(std::vector<Tensor>& params,
                   const std::vector<std::vector<float>>& snap) {
  CONFORMER_CHECK_EQ(params.size(), snap.size())
      << "snapshot holds a different parameter count than the model";
  for (size_t i = 0; i < params.size(); ++i) {
    CONFORMER_CHECK_EQ(static_cast<int64_t>(snap[i].size()), params[i].numel())
        << "snapshot buffer " << i << " does not match the parameter's numel";
    std::copy(snap[i].begin(), snap[i].end(), params[i].data());
  }
}

}  // namespace

FitResult Trainer::Fit(models::Forecaster* model,
                       const data::WindowDataset& train,
                       const data::WindowDataset& val) const {
  CONFORMER_CHECK(model != nullptr);
  std::vector<Tensor> params = model->Parameters();
  Adam optimizer(params, config_.learning_rate);
  Rng rng(config_.seed);

  TrainProgress prog;
  std::unique_ptr<CheckpointManager> checkpoints;
  int64_t resume_epoch = -1;
  int64_t resume_step = 0;
  if (!config_.checkpoint_dir.empty()) {
    checkpoints = std::make_unique<CheckpointManager>(
        config_.checkpoint_dir, config_.checkpoint_keep_last);
    const Status st = checkpoints->RestoreLatest(model, &optimizer, &prog);
    if (st.ok()) {
      CONFORMER_CHECK(rng.Deserialize(prog.epoch_rng_state).ok());
      prog.result.resumed = true;
      resume_epoch = prog.epoch;
      resume_step = prog.step_in_epoch;
      if (config_.verbose) {
        CONFORMER_LOG(Info) << model->name() << " resuming from "
                            << config_.checkpoint_dir << " at epoch "
                            << prog.epoch << " step " << prog.step_in_epoch
                            << " (global step " << prog.global_step << ")";
      }
    } else if (st.code() != StatusCode::kNotFound) {
      CONFORMER_LOG(Warning)
          << "cannot resume from " << config_.checkpoint_dir << ": "
          << st.ToString() << "; training from scratch";
    }
  }

  FitResult& result = prog.result;

  metrics::Registry& registry = metrics::Registry::Global();
  metrics::Counter& step_counter = registry.GetCounter("train.steps");
  metrics::Counter& sample_counter = registry.GetCounter("train.samples");
  metrics::Counter& nonfinite_counter =
      registry.GetCounter("train.nonfinite_steps");
  metrics::Counter& restore_counter =
      registry.GetCounter("train.nonfinite_restores");
  metrics::Histogram& step_seconds = registry.GetHistogram("train.step_seconds");

  // Last known-good state for non-finite rollback: refreshed at every epoch
  // start and after every successful checkpoint write.
  std::vector<std::vector<float>> good_params;
  std::string good_optimizer_state;
  const auto capture_good = [&]() {
    good_params = SnapshotParams(params);
    std::ostringstream out(std::ios::binary);
    optimizer.SaveState(out);
    good_optimizer_state = out.str();
  };
  int64_t consecutive_nonfinite = 0;

  const auto write_checkpoint = [&]() {
    const Status st = checkpoints->Save(*model, optimizer, prog);
    if (st.ok()) {
      capture_good();
    } else {
      CONFORMER_LOG(Warning) << "checkpoint write failed: " << st.ToString();
    }
  };

  for (int64_t epoch = prog.epoch;
       epoch < config_.epochs && !result.early_stopped; ++epoch) {
    CONFORMER_PROFILE_SCOPE_CAT("train", "epoch");
    if (epoch != resume_epoch) {
      prog.epoch = epoch;
      prog.step_in_epoch = 0;
      prog.loss_sum = 0.0;
      prog.finite_batches = 0;
    }
    registry.GetGauge("train.learning_rate").Set(optimizer.learning_rate());
    // The shuffle below advances `rng`; saving the pre-shuffle state lets a
    // resumed run re-draw the identical batch order.
    prog.epoch_rng_state = rng.Serialize();
    model->SetTraining(true);
    data::BatchIterator it(train, config_.batch_size, /*shuffle=*/true, &rng);
    if (epoch == resume_epoch) it.Skip(resume_step);
    capture_good();
    data::Batch batch;
    while (it.Next(&batch)) {
      const int64_t step_start_ns = prof::internal::NowNs();
      {
        CONFORMER_PROFILE_SCOPE_CAT("train", "step");
        optimizer.ZeroGrad();
        Tensor loss = model->Loss(batch);
        const float loss_value = loss.item();
        loss.Backward();
        const double grad_norm = ClipGradNorm(
            params, config_.clip_norm > 0.0f
                        ? static_cast<double>(config_.clip_norm)
                        : std::numeric_limits<double>::infinity());
        if (std::isfinite(loss_value) && std::isfinite(grad_norm)) {
          optimizer.Step();
          prog.loss_sum += loss_value;
          ++prog.finite_batches;
          consecutive_nonfinite = 0;
        } else {
          // Skip the poisoned update; the gradients are cleared by the next
          // step's ZeroGrad.
          ++result.nonfinite_steps;
          nonfinite_counter.Increment();
          ++consecutive_nonfinite;
          if (config_.verbose) {
            CONFORMER_LOG(Warning)
                << model->name() << " non-finite step skipped (loss="
                << loss_value << ", grad_norm=" << grad_norm << ")";
          }
          if (consecutive_nonfinite >= kNonfinitePatience &&
              !good_params.empty()) {
            RestoreParams(params, good_params);
            std::istringstream in(good_optimizer_state, std::ios::binary);
            CONFORMER_CHECK(optimizer.LoadState(in).ok());
            restore_counter.Increment();
            consecutive_nonfinite = 0;
            CONFORMER_LOG(Warning)
                << model->name() << " restored last-good state after "
                << kNonfinitePatience << " consecutive non-finite steps";
          }
        }
      }
      step_counter.Increment();
      sample_counter.Increment(batch.x.size(0));
      step_seconds.Observe(
          static_cast<double>(prof::internal::NowNs() - step_start_ns) * 1e-9);
      ++prog.step_in_epoch;
      ++prog.global_step;
      if (checkpoints && config_.checkpoint_every_n_steps > 0 &&
          prog.global_step % config_.checkpoint_every_n_steps == 0) {
        write_checkpoint();
      }
      if (config_.debug_abort_after_steps > 0 &&
          prog.global_step >= config_.debug_abort_after_steps) {
        // Simulated crash for kill-and-resume tests: bail without
        // validation or best-weights restore.
        result.best_val_mse = prog.best_val;
        return result;
      }
      if (config_.max_train_batches > 0 &&
          prog.step_in_epoch >= config_.max_train_batches) {
        break;
      }
    }
    result.train_losses.push_back(
        prog.finite_batches > 0 ? prog.loss_sum / prog.finite_batches : 0.0);

    const EvalMetrics val_metrics = Evaluate(model, val);
    registry.GetGauge("train.val_mse").Set(val_metrics.mse);
    result.val_mses.push_back(val_metrics.mse);
    result.epochs_run = epoch + 1;
    if (config_.verbose) {
      CONFORMER_LOG(Info) << model->name() << " epoch " << epoch + 1
                          << " train_loss=" << result.train_losses.back()
                          << " val_mse=" << val_metrics.mse;
    }

    if (val_metrics.mse < prog.best_val) {
      prog.best_val = val_metrics.mse;
      prog.best_snapshot = SnapshotParams(params);
      prog.bad_epochs = 0;
    } else {
      ++prog.bad_epochs;
      if (prog.bad_epochs >= config_.patience) {
        result.early_stopped = true;
      }
    }

    // Advance the cursor to the next epoch before the boundary checkpoint so
    // a resume picks up exactly where the uninterrupted run would continue.
    prog.epoch = epoch + 1;
    prog.step_in_epoch = 0;
    prog.loss_sum = 0.0;
    prog.finite_batches = 0;
    prog.epoch_rng_state = rng.Serialize();
    // The run's last checkpoint is the trained model: it holds the weights
    // Fit returns, not the last epoch's.
    if ((result.early_stopped || epoch + 1 == config_.epochs) &&
        !prog.best_snapshot.empty()) {
      RestoreParams(params, prog.best_snapshot);
    }
    if (checkpoints) write_checkpoint();
  }

  if (!prog.best_snapshot.empty()) RestoreParams(params, prog.best_snapshot);
  result.best_val_mse = prog.best_val;
  return result;
}

EvalMetrics Trainer::Evaluate(models::Forecaster* model,
                              const data::WindowDataset& dataset) const {
  CONFORMER_PROFILE_SCOPE_CAT("train", "eval");
  CONFORMER_CHECK(model != nullptr);
  model->SetTraining(false);
  NoGradGuard guard;
  MetricAccumulator acc;
  data::BatchIterator it(dataset, config_.batch_size, /*shuffle=*/false);
  data::Batch batch;
  int64_t batches = 0;
  while (it.Next(&batch)) {
    Tensor pred = model->Forward(batch);
    const int64_t total = batch.y.size(1);
    Tensor target = Slice(batch.y, 1, total - model->window().pred_len, total);
    acc.Add(pred, target);
    ++batches;
    if (config_.max_eval_batches > 0 && batches >= config_.max_eval_batches) {
      break;
    }
  }
  return EvalMetrics{acc.mse(), acc.mae()};
}

}  // namespace conformer::train
