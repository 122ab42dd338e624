#include "data/window_dataset.h"

#include <algorithm>
#include <string>

#include "data/time_features.h"
#include "util/logging.h"
#include "util/profiler.h"

namespace conformer::data {

namespace {

// `config` must be a valid geometry whose window fits in `rows` rows.
// `rows - input_len < pred_len` is `rows < input_len + pred_len` without
// overflow on huge lengths.
Status CheckWindow(const WindowConfig& config, int64_t rows) {
  if (config.input_len <= 0 || config.label_len < 0 || config.pred_len <= 0) {
    return Status::InvalidArgument(
        "window lengths must be positive (label_len may be 0)");
  }
  if (config.label_len > config.input_len) {
    return Status::InvalidArgument(
        "label_len " + std::to_string(config.label_len) +
        " exceeds input_len " + std::to_string(config.input_len) +
        ": the label section is a suffix of the encoder input");
  }
  if (rows - config.input_len < config.pred_len) {
    return Status::InvalidArgument(
        std::to_string(rows) + " rows hold no window of input_len " +
        std::to_string(config.input_len) + " + pred_len " +
        std::to_string(config.pred_len));
  }
  return Status::OK();
}

}  // namespace

WindowDataset::WindowDataset(TimeSeries series, WindowConfig config)
    : series_(std::move(series)), config_(config) {
  const Status valid = CheckWindow(config_, series_.num_points());
  CONFORMER_CHECK(valid.ok()) << valid.ToString();
  marks_ = ExtractTimeFeatures(series_.timestamps());
}

int64_t WindowDataset::size() const {
  return series_.num_points() - config_.input_len - config_.pred_len + 1;
}

Batch WindowDataset::GetBatch(const std::vector<int64_t>& indices) const {
  const int64_t batch = static_cast<int64_t>(indices.size());
  CONFORMER_CHECK_GT(batch, 0);
  const int64_t lx = config_.input_len;
  const int64_t ly = config_.label_len + config_.pred_len;
  const int64_t dims = series_.dims();
  const int64_t f = kNumTimeFeatures;

  std::vector<float> x(batch * lx * dims);
  std::vector<float> xm(batch * lx * f);
  std::vector<float> y(batch * ly * dims);
  std::vector<float> ym(batch * ly * f);

  const std::vector<float>& vals = series_.values();
  for (int64_t b = 0; b < batch; ++b) {
    const int64_t start = indices[b];
    CONFORMER_CHECK(start >= 0 && start < size()) << "window index out of range";
    const int64_t y_start = start + lx - config_.label_len;
    std::copy(vals.begin() + start * dims, vals.begin() + (start + lx) * dims,
              x.begin() + b * lx * dims);
    std::copy(marks_.begin() + start * f, marks_.begin() + (start + lx) * f,
              xm.begin() + b * lx * f);
    std::copy(vals.begin() + y_start * dims,
              vals.begin() + (y_start + ly) * dims, y.begin() + b * ly * dims);
    std::copy(marks_.begin() + y_start * f, marks_.begin() + (y_start + ly) * f,
              ym.begin() + b * ly * f);
  }

  Batch out;
  out.x = Tensor::FromVector(std::move(x), {batch, lx, dims});
  out.x_mark = Tensor::FromVector(std::move(xm), {batch, lx, f});
  out.y = Tensor::FromVector(std::move(y), {batch, ly, dims});
  out.y_mark = Tensor::FromVector(std::move(ym), {batch, ly, f});
  return out;
}

Batch WindowDataset::GetRange(int64_t first, int64_t count) const {
  std::vector<int64_t> indices(count);
  for (int64_t i = 0; i < count; ++i) indices[i] = first + i;
  return GetBatch(indices);
}

namespace {

// The rows at which the train and val splits end; test runs to the end.
struct SplitBounds {
  int64_t train_end;
  int64_t val_end;
};

// The 70 / 10 / 20 split, floored in integers. In double, 1400 * 0.7 is
// 979.99... and 160 * (0.7 + 0.1) is 127.99..., each a row short.
SplitBounds FractionBounds(int64_t n) { return {n * 7 / 10, n * 8 / 10}; }

}  // namespace

Status ValidateSplits(const TimeSeries& series, const WindowConfig& config) {
  // Each split, with the input_len context rows val and test borrow from
  // the split before them, must hold one window.
  const int64_t n = series.num_points();
  const SplitBounds bounds = FractionBounds(n);
  const int64_t begins[] = {
      0, std::max<int64_t>(0, bounds.train_end - config.input_len),
      std::max<int64_t>(0, bounds.val_end - config.input_len)};
  const int64_t ends[] = {bounds.train_end, bounds.val_end, n};
  const char* names[] = {"train", "val", "test"};
  for (int s = 0; s < 3; ++s) {
    const Status valid = CheckWindow(config, ends[s] - begins[s]);
    if (!valid.ok()) {
      return Status::InvalidArgument(std::string(names[s]) +
                                     " split of a series of " +
                                     std::to_string(n) + " rows: " +
                                     valid.message());
    }
  }
  return Status::OK();
}

DatasetSplits MakeSplits(const TimeSeries& series, const WindowConfig& config) {
  const Status valid = ValidateSplits(series, config);
  CONFORMER_CHECK(valid.ok()) << valid.ToString();
  const SplitBounds bounds = FractionBounds(series.num_points());
  StandardScaler scaler;
  scaler.Fit(series.Slice(0, bounds.train_end));
  const TimeSeries scaled = scaler.Transform(series);
  const int64_t val_begin =
      std::max<int64_t>(0, bounds.train_end - config.input_len);
  const int64_t test_begin =
      std::max<int64_t>(0, bounds.val_end - config.input_len);
  return DatasetSplits{
      WindowDataset(scaled.Slice(0, bounds.train_end), config),
      WindowDataset(scaled.Slice(val_begin, bounds.val_end), config),
      WindowDataset(scaled.Slice(test_begin, series.num_points()), config),
      scaler,
  };
}

BatchIterator::BatchIterator(const WindowDataset& dataset, int64_t batch_size,
                             bool shuffle, Rng* rng)
    : dataset_(dataset), batch_size_(batch_size), shuffle_(shuffle), rng_(rng) {
  CONFORMER_CHECK_GT(batch_size, 0);
  order_.resize(dataset.size());
  Reset();
}

void BatchIterator::Reset() {
  cursor_ = 0;
  for (int64_t i = 0; i < static_cast<int64_t>(order_.size()); ++i) order_[i] = i;
  if (shuffle_) {
    Rng& rng = rng_ != nullptr ? *rng_ : GlobalRng();
    order_ = rng.Permutation(static_cast<int64_t>(order_.size()));
  }
}

bool BatchIterator::Next(Batch* batch) {
  CONFORMER_PROFILE_SCOPE_CAT("data", "batch_next");
  if (cursor_ >= static_cast<int64_t>(order_.size())) return false;
  const int64_t end = std::min<int64_t>(cursor_ + batch_size_,
                                        static_cast<int64_t>(order_.size()));
  std::vector<int64_t> indices(order_.begin() + cursor_, order_.begin() + end);
  cursor_ = end;
  *batch = dataset_.GetBatch(indices);
  return true;
}

void BatchIterator::Skip(int64_t n) {
  CONFORMER_CHECK_GE(n, 0);
  cursor_ = std::min<int64_t>(cursor_ + n * batch_size_,
                              static_cast<int64_t>(order_.size()));
}

int64_t BatchIterator::num_batches() const {
  return (static_cast<int64_t>(order_.size()) + batch_size_ - 1) / batch_size_;
}

}  // namespace conformer::data
