#include "baselines/timesnet_lite.h"

#include <cmath>
#include <complex>

#include "fft/fft.h"
#include "tensor/capture.h"
#include "util/profiler.h"

namespace conformer::models {

namespace {
constexpr double kTwoPi = 6.283185307179586476925286766559;
}  // namespace

TimesNetLite::TimesNetLite(data::WindowConfig window, int64_t dims,
                           int64_t d_model, int64_t top_k)
    : Forecaster(window, dims), top_k_(top_k) {
  CONFORMER_CHECK_GE(top_k, 1);
  CONFORMER_CHECK_GE(window.input_len, 2)
      << "TimesNet-lite needs at least one non-DC frequency bin";
  embed_ = RegisterModule("embed", std::make_shared<nn::Linear>(dims, d_model));
  conv1_ = RegisterModule(
      "conv1", std::make_shared<nn::Conv2dLayer>(d_model, d_model, 3, 3,
                                                 /*padding=*/1));
  conv2_ = RegisterModule(
      "conv2", std::make_shared<nn::Conv2dLayer>(d_model, d_model, 3, 3,
                                                 /*padding=*/1));
  time_head_ = RegisterModule(
      "time_head",
      std::make_shared<nn::Linear>(window.input_len, window.pred_len));
  proj_ = RegisterModule("proj", std::make_shared<nn::Linear>(d_model, dims));
}

Tensor TimesNetLite::Forward(const data::Batch& batch) const {
  CONFORMER_PROFILE_SCOPE_CAT("model", "timesnet_lite");
  Tensor emb = embed_->Forward(batch.x);  // [B, L, M]
  // The FFT period selection picks each row's grid shape on the host, so no
  // fixed step list replays the block: a trace through here fails and the
  // model serves eagerly.
  conformer::internal::FailCapture(
      "TimesNetLite selects its periods on the host");
  // Per-series period selection (not the reference implementation's
  // batch-mean): each row's periods depend only on that row, so every
  // row's output is bitwise independent of its batch-mates and the serving
  // layer's batched-vs-single transparency contract holds.
  const int64_t rows = emb.size(0);
  std::vector<Tensor> blocks;
  blocks.reserve(rows);
  for (int64_t b = 0; b < rows; ++b) {
    blocks.push_back(PeriodBlock(Slice(emb, 0, b, b + 1)));
  }
  Tensor mixed = rows == 1 ? blocks.front() : Concat(blocks, 0);
  Tensor h = Permute(mixed, {0, 2, 1});  // [B, M, L]
  h = time_head_->Forward(h);            // [B, M, pred_len]
  h = Permute(h, {0, 2, 1});             // [B, pred_len, M]
  return proj_->Forward(h);              // [B, pred_len, D]
}

std::vector<fft::PeriodCandidate> TimesNetLite::SelectPeriods(
    const Tensor& row) const {
  // Host-side index selection over raw values; nothing here is on the tape.
  NoGradGuard guard;
  const int64_t length = row.size(1);
  const int64_t channels = row.size(2);
  const float* xd = row.data();
  std::vector<double> series(length, 0.0);
  for (int64_t t = 0; t < length; ++t) {
    double acc = 0.0;
    for (int64_t m = 0; m < channels; ++m) acc += xd[t * channels + m];
    series[t] = acc / static_cast<double>(channels);
  }
  const std::vector<std::complex<double>> spectrum = fft::RealFft(series);
  std::vector<double> amplitude(length / 2 + 1);
  for (size_t f = 0; f < amplitude.size(); ++f) {
    amplitude[f] = std::abs(spectrum[f]);
  }
  return fft::TopKPeriods(amplitude, length, top_k_);
}

Tensor TimesNetLite::PeriodBlock(const Tensor& row) const {
  const int64_t length = row.size(1);
  const int64_t channels = row.size(2);
  const std::vector<fft::PeriodCandidate> periods = SelectPeriods(row);
  if (periods.empty()) return row;  // No non-DC bin: pass through.
  const int64_t n = static_cast<int64_t>(periods.size());

  // Differentiable amplitude weights for the selected frequencies: project
  // the channel-mean series onto constant cos/sin basis vectors and take
  // |X[f]| = sqrt(re^2 + im^2). Only the indices came from the host FFT;
  // these amplitudes (and their softmax) stay on the autograd tape.
  std::vector<float> cos_basis(length * n);
  std::vector<float> sin_basis(length * n);
  for (int64_t t = 0; t < length; ++t) {
    for (int64_t i = 0; i < n; ++i) {
      const double angle =
          kTwoPi * static_cast<double>(periods[i].frequency) * t / length;
      cos_basis[t * n + i] = static_cast<float>(std::cos(angle));
      sin_basis[t * n + i] = static_cast<float>(std::sin(angle));
    }
  }
  Tensor bc = Tensor::FromVector(std::move(cos_basis), {length, n});
  Tensor bs = Tensor::FromVector(std::move(sin_basis), {length, n});
  Tensor xm = Mean(row, {2});  // [1, L] channel-mean series
  Tensor re = MatMul(xm, bc);  // [1, n]
  Tensor im = MatMul(xm, bs);  // [1, n]
  Tensor amp = Sqrt(AddScalar(Add(Mul(re, re), Mul(im, im)), 1e-12f));
  Tensor weights = Softmax(amp, -1);  // [1, n]

  Tensor grid_in = Permute(row, {0, 2, 1});  // [1, M, L]
  Tensor acc;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t period = periods[i].period;
    const int64_t cycles = (length + period - 1) / period;
    // Ragged tail: zero-pad to a whole number of cycles when the period
    // does not divide the window.
    Tensor padded = grid_in;
    if (cycles * period != length) {
      padded = Pad(grid_in, /*dim=*/2, 0, cycles * period - length);
    }
    Tensor grid = Reshape(padded, {1, channels, cycles, period});
    Tensor g = conv2_->Forward(Gelu(conv1_->Forward(grid)));
    Tensor flat = Reshape(g, {1, channels, cycles * period});
    if (cycles * period != length) flat = Slice(flat, 2, 0, length);
    Tensor branch = Permute(flat, {0, 2, 1});  // [1, L, M]
    Tensor w = Reshape(Slice(weights, 1, i, i + 1), {1, 1, 1});
    Tensor term = Mul(w, branch);
    acc = acc.defined() ? Add(acc, term) : term;
  }
  return Add(row, acc);  // Residual around the period-adaptive mix.
}

}  // namespace conformer::models
