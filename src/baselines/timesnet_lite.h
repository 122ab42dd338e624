// TimesNet-lite baseline (Wu et al., ICLR 2023 recipe, grounding the
// frequency-decomposition related-work line of MMFNet / TFDNet): select the
// top-k dominant periods of the input from its real-FFT amplitude spectrum,
// fold the embedded series into a (cycles x period) grid per period, run a
// small 2-D conv block over each grid, and recombine the per-period branches
// with softmax amplitude weights plus a residual.
//
// Two deliberate deviations from the reference implementation, both
// documented in DESIGN.md:
//   * Period selection is per series (per batch row), not batch-mean: a
//     row's forecast is a pure function of that row, so the serving layer's
//     batched-vs-single bitwise-transparency contract holds.
//   * The non-differentiable frequency index selection happens on the host
//     (so a static-plan trace fails and the model serves eagerly);
//     the amplitude weights are then recomputed differentiably by projecting
//     the channel-mean series onto the selected cos/sin basis, keeping them
//     on the autograd tape exactly as the exemplars' topk-amplitude softmax.

#ifndef CONFORMER_BASELINES_TIMESNET_LITE_H_
#define CONFORMER_BASELINES_TIMESNET_LITE_H_

#include <memory>
#include <vector>

#include "baselines/forecaster.h"
#include "fft/autocorrelation.h"
#include "nn/conv2d.h"
#include "nn/linear.h"

namespace conformer::models {

class TimesNetLite : public Forecaster {
 public:
  TimesNetLite(data::WindowConfig window, int64_t dims, int64_t d_model = 32,
               int64_t top_k = 3);

  Tensor Forward(const data::Batch& batch) const override;
  std::string name() const override { return "TimesNet-lite"; }

  /// Dominant periods of one embedded row [1, L, M] — exposed for tests.
  std::vector<fft::PeriodCandidate> SelectPeriods(const Tensor& row) const;

 private:
  /// The period-adaptive block over one row [1, L, M]: fold / conv /
  /// recombine with residual.
  Tensor PeriodBlock(const Tensor& row) const;

  int64_t top_k_;
  std::shared_ptr<nn::Linear> embed_;      // D -> M
  std::shared_ptr<nn::Conv2dLayer> conv1_; // M -> M over (cycles, period)
  std::shared_ptr<nn::Conv2dLayer> conv2_; // M -> M
  std::shared_ptr<nn::Linear> time_head_;  // L -> pred_len
  std::shared_ptr<nn::Linear> proj_;       // M -> D
};

}  // namespace conformer::models

#endif  // CONFORMER_BASELINES_TIMESNET_LITE_H_
