#include "core/series_decomposition.h"

namespace conformer::core {

Decomposition DecomposeSeries(const Tensor& x, int64_t kernel) {
  CONFORMER_CHECK_EQ(x.dim(), 3) << "DecomposeSeries expects [B, L, D]";
  CONFORMER_CHECK_GE(kernel, 1);
  const int64_t length = x.size(1);
  // Keep the window odd and no wider than the sequence so the average stays
  // centred.
  if (kernel > length) kernel = length;
  if (kernel % 2 == 0) kernel -= 1;
  if (kernel < 1) kernel = 1;

  Tensor trend = MovingAverage(x, /*dim=*/1, kernel);
  return Decomposition{trend, Sub(x, trend)};
}

}  // namespace conformer::core
