#include "baselines/naive.h"

namespace conformer::models {

Tensor NaiveForecaster::Forward(const data::Batch& batch) const {
  const int64_t lx = batch.x.size(1);
  Tensor last = Slice(batch.x, 1, lx - 1, lx);  // [B, 1, D]
  std::vector<int64_t> reps = {1, window_.pred_len, 1};
  return Tile(last.Detach(), reps);
}

}  // namespace conformer::models
