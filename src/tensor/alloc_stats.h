// Process-wide tensor allocation accounting. The Fig. 5 memory-cost bench
// compares peak allocation across attention mechanisms, so every TensorImpl
// reports its data buffer here, and its gradient buffer while it holds one;
// float state an op saves for its backward is a Storage, counted the same.

#ifndef CONFORMER_TENSOR_ALLOC_STATS_H_
#define CONFORMER_TENSOR_ALLOC_STATS_H_

#include <cstdint>

namespace conformer {

/// \brief Snapshot of tensor buffer accounting.
struct AllocStats {
  int64_t current_bytes = 0;  ///< Bytes currently alive.
  int64_t peak_bytes = 0;     ///< High-water mark since the last reset.
  int64_t total_allocs = 0;   ///< Number of buffers created since reset.
};

/// Returns the current accounting snapshot.
AllocStats GetAllocStats();

/// Resets `peak_bytes` to the current live size and zeroes `total_allocs`.
void ResetAllocPeak();

namespace internal {
void RecordAlloc(int64_t bytes);
void RecordFree(int64_t bytes);
}  // namespace internal

}  // namespace conformer

#endif  // CONFORMER_TENSOR_ALLOC_STATS_H_
