#include "util/linalg.h"

#include <cmath>

#include "util/logging.h"

namespace conformer {

namespace {

// Sum of a[k] * b[k] for k in [0, n), accumulated in ascending k.
double Dot(const double* a, const double* b, int64_t n) {
  double acc = 0.0;
  for (int64_t k = 0; k < n; ++k) acc += a[k] * b[k];
  return acc;
}

}  // namespace

Status CholeskyFactor(std::vector<double>* a_in, int64_t n) {
  CONFORMER_CHECK_EQ(static_cast<int64_t>(a_in->size()), n * n);
  std::vector<double>& a = *a_in;
  for (int64_t j = 0; j < n; ++j) {
    const double diag = a[j * n + j] - Dot(&a[j * n], &a[j * n], j);
    if (diag <= 0.0) {
      return Status::InvalidArgument(
          "matrix is not positive definite (pivot " + std::to_string(j) + ")");
    }
    const double ljj = std::sqrt(diag);
    a[j * n + j] = ljj;
    for (int64_t i = j + 1; i < n; ++i) {
      a[i * n + j] = (a[i * n + j] - Dot(&a[i * n], &a[j * n], j)) / ljj;
    }
  }
  return Status::OK();
}

void CholeskySolveInPlace(const std::vector<double>& l, int64_t n,
                          std::vector<double>* b_in) {
  CONFORMER_CHECK_EQ(static_cast<int64_t>(b_in->size()), n);
  std::vector<double>& b = *b_in;
  // Forward substitution: L y = b.
  for (int64_t i = 0; i < n; ++i) {
    b[i] = (b[i] - Dot(&l[i * n], b.data(), i)) / l[i * n + i];
  }
  // Back substitution: L^T x = y.
  for (int64_t i = n - 1; i >= 0; --i) {
    double acc = b[i];
    for (int64_t k = i + 1; k < n; ++k) acc -= l[k * n + i] * b[k];
    b[i] = acc / l[i * n + i];
  }
}

Result<std::vector<double>> RidgeLeastSquares(const std::vector<double>& x,
                                              int64_t rows, int64_t features,
                                              const std::vector<double>& y,
                                              int64_t outputs, double ridge) {
  CONFORMER_CHECK_EQ(static_cast<int64_t>(x.size()), rows * features);
  CONFORMER_CHECK_EQ(static_cast<int64_t>(y.size()), rows * outputs);
  CONFORMER_CHECK_GE(ridge, 0.0);

  // Gram matrix X^T X + ridge I: accumulate the upper triangle of each
  // row's rank-1 update, then mirror it.
  std::vector<double> gram(features * features, 0.0);
  for (int64_t r = 0; r < rows; ++r) {
    const double* row = x.data() + r * features;
    for (int64_t i = 0; i < features; ++i) {
      for (int64_t j = i; j < features; ++j) {
        gram[i * features + j] += row[i] * row[j];
      }
    }
  }
  for (int64_t i = 0; i < features; ++i) {
    for (int64_t j = 0; j < i; ++j) gram[i * features + j] = gram[j * features + i];
    gram[i * features + i] += ridge;
  }

  CONFORMER_RETURN_IF_ERROR(CholeskyFactor(&gram, features));

  // X^T Y, solved column by column.
  std::vector<double> w(features * outputs, 0.0);
  std::vector<double> rhs(features);
  for (int64_t o = 0; o < outputs; ++o) {
    std::fill(rhs.begin(), rhs.end(), 0.0);
    for (int64_t r = 0; r < rows; ++r) {
      const double target = y[r * outputs + o];
      const double* row = x.data() + r * features;
      for (int64_t i = 0; i < features; ++i) rhs[i] += target * row[i];
    }
    CholeskySolveInPlace(gram, features, &rhs);
    for (int64_t i = 0; i < features; ++i) w[i * outputs + o] = rhs[i];
  }
  return w;
}

}  // namespace conformer
