#include "data/time_series.h"

#include <cmath>

#include "util/logging.h"

namespace conformer::data {

TimeSeries::TimeSeries(std::string name, std::vector<int64_t> timestamps,
                       std::vector<float> values, int64_t dims,
                       std::vector<std::string> column_names)
    : name_(std::move(name)),
      timestamps_(std::move(timestamps)),
      values_(std::move(values)),
      dims_(dims),
      column_names_(std::move(column_names)) {
  CONFORMER_CHECK_GT(dims_, 0);
  CONFORMER_CHECK_EQ(static_cast<int64_t>(values_.size()),
                     static_cast<int64_t>(timestamps_.size()) * dims_)
      << "value matrix does not match timestamps x dims";
  if (column_names_.empty()) {
    for (int64_t d = 0; d < dims_; ++d) {
      column_names_.push_back("col" + std::to_string(d));
    }
  }
  CONFORMER_CHECK_EQ(static_cast<int64_t>(column_names_.size()), dims_);
  target_column_ = dims_ - 1;
}

void TimeSeries::set_target_column(int64_t column) {
  CONFORMER_CHECK(column >= 0 && column < dims_);
  target_column_ = column;
}

TimeSeries TimeSeries::Slice(int64_t begin, int64_t end) const {
  CONFORMER_CHECK(begin >= 0 && end <= num_points() && begin < end)
      << "bad slice [" << begin << ", " << end << ")";
  std::vector<int64_t> ts(timestamps_.begin() + begin, timestamps_.begin() + end);
  std::vector<float> vals(values_.begin() + begin * dims_,
                          values_.begin() + end * dims_);
  TimeSeries out(name_, std::move(ts), std::move(vals), dims_, column_names_);
  out.target_column_ = target_column_;
  return out;
}

TimeSeries TimeSeries::Column(int64_t dim) const {
  CONFORMER_CHECK(dim >= 0 && dim < dims_);
  std::vector<float> vals(num_points());
  for (int64_t i = 0; i < num_points(); ++i) vals[i] = value(i, dim);
  TimeSeries out(name_ + "/" + column_names_[dim], timestamps_, std::move(vals),
                 1, {column_names_[dim]});
  return out;
}

double TimeSeries::ColumnCorrelation(int64_t a, int64_t b) const {
  const int64_t n = num_points();
  CONFORMER_CHECK_GT(n, 1);
  double mean_a = 0.0;
  double mean_b = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    mean_a += value(i, a);
    mean_b += value(i, b);
  }
  mean_a /= static_cast<double>(n);
  mean_b /= static_cast<double>(n);
  double cov = 0.0;
  double var_a = 0.0;
  double var_b = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double da = value(i, a) - mean_a;
    const double db = value(i, b) - mean_b;
    cov += da * db;
    var_a += da * da;
    var_b += db * db;
  }
  const double denom = std::sqrt(var_a * var_b);
  return denom > 0.0 ? cov / denom : 0.0;
}

}  // namespace conformer::data
