// Multivariate time-series container: a timestamp column plus a dense
// row-major value matrix [num_points, dims].

#ifndef CONFORMER_DATA_TIME_SERIES_H_
#define CONFORMER_DATA_TIME_SERIES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace conformer::data {

class TimeSeries {
 public:
  TimeSeries() = default;
  /// `values` is row-major [num_points, dims]; timestamps are Unix seconds.
  TimeSeries(std::string name, std::vector<int64_t> timestamps,
             std::vector<float> values, int64_t dims,
             std::vector<std::string> column_names = {});

  const std::string& name() const { return name_; }
  int64_t num_points() const { return static_cast<int64_t>(timestamps_.size()); }
  int64_t dims() const { return dims_; }

  const std::vector<int64_t>& timestamps() const { return timestamps_; }
  const std::vector<float>& values() const { return values_; }
  std::vector<float>& mutable_values() { return values_; }
  const std::vector<std::string>& column_names() const { return column_names_; }

  float value(int64_t point, int64_t dim) const {
    return values_[point * dims_ + dim];
  }
  void set_value(int64_t point, int64_t dim, float v) {
    values_[point * dims_ + dim] = v;
  }

  /// The column forecast under the univariate setting (default: last).
  int64_t target_column() const { return target_column_; }
  void set_target_column(int64_t column);

  /// Rows [begin, end) as a new TimeSeries.
  TimeSeries Slice(int64_t begin, int64_t end) const;

  /// A single column as a univariate TimeSeries.
  TimeSeries Column(int64_t dim) const;

  /// Pearson correlation between two columns (Fig. 2 support).
  double ColumnCorrelation(int64_t a, int64_t b) const;

 private:
  std::string name_;
  std::vector<int64_t> timestamps_;
  std::vector<float> values_;
  int64_t dims_ = 0;
  int64_t target_column_ = 0;
  std::vector<std::string> column_names_;
};

}  // namespace conformer::data

#endif  // CONFORMER_DATA_TIME_SERIES_H_
