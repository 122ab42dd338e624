// CSV loader for the real benchmark files (ETTh1.csv etc.): a header row
// with a leading date column, then one float column per variable.

#ifndef CONFORMER_DATA_CSV_LOADER_H_
#define CONFORMER_DATA_CSV_LOADER_H_

#include <string>

#include "data/time_series.h"
#include "util/status.h"

namespace conformer::data {

/// \brief Parsing options.
struct CsvOptions {
  char separator = ',';
  /// Name of the timestamp column (matched case-insensitively); when the
  /// file has no such column, rows are stamped `interval_seconds` apart.
  std::string date_column = "date";
  int64_t interval_seconds = 3600;
  int64_t start_unix = 1577836800;
};

/// Loads `path` into a TimeSeries; every non-date column becomes a variable.
/// Malformed input (ragged rows, non-numeric fields, bad timestamps, empty
/// files) fails with a compiler-style `file:line[:column]:` diagnostic
/// instead of a best-effort parse.
Result<TimeSeries> LoadCsv(const std::string& path,
                           const CsvOptions& options = {});

/// Parses CSV text directly (used by tests).
Result<TimeSeries> ParseCsv(const std::string& text, const std::string& name,
                            const CsvOptions& options = {});

}  // namespace conformer::data

#endif  // CONFORMER_DATA_CSV_LOADER_H_
