#include "data/csv_loader.h"

#include <fstream>
#include <sstream>

#include "util/civil_time.h"
#include "util/string_util.h"

namespace conformer::data {

namespace {

// Diagnostic prefix in the compiler-style "file:line[:column]:" form, with
// 1-based lines (the header is line 1) and 1-based field columns.
std::string At(const std::string& name, int64_t line) {
  return name + ":" + std::to_string(line);
}

std::string At(const std::string& name, int64_t line, int64_t column) {
  return At(name, line) + ":" + std::to_string(column);
}

}  // namespace

Result<TimeSeries> ParseCsv(const std::string& text, const std::string& name,
                            const CsvOptions& options) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || Strip(line).empty()) {
    return Status::InvalidArgument(At(name, 1) +
                                   ": empty CSV (no header row)");
  }

  const std::vector<std::string> header = Split(Strip(line), options.separator);
  int64_t date_col = -1;
  std::vector<std::string> columns;
  std::vector<int64_t> value_cols;
  for (int64_t i = 0; i < static_cast<int64_t>(header.size()); ++i) {
    const std::string col = Strip(header[i]);
    if (date_col < 0 && ToLower(col) == ToLower(options.date_column)) {
      date_col = i;
    } else {
      columns.push_back(col);
      value_cols.push_back(i);
    }
  }
  if (columns.empty()) {
    return Status::InvalidArgument(At(name, 1) + ": CSV has no value columns");
  }

  std::vector<int64_t> timestamps;
  std::vector<float> values;
  int64_t row_index = 0;
  int64_t line_number = 1;  // The header was line 1.
  while (std::getline(in, line)) {
    ++line_number;
    const std::string stripped = Strip(line);
    if (stripped.empty()) continue;
    const std::vector<std::string> fields = Split(stripped, options.separator);
    if (fields.size() != header.size()) {
      return Status::InvalidArgument(
          At(name, line_number) + ": ragged row: " +
          std::to_string(fields.size()) + " fields, expected " +
          std::to_string(header.size()));
    }
    if (date_col >= 0) {
      Result<int64_t> ts = ParseTimestamp(Strip(fields[date_col]));
      if (!ts.ok()) {
        return Status::InvalidArgument(At(name, line_number, date_col + 1) +
                                       ": bad timestamp: " +
                                       ts.status().message());
      }
      timestamps.push_back(ts.value());
    } else {
      timestamps.push_back(options.start_unix +
                           row_index * options.interval_seconds);
    }
    for (size_t c = 0; c < value_cols.size(); ++c) {
      const int64_t col = value_cols[c];
      Result<double> v = ParseDouble(fields[col]);
      if (!v.ok()) {
        return Status::InvalidArgument(
            At(name, line_number, col + 1) + ": non-numeric field in column '" +
            columns[c] + "': " + v.status().message());
      }
      values.push_back(static_cast<float>(v.value()));
    }
    ++row_index;
  }
  if (timestamps.empty()) {
    return Status::InvalidArgument(At(name, line_number) +
                                   ": CSV has no data rows");
  }
  const int64_t dims = static_cast<int64_t>(columns.size());
  return TimeSeries(name, std::move(timestamps), std::move(values), dims,
                    std::move(columns));
}

Result<TimeSeries> LoadCsv(const std::string& path, const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseCsv(buffer.str(), path, options);
}

}  // namespace conformer::data
