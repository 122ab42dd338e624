// Small string helpers used by the CSV loader, configuration parsing, and
// the bench table printers.

#ifndef CONFORMER_UTIL_STRING_UTIL_H_
#define CONFORMER_UTIL_STRING_UTIL_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace conformer {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> Split(const std::string& text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string Strip(const std::string& text);

/// ASCII lower-casing.
std::string ToLower(const std::string& text);

/// Strict parses (whole string must be consumed).
Result<double> ParseDouble(const std::string& text);
Result<int64_t> ParseInt(const std::string& text);

/// Formats a double with `digits` fractional digits, e.g. 0.2124 -> "0.2124".
std::string FormatFixed(double value, int digits);

/// Escapes `text` for embedding inside a JSON string literal (quotes,
/// backslashes, and control characters; no surrounding quotes added).
std::string JsonEscape(const std::string& text);

}  // namespace conformer

#endif  // CONFORMER_UTIL_STRING_UTIL_H_
