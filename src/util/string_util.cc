#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace conformer {

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : text) {
    if (c == sep) {
      parts.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  parts.push_back(current);
  return parts;
}

std::string Strip(const std::string& text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string ToLower(const std::string& text) {
  std::string out = text;
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

Result<double> ParseDouble(const std::string& text) {
  const std::string stripped = Strip(text);
  if (stripped.empty()) {
    return Status::InvalidArgument("empty string is not a number");
  }
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(stripped.c_str(), &end);
  if (errno != 0 || end != stripped.c_str() + stripped.size()) {
    return Status::InvalidArgument("cannot parse double: '" + text + "'");
  }
  return value;
}

Result<int64_t> ParseInt(const std::string& text) {
  const std::string stripped = Strip(text);
  if (stripped.empty()) {
    return Status::InvalidArgument("empty string is not an integer");
  }
  errno = 0;
  char* end = nullptr;
  int64_t value = std::strtoll(stripped.c_str(), &end, 10);
  if (errno != 0 || end != stripped.c_str() + stripped.size()) {
    return Status::InvalidArgument("cannot parse integer: '" + text + "'");
  }
  return value;
}

std::string FormatFixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return std::string(buf);
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (unsigned char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

}  // namespace conformer
