#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <istream>

namespace dnlr {

std::vector<std::string_view> SplitAndSkipEmpty(std::string_view text,
                                                char delimiter) {
  std::vector<std::string_view> pieces;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find(delimiter, start);
    if (end == std::string_view::npos) end = text.size();
    if (end > start) pieces.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return pieces;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool ParseUint32(std::string_view text, uint32_t* out) {
  if (text.empty()) return false;
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

bool ParseFloat(std::string_view text, float* out) {
  if (text.empty()) return false;
  // std::from_chars for floating point is not universally available with the
  // needed formats; strtof handles scientific notation portably.
  std::string buffer(text);
  char* end = nullptr;
  const float value = std::strtof(buffer.c_str(), &end);
  if (end != buffer.c_str() + buffer.size()) return false;
  *out = value;
  return true;
}

std::string FormatFixed(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

size_t MaxTokensLeft(std::istream& in) {
  // in_avail() reads the buffer without touching the stream state; on a
  // string stream it is the whole unread rest (-1 once exhausted).
  const std::streamsize left = in.rdbuf()->in_avail();
  return left > 0 ? (static_cast<size_t>(left) + 1) / 2 : 0;
}

}  // namespace dnlr
