#ifndef DNLR_COMMON_STRING_UTIL_H_
#define DNLR_COMMON_STRING_UTIL_H_

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace dnlr {

/// Splits `text` on `delimiter`, omitting empty pieces (so runs of blanks in
/// LETOR lines collapse). Returned views alias `text`.
std::vector<std::string_view> SplitAndSkipEmpty(std::string_view text,
                                                char delimiter);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// Parses a non-negative integer; returns false on malformed input.
bool ParseUint32(std::string_view text, uint32_t* out);

/// Parses a float (accepts scientific notation); returns false on malformed
/// input or trailing garbage.
bool ParseFloat(std::string_view text, float* out);

/// Formats `value` with `digits` digits after the decimal point.
std::string FormatFixed(double value, int digits);

/// Most whitespace-separated tokens the unread rest of a string stream can
/// still hold (each takes a byte plus a separator). Text parsers check a
/// declared count against it before allocating for it, so a forged count
/// in a few bytes of input fails to parse instead of exhausting memory.
size_t MaxTokensLeft(std::istream& in);

}  // namespace dnlr

#endif  // DNLR_COMMON_STRING_UTIL_H_
