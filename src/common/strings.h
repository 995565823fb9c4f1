#ifndef RRRE_COMMON_STRINGS_H_
#define RRRE_COMMON_STRINGS_H_

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace rrre::common {

/// Splits `s` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits `s` on runs of ASCII whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Parses all of `s` as a whole decimal number into the integer `*out`:
/// ASCII digits only (no sign, no whitespace) and within T's range. Leaves
/// `*out` untouched and returns false otherwise.
template <typename T>
bool ParseWholeNumber(std::string_view s, T* out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  const char* end = s.data() + s.size();
  const std::from_chars_result r = std::from_chars(s.data(), end, *out);
  return r.ec == std::errc() && r.ptr == end;
}

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace rrre::common

#endif  // RRRE_COMMON_STRINGS_H_
