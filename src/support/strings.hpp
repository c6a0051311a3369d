// String formatting and manipulation helpers used across the HLS library.
//
// GCC 12 does not ship std::format, so `strf` provides a tiny stream-based
// substitute that is sufficient for diagnostics and report generation.
#pragma once

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace hls {

namespace detail {
inline void strf_append(std::ostringstream&) {}

template <typename T, typename... Rest>
void strf_append(std::ostringstream& os, const T& v, const Rest&... rest) {
  os << v;
  strf_append(os, rest...);
}
}  // namespace detail

/// Concatenates all arguments using operator<< into a single string.
template <typename... Args>
std::string strf(const Args&... args) {
  std::ostringstream os;
  detail::strf_append(os, args...);
  return os.str();
}

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Left-pads `text` with spaces to at least `width` characters.
std::string pad_left(std::string_view text, std::size_t width);

/// Right-pads `text` with spaces to at least `width` characters.
std::string pad_right(std::string_view text, std::size_t width);

/// Formats a double with `digits` digits after the decimal point.
std::string fmt_fixed(double value, int digits);

/// `prefix` followed by the decimal `index` ("x3"): the indexed port and
/// value names the workload generators use. Built by appending; gcc 12 at
/// -O3 reports a false -Wrestrict overlap on `"x" + std::to_string(i)`.
std::string indexed_name(std::string_view prefix, long long index);

}  // namespace hls
