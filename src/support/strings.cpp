#include "support/strings.hpp"

#include <cctype>
#include <cstdio>

namespace hls {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string pad_left(std::string_view text, std::size_t width) {
  std::string s(text);
  if (s.size() < width) s.insert(0, width - s.size(), ' ');
  return s;
}

std::string pad_right(std::string_view text, std::size_t width) {
  std::string s(text);
  if (s.size() < width) s.append(width - s.size(), ' ');
  return s;
}

std::string fmt_fixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, value);
  return buf;
}

std::string indexed_name(std::string_view prefix, long long index) {
  std::string s(prefix);
  s += std::to_string(index);
  return s;
}

}  // namespace hls
