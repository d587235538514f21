#include "common/str_util.h"

#include <cctype>
#include <charconv>

namespace s3 {

std::string ToLowerAscii(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    out.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

std::vector<std::string> Split(std::string_view in, std::string_view delims) {
  std::vector<std::string> out;
  std::string current;
  for (char c : in) {
    if (delims.find(c) != std::string_view::npos) {
      if (!current.empty()) {
        out.push_back(std::move(current));
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) out.push_back(std::move(current));
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

bool ParseU64(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  // from_chars accepts no sign for unsigned types: ids are plain
  // decimal digits only, and the whole token must be consumed.
  const char* begin = s.data();
  const char* end = begin + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace s3
