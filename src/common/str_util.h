// String helpers shared across the library.
#ifndef S3_COMMON_STR_UTIL_H_
#define S3_COMMON_STR_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace s3 {

// ASCII lowercasing (the library's text pipeline is ASCII-oriented;
// non-ASCII bytes pass through unchanged).
std::string ToLowerAscii(std::string_view in);

// Splits on any of the characters in `delims`, dropping empty pieces.
std::vector<std::string> Split(std::string_view in, std::string_view delims);

// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

// Joins pieces with a separator.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

// Strict non-throwing numeric parsing for untrusted text input
// (snapshot file names, shard metadata): the whole token must be
// consumed; garbage, signs, overflow and empty input return false
// instead of throwing (std::stoul throws, which turns a corrupt file
// into a crash).
bool ParseU64(std::string_view s, uint64_t* out);

}  // namespace s3

#endif  // S3_COMMON_STR_UTIL_H_
