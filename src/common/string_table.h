// Append-only string interner stored flat: one text arena, one end
// offset and one tag byte per entry, and an open-addressed table of
// entry ids.
//
// This is the store behind the keyword vocabulary and the RDF term
// dictionary. Interning a string appends its bytes to the arena and
// its id to the table; no entry owns a heap string, a lookup hashes the
// caller's view in place, and a copy is four memcpys. An entry is a
// (text, tag) pair: the same spelling under two tags is two entries
// (the term dictionary keeps URIs and literals apart this way).
#ifndef S3_COMMON_STRING_TABLE_H_
#define S3_COMMON_STRING_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace s3 {

class StringTable {
 public:
  static constexpr uint32_t kNotFound = UINT32_MAX;

  // Id of (text, tag), or kNotFound.
  uint32_t Find(std::string_view text, uint8_t tag) const;

  // Id of (text, tag), appending it under the next id if it is new.
  uint32_t Intern(std::string_view text, uint8_t tag);

  // Precondition: id < size(). The view is invalidated by the next
  // Intern of a new entry (the arena may move).
  std::string_view Text(uint32_t id) const {
    const uint32_t begin = id == 0 ? 0 : ends_[id - 1];
    return std::string_view(arena_.data() + begin, ends_[id] - begin);
  }
  uint8_t Tag(uint32_t id) const { return tags_[id]; }

  size_t size() const { return tags_.size(); }

  // Makes room for `n` more entries holding `bytes` more text in all,
  // so that interning them neither grows the table nor the arena.
  void Reserve(size_t n, size_t bytes);

 private:
  static size_t Hash(std::string_view text, uint8_t tag);
  bool Matches(uint32_t id, std::string_view text, uint8_t tag) const {
    return tags_[id] == tag && Text(id) == text;
  }
  // Re-slots every entry into a table of `slots` (a power of two).
  void Rehash(size_t slots);

  std::string arena_;
  std::vector<uint32_t> ends_;  // entry id -> end of its text in arena_
  std::vector<uint8_t> tags_;
  // Entry ids, kNotFound where empty; a power of two in size, at most
  // half full, probed linearly.
  std::vector<uint32_t> slots_;
};

}  // namespace s3

#endif  // S3_COMMON_STRING_TABLE_H_
