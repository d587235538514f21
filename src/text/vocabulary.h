// Keyword interning: maps keyword strings (stemmed words and URIs,
// paper's set K) to dense integer ids used throughout the engine.
#ifndef S3_TEXT_VOCABULARY_H_
#define S3_TEXT_VOCABULARY_H_

#include <cassert>
#include <cstdint>
#include <string_view>

#include "common/string_table.h"

namespace s3 {

// Dense id of an interned keyword.
using KeywordId = uint32_t;
inline constexpr KeywordId kInvalidKeyword = UINT32_MAX;
static_assert(kInvalidKeyword == StringTable::kNotFound);

// Append-only string interner over one flat string table. Ids are
// assigned densely from 0 in insertion order; lookups never invalidate
// ids.
class Vocabulary {
 public:
  // Returns the id of `keyword`, interning it if new.
  KeywordId Intern(std::string_view keyword) {
    return table_.Intern(keyword, 0);
  }

  // Returns the id of `keyword` or kInvalidKeyword if absent.
  KeywordId Find(std::string_view keyword) const {
    return table_.Find(keyword, 0);
  }

  // Precondition: id < size(). Valid until the next new Intern.
  std::string_view Spelling(KeywordId id) const {
    assert(id < size());
    return table_.Text(id);
  }

  size_t size() const { return table_.size(); }

  // Room for `n` more keywords of `bytes` more text in all (the
  // snapshot decoder sizes the table once from the section).
  void Reserve(size_t n, size_t bytes) { table_.Reserve(n, bytes); }

 private:
  StringTable table_;
};

}  // namespace s3

#endif  // S3_TEXT_VOCABULARY_H_
