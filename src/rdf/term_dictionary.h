// Dictionary encoding of RDF terms (URIs and literals).
//
// Every term that appears as subject/property/object of a triple is
// interned to a dense TermId; the engine manipulates ids only and
// materializes strings back at the API boundary.
#ifndef S3_RDF_TERM_DICTIONARY_H_
#define S3_RDF_TERM_DICTIONARY_H_

#include <cassert>
#include <cstdint>
#include <string_view>

#include "common/string_table.h"

namespace s3::rdf {

using TermId = uint32_t;
inline constexpr TermId kInvalidTerm = UINT32_MAX;
static_assert(kInvalidTerm == StringTable::kNotFound);

// Kind of an interned term. The RDF standard requires subjects and
// properties to be URIs; objects may be URIs or literals.
enum class TermKind : uint8_t { kUri = 0, kLiteral = 1 };

// Append-only interner for RDF terms over one flat string table, with
// the kind as each entry's tag.
class TermDictionary {
 public:
  // Interns `text` with the given kind. Re-interning the same text with
  // the same kind returns the existing id; URIs and literals with equal
  // spelling are distinct terms.
  TermId Intern(std::string_view text, TermKind kind) {
    return table_.Intern(text, static_cast<uint8_t>(kind));
  }

  TermId InternUri(std::string_view uri) {
    return Intern(uri, TermKind::kUri);
  }
  TermId InternLiteral(std::string_view lit) {
    return Intern(lit, TermKind::kLiteral);
  }

  // Returns the id or kInvalidTerm if absent.
  TermId Find(std::string_view text, TermKind kind) const {
    return table_.Find(text, static_cast<uint8_t>(kind));
  }

  // Precondition: id < size(). Text is valid until the next new Intern.
  std::string_view Text(TermId id) const {
    assert(id < size());
    return table_.Text(id);
  }
  TermKind Kind(TermId id) const {
    assert(id < size());
    return static_cast<TermKind>(table_.Tag(id));
  }

  size_t size() const { return table_.size(); }

  // Room for `n` more terms of `bytes` more text in all.
  void Reserve(size_t n, size_t bytes) { table_.Reserve(n, bytes); }

 private:
  StringTable table_;
};

}  // namespace s3::rdf

#endif  // S3_RDF_TERM_DICTIONARY_H_
