// Weighted RDF triple store with SPO/POS/OSP-style access paths.
//
// The S3 model (paper §2.1) works on a *weighted* RDF graph: each triple
// (s, p, o, w) carries a weight w in [0, 1], defaulting to 1. Saturation
// (RDFS entailment) only consumes and produces weight-1 triples.
#ifndef S3_RDF_TRIPLE_STORE_H_
#define S3_RDF_TRIPLE_STORE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "common/status.h"
#include "rdf/term_dictionary.h"

namespace s3::rdf {

// One weighted RDF statement.
struct Triple {
  TermId subject = kInvalidTerm;
  TermId property = kInvalidTerm;
  TermId object = kInvalidTerm;
  double weight = 1.0;

  bool operator==(const Triple& other) const {
    return subject == other.subject && property == other.property &&
           object == other.object;
  }
};

// In-memory triple store: one triple array, (s,p,o) a key (re-inserting
// updates the weight). Lookups read three flat permutations of the
// triple indices, grouped by property under one offsets array:
//   - by property                 (index order)
//   - by (property, subject)      (subject, then index order)
//   - by (property, object)       (object, then index order)
// They are built by counting sorts on the first lookup after an Add (a
// snapshot attach builds them at Adopt), so a lookup is an offsets read
// plus a binary search, and a batch of Adds costs one linear re-index.
// Add finds duplicates in its own open-addressed table of indices.
//
// Lookups are safe from several threads at once; Add is not safe
// against anything else running on the store.
class TripleStore {
 public:
  TripleStore() = default;
  TripleStore(const TripleStore&) = delete;
  TripleStore& operator=(const TripleStore&) = delete;

  // Adds or updates a triple. Returns true if the triple was new.
  bool Add(TermId s, TermId p, TermId o, double weight = 1.0);

  // Snapshot decode path: installs `triples` (store order) into an
  // empty store and indexes them. InvalidArgument on a repeated
  // (s, p, o).
  Status Adopt(std::vector<Triple> triples);

  bool Contains(TermId s, TermId p, TermId o) const;

  // Weight of (s,p,o); 0.0 if absent.
  double Weight(TermId s, TermId p, TermId o) const;

  // Indices (into triples()) of all triples with property p, ascending.
  // A span is invalidated by the next Add.
  std::span<const uint32_t> WithProperty(TermId p) const;

  // Indices of all triples with property p and subject s, ascending.
  std::span<const uint32_t> WithPropertySubject(TermId p, TermId s) const;

  // Indices of all triples with property p and object o, ascending.
  std::span<const uint32_t> WithPropertyObject(TermId p, TermId o) const;

  const std::vector<Triple>& triples() const { return triples_; }
  size_t size() const { return triples_.size(); }

 private:
  // Rebuilds the lookup permutations if an Add has outdated them.
  void EnsureIndexed() const;
  void BuildIndex() const;
  // The property group of `perm`, narrowed to the triples whose
  // `field` equals `value`.
  std::span<const uint32_t> Narrow(const std::vector<uint32_t>& perm,
                                   TermId p, TermId Triple::*field,
                                   TermId value) const;
  // Slot of (s,p,o) in dup_slots_: its index, or the empty slot where
  // it would go.
  size_t DupSlot(TermId s, TermId p, TermId o) const;
  void RehashDup(size_t slots);

  std::vector<Triple> triples_;

  // Duplicate table for Add: triple indices, kNoTriple where empty; a
  // power of two in size, at most half full. Covers the first
  // dup_count_ triples (Adopt leaves it empty until the first Add).
  static constexpr uint32_t kNoTriple = UINT32_MAX;
  std::vector<uint32_t> dup_slots_;
  size_t dup_count_ = 0;

  // Lookup permutations over the first indexed_ triples. All three are
  // grouped by property: group p is [prop_begin_[p], prop_begin_[p+1]).
  mutable std::mutex index_mu_;
  mutable std::atomic<size_t> indexed_{0};
  mutable std::vector<uint32_t> prop_begin_;
  mutable std::vector<uint32_t> by_p_;
  mutable std::vector<uint32_t> by_ps_;
  mutable std::vector<uint32_t> by_po_;
};

}  // namespace s3::rdf

#endif  // S3_RDF_TRIPLE_STORE_H_
