// Weighted RDF triple store with SPO/POS/OSP-style access paths.
//
// The S3 model (paper §2.1) works on a *weighted* RDF graph: each triple
// (s, p, o, w) carries a weight w in [0, 1], defaulting to 1. Saturation
// (RDFS entailment) only consumes and produces weight-1 triples.
#ifndef S3_RDF_TRIPLE_STORE_H_
#define S3_RDF_TRIPLE_STORE_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
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

// In-memory triple store. Insertion is append-only; (s,p,o) is a key
// (re-inserting updates the weight). Lookup structures:
//   - by property           (POS order)
//   - by (property, subject)
//   - by (property, object)
class TripleStore {
 public:
  // Adds or updates a triple. Returns true if the triple was new.
  bool Add(TermId s, TermId p, TermId o, double weight = 1.0);

  bool Contains(TermId s, TermId p, TermId o) const;

  // Weight of (s,p,o); 0.0 if absent.
  double Weight(TermId s, TermId p, TermId o) const;

  // Indices (into triples()) of all triples with property p.
  const std::vector<uint32_t>& WithProperty(TermId p) const;

  // Indices of all triples with property p and subject s.
  const std::vector<uint32_t>& WithPropertySubject(TermId p, TermId s) const;

  // Indices of all triples with property p and object o.
  const std::vector<uint32_t>& WithPropertyObject(TermId p, TermId o) const;

  const std::vector<Triple>& triples() const { return triples_; }
  size_t size() const { return triples_.size(); }

 private:
  struct KeyHash {
    size_t operator()(const Triple& t) const {
      uint64_t h = t.subject;
      h = h * 0x9e3779b97f4a7c15ULL + t.property;
      h = h * 0x9e3779b97f4a7c15ULL + t.object;
      return static_cast<size_t>(h ^ (h >> 32));
    }
  };

  static uint64_t Pair(TermId a, TermId b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  std::vector<Triple> triples_;
  std::unordered_map<Triple, uint32_t, KeyHash> key_index_;
  std::unordered_map<TermId, std::vector<uint32_t>> by_property_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> by_property_subject_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> by_property_object_;
};

}  // namespace s3::rdf

#endif  // S3_RDF_TRIPLE_STORE_H_
