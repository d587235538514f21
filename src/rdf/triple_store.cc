#include "rdf/triple_store.h"

namespace s3::rdf {

namespace {
const std::vector<uint32_t> kEmptyIndexList;
}  // namespace

bool TripleStore::Add(TermId s, TermId p, TermId o, double weight) {
  Triple t{s, p, o, weight};
  auto it = key_index_.find(t);
  if (it != key_index_.end()) {
    triples_[it->second].weight = weight;
    return false;
  }
  uint32_t idx = static_cast<uint32_t>(triples_.size());
  triples_.push_back(t);
  key_index_.emplace(t, idx);
  by_property_[p].push_back(idx);
  by_property_subject_[Pair(p, s)].push_back(idx);
  by_property_object_[Pair(p, o)].push_back(idx);
  return true;
}

bool TripleStore::Contains(TermId s, TermId p, TermId o) const {
  return key_index_.contains(Triple{s, p, o, 0.0});
}

double TripleStore::Weight(TermId s, TermId p, TermId o) const {
  auto it = key_index_.find(Triple{s, p, o, 0.0});
  return it == key_index_.end() ? 0.0 : triples_[it->second].weight;
}

const std::vector<uint32_t>& TripleStore::WithProperty(TermId p) const {
  auto it = by_property_.find(p);
  return it == by_property_.end() ? kEmptyIndexList : it->second;
}

const std::vector<uint32_t>& TripleStore::WithPropertySubject(
    TermId p, TermId s) const {
  auto it = by_property_subject_.find(Pair(p, s));
  return it == by_property_subject_.end() ? kEmptyIndexList : it->second;
}

const std::vector<uint32_t>& TripleStore::WithPropertyObject(
    TermId p, TermId o) const {
  auto it = by_property_object_.find(Pair(p, o));
  return it == by_property_object_.end() ? kEmptyIndexList : it->second;
}

}  // namespace s3::rdf
