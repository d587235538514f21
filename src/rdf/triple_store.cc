#include "rdf/triple_store.h"

#include <algorithm>
#include <string>

namespace s3::rdf {

bool TripleStore::Add(TermId s, TermId p, TermId o, double weight) {
  const size_t n = triples_.size();
  if (dup_count_ != n || 2 * (n + 1) > dup_slots_.size()) {
    size_t slots = std::max<size_t>(16, dup_slots_.size());
    while (2 * (n + 1) > slots) slots *= 2;
    RehashDup(slots);
  }
  const size_t i = DupSlot(s, p, o);
  if (dup_slots_[i] != kNoTriple) {
    triples_[dup_slots_[i]].weight = weight;
    return false;
  }
  dup_slots_[i] = static_cast<uint32_t>(n);
  triples_.push_back(Triple{s, p, o, weight});
  ++dup_count_;
  return true;
}

size_t TripleStore::DupSlot(TermId s, TermId p, TermId o) const {
  uint64_t h = s;
  h = h * 0x9e3779b97f4a7c15ULL + p;
  h = h * 0x9e3779b97f4a7c15ULL + o;
  h ^= h >> 32;
  const size_t mask = dup_slots_.size() - 1;
  const Triple key{s, p, o};
  size_t i = static_cast<size_t>(h) & mask;
  while (dup_slots_[i] != kNoTriple && !(triples_[dup_slots_[i]] == key)) {
    i = (i + 1) & mask;
  }
  return i;
}

void TripleStore::RehashDup(size_t slots) {
  dup_slots_.assign(slots, kNoTriple);
  for (uint32_t idx = 0; idx < triples_.size(); ++idx) {
    const Triple& t = triples_[idx];
    dup_slots_[DupSlot(t.subject, t.property, t.object)] = idx;
  }
  dup_count_ = triples_.size();
}

Status TripleStore::Adopt(std::vector<Triple> triples) {
  if (!triples_.empty()) {
    return Status::FailedPrecondition(
        "TripleStore::Adopt on a non-empty store");
  }
  triples_ = std::move(triples);
  dup_slots_.clear();
  dup_count_ = 0;
  BuildIndex();
  indexed_.store(triples_.size(), std::memory_order_release);
  // by_ps_ lists each (property, subject) run together: a repeated
  // (s, p, o) is an object seen twice within one run.
  std::vector<uint32_t> seen_in_run(
      prop_begin_.empty() ? 0 : prop_begin_.size() - 1, UINT32_MAX);
  uint32_t run = 0;
  for (size_t i = 0; i < by_ps_.size(); ++i) {
    const Triple& t = triples_[by_ps_[i]];
    if (i > 0) {
      const Triple& prev = triples_[by_ps_[i - 1]];
      if (prev.property != t.property || prev.subject != t.subject) ++run;
    }
    if (seen_in_run[t.object] == run) {
      return Status::InvalidArgument("duplicate triple at index " +
                                     std::to_string(by_ps_[i]));
    }
    seen_in_run[t.object] = run;
  }
  return Status::OK();
}

void TripleStore::EnsureIndexed() const {
  if (indexed_.load(std::memory_order_acquire) == triples_.size()) return;
  std::lock_guard<std::mutex> lock(index_mu_);
  if (indexed_.load(std::memory_order_relaxed) == triples_.size()) return;
  BuildIndex();
  indexed_.store(triples_.size(), std::memory_order_release);
}

void TripleStore::BuildIndex() const {
  const size_t n = triples_.size();
  TermId max_id = 0;
  for (const Triple& t : triples_) {
    max_id = std::max({max_id, t.subject, t.property, t.object});
  }
  const size_t keys = n == 0 ? 0 : static_cast<size_t>(max_id) + 1;
  // Stable counting sort of `order` (the identity when null) by one
  // field; returns the key offsets it sorted into.
  auto sort_by = [&](const std::vector<uint32_t>* order, TermId Triple::*field,
                     std::vector<uint32_t>& out) {
    std::vector<uint32_t> begin(keys + 1, 0);
    for (const Triple& t : triples_) ++begin[static_cast<size_t>(t.*field) + 1];
    for (size_t k = 1; k <= keys; ++k) begin[k] += begin[k - 1];
    std::vector<uint32_t> offsets = begin;
    out.resize(n);
    for (size_t j = 0; j < n; ++j) {
      const uint32_t idx = order == nullptr ? static_cast<uint32_t>(j)
                                            : (*order)[j];
      out[begin[triples_[idx].*field]++] = idx;
    }
    return offsets;
  };
  prop_begin_ = sort_by(nullptr, &Triple::property, by_p_);
  std::vector<uint32_t> by_field;
  sort_by(nullptr, &Triple::subject, by_field);
  sort_by(&by_field, &Triple::property, by_ps_);
  sort_by(nullptr, &Triple::object, by_field);
  sort_by(&by_field, &Triple::property, by_po_);
}

std::span<const uint32_t> TripleStore::Narrow(
    const std::vector<uint32_t>& perm, TermId p, TermId Triple::*field,
    TermId value) const {
  if (static_cast<size_t>(p) + 1 >= prop_begin_.size()) return {};
  const uint32_t* first = perm.data() + prop_begin_[p];
  const uint32_t* last = perm.data() + prop_begin_[p + 1];
  first = std::lower_bound(first, last, value,
                           [&](uint32_t idx, TermId v) {
                             return triples_[idx].*field < v;
                           });
  last = std::upper_bound(first, last, value,
                          [&](TermId v, uint32_t idx) {
                            return v < triples_[idx].*field;
                          });
  return {first, last};
}

bool TripleStore::Contains(TermId s, TermId p, TermId o) const {
  for (uint32_t idx : WithPropertySubject(p, s)) {
    if (triples_[idx].object == o) return true;
  }
  return false;
}

double TripleStore::Weight(TermId s, TermId p, TermId o) const {
  for (uint32_t idx : WithPropertySubject(p, s)) {
    if (triples_[idx].object == o) return triples_[idx].weight;
  }
  return 0.0;
}

std::span<const uint32_t> TripleStore::WithProperty(TermId p) const {
  EnsureIndexed();
  if (static_cast<size_t>(p) + 1 >= prop_begin_.size()) return {};
  return {by_p_.data() + prop_begin_[p], by_p_.data() + prop_begin_[p + 1]};
}

std::span<const uint32_t> TripleStore::WithPropertySubject(TermId p,
                                                           TermId s) const {
  EnsureIndexed();
  return Narrow(by_ps_, p, &Triple::subject, s);
}

std::span<const uint32_t> TripleStore::WithPropertyObject(TermId p,
                                                          TermId o) const {
  EnsureIndexed();
  return Narrow(by_po_, p, &Triple::object, o);
}

}  // namespace s3::rdf
