#include "rdf/saturation.h"

#include <unordered_map>
#include <vector>

#include "rdf/vocab.h"

namespace s3::rdf {

namespace {

// Bundle of interned built-in property ids.
struct Builtins {
  TermId type;
  TermId sub_class;
  TermId sub_property;
  TermId domain;
  TermId range;
};

bool IsSchemaProperty(const Builtins& b, TermId p) {
  return p == b.sub_class || p == b.sub_property || p == b.domain ||
         p == b.range;
}

// The fixpoint's own join index: the store's triple indices by
// property, (property, subject) and (property, object), in insertion
// order, kept current as rules derive triples. The store's flat lookups
// re-index on the first lookup after an Add, so joining through them
// would re-index the whole store once per derived triple.
class JoinIndex {
 public:
  explicit JoinIndex(const TripleStore& store) : store_(store) {
    for (uint32_t idx = 0; idx < store.size(); ++idx) Insert(idx);
  }

  // Indexes the triple the store just appended.
  void Insert(uint32_t idx) {
    const Triple& t = store_.triples()[idx];
    by_p_[t.property].push_back(idx);
    by_ps_[Pair(t.property, t.subject)].push_back(idx);
    by_po_[Pair(t.property, t.object)].push_back(idx);
  }

  const std::vector<uint32_t>& WithProperty(TermId p) const {
    return Find(by_p_, p);
  }
  const std::vector<uint32_t>& WithPropertySubject(TermId p,
                                                   TermId s) const {
    return Find(by_ps_, Pair(p, s));
  }
  const std::vector<uint32_t>& WithPropertyObject(TermId p,
                                                  TermId o) const {
    return Find(by_po_, Pair(p, o));
  }

 private:
  static uint64_t Pair(TermId a, TermId b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }
  template <typename Map>
  static const std::vector<uint32_t>& Find(const Map& map,
                                           typename Map::key_type key) {
    static const std::vector<uint32_t> kNone;
    auto it = map.find(key);
    return it == map.end() ? kNone : it->second;
  }

  const TripleStore& store_;
  std::unordered_map<TermId, std::vector<uint32_t>> by_p_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> by_ps_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> by_po_;
};

// Semi-naive fixpoint seeded with `delta`: joins only the seed (and the
// triples it derives) against the store, which makes the same routine
// serve both full saturation (seed = every weight-1 triple) and
// incremental maintenance (seed = the newly added triples).
SaturationStats RunFixpoint(TermDictionary& dict, TripleStore& store,
                            std::vector<Triple> delta) {
  Builtins b{
      dict.InternUri(vocab::kType),
      dict.InternUri(vocab::kSubClassOf),
      dict.InternUri(vocab::kSubPropertyOf),
      dict.InternUri(vocab::kDomain),
      dict.InternUri(vocab::kRange),
  };

  SaturationStats stats;
  stats.input_triples = store.size();
  JoinIndex index(store);

  auto derive = [&](TermId s, TermId p, TermId o,
                    std::vector<Triple>& next_delta) {
    if (store.Add(s, p, o, 1.0)) {
      index.Insert(static_cast<uint32_t>(store.size() - 1));
      next_delta.push_back(Triple{s, p, o, 1.0});
      ++stats.derived_triples;
    }
  };

  std::vector<Triple> next_delta;
  while (!delta.empty()) {
    ++stats.rounds;
    next_delta.clear();
    for (const Triple& t : delta) {
      if (t.weight != 1.0) continue;
      const TermId s = t.subject, p = t.property, o = t.object;

      // Joins below only consume weight-1 premises (paper §2.1).
      // Matches are collected before deriving: Add() may grow the very
      // index vectors being scanned (e.g. with cyclic schemas).
      auto for_po = [&](TermId prop, TermId obj, auto&& fn) {
        std::vector<TermId> matches;
        for (uint32_t idx : index.WithPropertyObject(prop, obj)) {
          const Triple& a = store.triples()[idx];
          if (a.weight == 1.0) matches.push_back(a.subject);
        }
        for (TermId m : matches) fn(m);
      };
      auto for_ps = [&](TermId prop, TermId subj, auto&& fn) {
        std::vector<TermId> matches;
        for (uint32_t idx : index.WithPropertySubject(prop, subj)) {
          const Triple& a = store.triples()[idx];
          if (a.weight == 1.0) matches.push_back(a.object);
        }
        for (TermId m : matches) fn(m);
      };

      if (p == b.sub_class) {
        // Transitivity: (s ≺sc o), (o ≺sc x) ⊢ (s ≺sc x); and join the
        // other side: (x ≺sc s) ⊢ (x ≺sc o).
        for_ps(b.sub_class, o,
               [&](TermId x) { derive(s, b.sub_class, x, next_delta); });
        for_po(b.sub_class, s,
               [&](TermId x) { derive(x, b.sub_class, o, next_delta); });
        // Membership lift for instances already typed with s.
        for_po(b.type, s,
               [&](TermId inst) { derive(inst, b.type, o, next_delta); });
      } else if (p == b.sub_property) {
        for_ps(b.sub_property, o,
               [&](TermId x) { derive(s, b.sub_property, x, next_delta); });
        for_po(b.sub_property, s,
               [&](TermId x) { derive(x, b.sub_property, o, next_delta); });
        // Propagate existing assertions of the sub-property.
        std::vector<Triple> assertions;
        for (uint32_t idx : index.WithProperty(s)) {
          const Triple& a = store.triples()[idx];
          if (a.weight == 1.0) assertions.push_back(a);
        }
        for (const Triple& a : assertions) {
          derive(a.subject, o, a.object, next_delta);
        }
      } else if (p == b.domain) {
        // (s ←d o): type every existing subject of property s.
        std::vector<Triple> assertions;
        for (uint32_t idx : index.WithProperty(s)) {
          const Triple& a = store.triples()[idx];
          if (a.weight == 1.0) assertions.push_back(a);
        }
        for (const Triple& a : assertions) {
          derive(a.subject, b.type, o, next_delta);
        }
      } else if (p == b.range) {
        std::vector<Triple> assertions;
        for (uint32_t idx : index.WithProperty(s)) {
          const Triple& a = store.triples()[idx];
          if (a.weight == 1.0) assertions.push_back(a);
        }
        for (const Triple& a : assertions) {
          derive(a.object, b.type, o, next_delta);
        }
      } else if (p == b.type) {
        // Membership lift through all superclasses.
        for_ps(b.sub_class, o,
               [&](TermId super) { derive(s, b.type, super, next_delta); });
      }

      if (!IsSchemaProperty(b, p) && p != b.type) {
        // Assertion triple (s p o): fire sub-property propagation,
        // domain and range typing against the schema.
        for_ps(b.sub_property, p,
               [&](TermId super) { derive(s, super, o, next_delta); });
        for_ps(b.domain, p,
               [&](TermId c) { derive(s, b.type, c, next_delta); });
        for_ps(b.range, p,
               [&](TermId c) { derive(o, b.type, c, next_delta); });
      }
    }
    delta.swap(next_delta);
  }
  return stats;
}

}  // namespace

SaturationStats Saturate(TermDictionary& dict, TripleStore& store) {
  std::vector<Triple> seed;
  seed.reserve(store.size());
  for (const Triple& t : store.triples()) {
    if (t.weight == 1.0) seed.push_back(t);
  }
  return RunFixpoint(dict, store, std::move(seed));
}

SaturationStats SaturateIncremental(TermDictionary& dict,
                                    TripleStore& store,
                                    const std::vector<Triple>& delta) {
  std::vector<Triple> seed;
  seed.reserve(delta.size());
  for (const Triple& t : delta) {
    // Insert the new triples first so rule joins can see them.
    if (store.Add(t.subject, t.property, t.object, t.weight) &&
        t.weight == 1.0) {
      seed.push_back(t);
    }
  }
  return RunFixpoint(dict, store, std::move(seed));
}

}  // namespace s3::rdf
