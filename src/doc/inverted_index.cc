#include "doc/inverted_index.h"

#include <algorithm>

namespace s3::doc {

template <typename Emit>
void InvertedIndex::EmitNodes(const DocumentStore& store, NodeId first,
                              Emit&& emit) {
  for (NodeId n = first; n < store.NodeCount(); ++n) {
    const std::span<const KeywordId> kws = store.Keywords(n);
    for (size_t i = 0; i < kws.size(); ++i) {
      // A keyword repeated within one node is posted once.
      if (std::find(kws.begin(), kws.begin() + i, kws[i]) ==
          kws.begin() + i) {
        emit(kws[i], n);
      }
    }
  }
}

size_t InvertedIndex::KeywordBound(const DocumentStore& store,
                                   NodeId first) {
  size_t bound = 0;
  for (NodeId n = first; n < store.NodeCount(); ++n) {
    for (KeywordId k : store.Keywords(n)) {
      bound = std::max(bound, static_cast<size_t>(k) + 1);
    }
  }
  return bound;
}

void InvertedIndex::Rebuild(const DocumentStore& store) {
  postings_.Build(KeywordBound(store, 0), [&](auto&& emit) {
    EmitNodes(store, 0, emit);
  });
}

void InvertedIndex::Extend(const InvertedIndex& base,
                           const DocumentStore& store,
                           NodeId first_new_node) {
  const size_t n_keys = std::max(base.postings_.keys(),
                                 KeywordBound(store, first_new_node));
  postings_.Splice(base.postings_, n_keys, [&](auto&& emit) {
    EmitNodes(store, first_new_node, emit);
  });
}

std::vector<KeywordId> InvertedIndex::Keywords() const {
  std::vector<KeywordId> out;
  for (KeywordId k = 0; k < postings_.keys(); ++k) {
    if (!postings_[k].empty()) out.push_back(k);
  }
  return out;
}

}  // namespace s3::doc
