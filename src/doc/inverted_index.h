// Inverted index: keyword -> postings of fragments that directly
// contain it. This is the access path behind the `S3:contains`
// connections of con(d, k) (paper §3.2) and behind workload
// construction (keyword document frequencies).
//
// The postings are one KeywordId-keyed FlatLists: an offsets array and
// one node array, each list ascending. A successor generation splices
// its new nodes onto the base's lists in one linear pass (node ids only
// grow, so each list stays ascending), and a snapshot decoder adopts
// the INDEX section's lists as they come.
#ifndef S3_DOC_INVERTED_INDEX_H_
#define S3_DOC_INVERTED_INDEX_H_

#include <span>
#include <vector>

#include "common/flat_lists.h"
#include "doc/document_store.h"
#include "text/vocabulary.h"

namespace s3::doc {

class InvertedIndex {
 public:
  InvertedIndex() = default;
  // Adopts decoded postings (snapshot load): every list non-empty where
  // present, strictly ascending and in node range (the decoder checked).
  explicit InvertedIndex(FlatLists<NodeId> postings)
      : postings_(std::move(postings)) {}

  // Indexes every node of every document in `store`; Rebuild discards
  // previous state.
  void Rebuild(const DocumentStore& store);

  // The delta path: `base`'s postings with every node of `store` with
  // id >= first_new_node appended, in id order.
  void Extend(const InvertedIndex& base, const DocumentStore& store,
              NodeId first_new_node);

  // Fragments whose content directly contains `k` (no extension, no
  // ancestor propagation), sorted, deduplicated.
  std::span<const NodeId> Postings(KeywordId k) const { return postings_[k]; }

  // Number of fragments directly containing k.
  size_t DocumentFrequency(KeywordId k) const { return Postings(k).size(); }

  // Number of distinct indexed keywords.
  size_t KeywordCount() const { return Keywords().size(); }

  // All indexed keyword ids, ascending.
  std::vector<KeywordId> Keywords() const;

 private:
  // Emits (keyword, node) for every node in [first, store.NodeCount()),
  // each keyword once per node, in node order.
  template <typename Emit>
  static void EmitNodes(const DocumentStore& store, NodeId first,
                        Emit&& emit);
  // One past the largest keyword of nodes >= first (0 if none).
  static size_t KeywordBound(const DocumentStore& store, NodeId first);

  FlatLists<NodeId> postings_;
};

}  // namespace s3::doc

#endif  // S3_DOC_INVERTED_INDEX_H_
