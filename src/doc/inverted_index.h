// Inverted index: keyword -> postings of fragments that directly
// contain it. This is the access path behind the `S3:contains`
// connections of con(d, k) (paper §3.2) and behind workload
// construction (keyword document frequencies).
//
// The directory is a KeywordId-indexed vector of postings lists, each
// held behind shared_ptr so that a copied index (the live-update
// pipeline's snapshot-to-snapshot copy) shares every untouched list
// with its parent; AddNode copies a list only when it is about to
// mutate one that another generation still references (copy-on-write
// at keyword granularity).
#ifndef S3_DOC_INVERTED_INDEX_H_
#define S3_DOC_INVERTED_INDEX_H_

#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "doc/document_store.h"
#include "text/vocabulary.h"

namespace s3::doc {

class InvertedIndex {
 public:
  // Indexes every node of every document in `store`. May be called once
  // after ingestion; Rebuild discards previous state.
  void Rebuild(const DocumentStore& store);

  // Adds a single node's keywords (incremental ingestion). Nodes must
  // be added in increasing id order. Copy-on-write: a postings list
  // shared with another index generation is cloned before the append.
  void AddNode(NodeId node, std::span<const KeywordId> keywords);

  // Appends every node of `store` with id >= first_new_node, in id
  // order — the delta-application path.
  void AppendNodes(const DocumentStore& store, NodeId first_new_node);

  // Fragments whose content directly contains `k` (no extension, no
  // ancestor propagation), sorted, deduplicated.
  const std::vector<NodeId>& Postings(KeywordId k) const;

  // Number of fragments directly containing k.
  size_t DocumentFrequency(KeywordId k) const { return Postings(k).size(); }

  // Number of distinct indexed keywords.
  size_t KeywordCount() const { return Keywords().size(); }

  // All indexed keyword ids, ascending.
  std::vector<KeywordId> Keywords() const;

  // True if this index shares keyword k's postings list with `other`
  // (structural-sharing introspection for tests).
  bool SharesPostings(const InvertedIndex& other, KeywordId k) const;

  // Binary-load path: installs one deserialized postings list,
  // validating the sorted-unique invariant AddNode maintains and the
  // node-id bound. Discards any previous list for `k`.
  Status AdoptPostings(KeywordId k, std::vector<NodeId> nodes,
                       size_t node_count);

 private:
  // Mutable slot of k's list, growing the directory as needed.
  std::shared_ptr<std::vector<NodeId>>& Slot(KeywordId k);

  // postings_[k] is null for a keyword no indexed node contains.
  std::vector<std::shared_ptr<std::vector<NodeId>>> postings_;
};

}  // namespace s3::doc

#endif  // S3_DOC_INVERTED_INDEX_H_
