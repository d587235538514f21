#include "doc/inverted_index.h"

#include <algorithm>

#include "common/cow.h"

namespace s3::doc {

namespace {
const std::vector<NodeId> kEmptyPostings;
}  // namespace

void InvertedIndex::Rebuild(const DocumentStore& store) {
  postings_.clear();
  AppendNodes(store, 0);
}

std::shared_ptr<std::vector<NodeId>>& InvertedIndex::Slot(KeywordId k) {
  if (k >= postings_.size()) postings_.resize(k + 1);
  return postings_[k];
}

void InvertedIndex::AddNode(NodeId node,
                            std::span<const KeywordId> keywords) {
  for (KeywordId k : keywords) {
    // Clone-on-shared: another generation may still reference the list.
    auto& list = MutableCow(Slot(k));
    // Nodes are added in increasing id order; avoid duplicates from
    // repeated keywords within one node.
    if (list.empty() || list.back() != node) list.push_back(node);
  }
}

void InvertedIndex::AppendNodes(const DocumentStore& store,
                                NodeId first_new_node) {
  for (NodeId n = first_new_node; n < store.NodeCount(); ++n) {
    AddNode(n, store.Keywords(n));
  }
}

const std::vector<NodeId>& InvertedIndex::Postings(KeywordId k) const {
  return k < postings_.size() && postings_[k] != nullptr ? *postings_[k]
                                                         : kEmptyPostings;
}

std::vector<KeywordId> InvertedIndex::Keywords() const {
  std::vector<KeywordId> out;
  for (KeywordId k = 0; k < postings_.size(); ++k) {
    if (postings_[k] != nullptr) out.push_back(k);
  }
  return out;
}

Status InvertedIndex::AdoptPostings(KeywordId k, std::vector<NodeId> nodes,
                                    size_t node_count) {
  if (nodes.empty()) {
    return Status::InvalidArgument("postings: empty list for keyword " +
                                   std::to_string(k));
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i] >= node_count) {
      return Status::InvalidArgument("postings: node id out of range");
    }
    if (i > 0 && nodes[i] <= nodes[i - 1]) {
      return Status::InvalidArgument(
          "postings: list not strictly ascending");
    }
  }
  Slot(k) = std::make_shared<std::vector<NodeId>>(std::move(nodes));
  return Status::OK();
}

bool InvertedIndex::SharesPostings(const InvertedIndex& other,
                                   KeywordId k) const {
  if (k >= postings_.size() || k >= other.postings_.size()) return false;
  return postings_[k] != nullptr && postings_[k] == other.postings_[k];
}

}  // namespace s3::doc
