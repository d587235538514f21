// Tree-shaped documents (paper §2.3): unranked ordered trees whose
// nodes have a name, a URI, and a bag of (stemmed) content keywords.
// Every subtree rooted at a node is a *fragment*, identified by the
// URI/id of its root node.
//
// Document is the builder type: parsers, generators, deltas and the
// WAL codec assemble a tree here, and DocumentStore::AddDocument copies
// it into the store's flat per-node arrays. A registered document is
// never held as a Document; node URIs and ids are the store's.
#ifndef S3_DOC_DOCUMENT_H_
#define S3_DOC_DOCUMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "text/vocabulary.h"

namespace s3::doc {

// Global fragment/node identifier, assigned by the DocumentStore.
using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = UINT32_MAX;

// Document identifier (index of the document in its store).
using DocId = uint32_t;
inline constexpr DocId kInvalidDoc = UINT32_MAX;

// One node of a document tree under construction.
struct Node {
  uint32_t parent = UINT32_MAX;      // local index of parent, none for root
  std::string name;                  // element name (S3:nodeName)
  std::vector<KeywordId> keywords;   // content keywords (S3:contains)
  std::vector<uint32_t> children;    // local indices, in document order
};

// An ordered tree under construction. Node 0 is the root; every other
// node's parent has a smaller local index.
class Document {
 public:
  // Creates a document with a root node named `root_name`.
  explicit Document(std::string root_name);

  // Appends a child under local node `parent_local`; returns the new
  // node's local index. Precondition: parent_local < NodeCount().
  uint32_t AddChild(uint32_t parent_local, std::string name);

  // Appends content keywords to a node.
  void AddKeywords(uint32_t local, const std::vector<KeywordId>& kws);

  const Node& node(uint32_t local) const { return nodes_[local]; }
  size_t NodeCount() const { return nodes_.size(); }

 private:
  std::vector<Node> nodes_;
};

}  // namespace s3::doc

#endif  // S3_DOC_DOCUMENT_H_
