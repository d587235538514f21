// Owns all documents of an instance as flat per-node arrays and assigns
// global NodeIds.
//
// Layout. A document's nodes are contiguous global ids in local order,
// so GlobalId(d, local) is first_node_[d] + local and LocalOf is a
// subtraction. Each node keeps its owning document, its parent (a
// global id), its depth and a name id into a small per-store name
// table; content keywords and children (in document order) are two
// CSRs. Root URIs live in one string arena, indexed by an open-addressed
// table with one entry per document. A node's URI is derived, not
// stored: the root URI plus the dotted 1-based sibling positions from
// the root down ("d0", "d0.1", "d0.1.2", the paper's Dewey-style
// fragment URIs of §2.3). So the store holds no per-node string,
// vector or hash entry, and a copy (a live-update successor) is a
// handful of flat array copies.
//
// Every node URI names exactly one node: AddDocument refuses a
// document any of whose node URIs some registered node already has,
// whichever of the two was registered first — including a root URI
// that looks derived, like "a.1" beside a root "a" with a first child.
//
// The store also answers the structural queries the engine needs:
// vertical neighborhoods (paper Definition 2.2), root lookup, URI
// resolution, and pos-length between comparable fragments — all from
// the parent and depth arrays.
#ifndef S3_DOC_DOCUMENT_STORE_H_
#define S3_DOC_DOCUMENT_STORE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "doc/document.h"

namespace s3::doc {

class DocumentStore {
 public:
  // Registers a finished document under `root_uri` and returns its
  // DocId. Fails with AlreadyExists, leaving the store unchanged, if
  // any of its node URIs is already taken.
  Result<DocId> AddDocument(const Document& doc, std::string_view root_uri);

  // Node-by-node registration, for decoders that never build a
  // Document (the snapshot DOCS section). AppendNode each node in
  // local order — the root first with parent_local UINT32_MAX, every
  // other node with a parent_local below its own local index — then
  // CommitDocument. Until then the nodes are pending: no accessor
  // sees them. CommitDocument refuses a taken URI like AddDocument and
  // drops the pending nodes; so does DropPending.
  void AppendNode(uint32_t parent_local, std::string_view name,
                  std::span<const KeywordId> keywords);
  Result<DocId> CommitDocument(std::string_view root_uri);
  void DropPending();

  // Registers a copy of document `d` of `source` (another store) under
  // the same root URI, node by node through AppendNode and
  // CommitDocument; fails like AddDocument.
  Result<DocId> AddDocumentFrom(const DocumentStore& source, DocId d);

  // Capacity for `n_docs` more documents holding `n_nodes` nodes and
  // `n_keywords` keyword occurrences in all.
  void Reserve(size_t n_docs, size_t n_nodes, size_t n_keywords);

  // OK iff registering `doc` under `root_uri` would give no node a URI
  // some node of this store already has; AlreadyExists otherwise.
  Status CheckUrisFree(const Document& doc, std::string_view root_uri) const;

  size_t DocumentCount() const { return first_node_.size() - 1; }
  size_t NodeCount() const { return first_node_.back(); }
  // Document d's nodes are the global ids RootNode(d) + [0, NodeCount(d)).
  uint32_t NodeCount(DocId d) const {
    return first_node_[d + 1] - first_node_[d];
  }

  // Mapping between global node ids and (document, local index).
  DocId DocOf(NodeId n) const { return doc_of_[n]; }
  uint32_t LocalOf(NodeId n) const { return n - first_node_[doc_of_[n]]; }
  NodeId RootNode(DocId d) const { return first_node_[d]; }
  NodeId GlobalId(DocId d, uint32_t local) const {
    return first_node_[d] + local;
  }

  // Per-node tree data. Parent is kInvalidNode for a root; the root has
  // depth 0.
  NodeId Parent(NodeId n) const { return parent_[n]; }
  uint32_t Depth(NodeId n) const { return depth_[n]; }
  std::string_view Name(NodeId n) const { return names_[name_[n]]; }
  std::span<const KeywordId> Keywords(NodeId n) const {
    return {kw_items_.data() + kw_offsets_[n],
            kw_items_.data() + kw_offsets_[n + 1]};
  }
  // Children in document order (ascending global ids).
  std::span<const NodeId> Children(NodeId n) const {
    return {child_items_.data() + child_offsets_[n],
            child_items_.data() + child_offsets_[n + 1]};
  }

  // URI of a node, derived from its document's root URI, and node
  // lookup by URI.
  std::string_view RootUri(DocId d) const {
    return std::string_view(uri_arena_)
        .substr(uri_offsets_[d], uri_offsets_[d + 1] - uri_offsets_[d]);
  }
  std::string Uri(NodeId n) const;
  Result<NodeId> FindByUri(std::string_view uri) const;

  // Vertical neighbors of `n` (paper Def. 2.2): strict ancestors,
  // nearest first, then strict descendants in preorder; `n` itself is
  // NOT included.
  std::vector<NodeId> VerticalNeighbors(NodeId n) const;

  // True if a and b are vertical neighbors (one a fragment of the
  // other, a != b).
  bool AreVerticalNeighbors(NodeId a, NodeId b) const;

  // |pos(ancestor, descendant)|. Precondition: same document and
  // ancestor-or-self relation holds.
  size_t PosLength(NodeId ancestor, NodeId descendant) const;

 private:
  // One root-URI table entry: the first `len` bytes of document
  // `doc`'s root URI. A root has an entry for its whole URI and, when
  // the URI ends in dotted sibling positions ("x.2.1"), one for each
  // base those positions could extend ("x.2", "x") — the entries that
  // find a later document whose nodes would take the root's URI.
  struct UriSlot {
    DocId doc = kInvalidDoc;
    uint32_t len = 0;
  };

  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  uint32_t InternName(std::string_view name);
  DocId FindRoot(std::string_view uri) const;
  // Calls fn(slot) for every table entry whose key is `key`, until fn
  // returns true.
  template <typename Fn>
  void ForEachSlot(std::string_view key, Fn&& fn) const;
  void InsertSlot(DocId d, uint32_t len);
  // Grows the table (never shrinks it) to hold `entries` at load <= 1/2.
  void RehashSlots(size_t entries);
  // The uniqueness rule over a would-be document under `root_uri`;
  // has_path(steps) says whether it has a node at those sibling
  // positions below its root.
  template <typename HasPath>
  Status CheckUris(std::string_view root_uri, HasPath&& has_path) const;
  // Node at 1-based sibling positions `steps` below `from`, or
  // kInvalidNode.
  NodeId Descend(NodeId from, std::span<const uint32_t> steps) const;
  // Per document (DocumentCount() + 1 entries).
  std::vector<NodeId> first_node_{0};
  std::vector<size_t> uri_offsets_{0};
  std::string uri_arena_;
  std::vector<UriSlot> uri_slots_;  // power-of-two capacity, or empty
  size_t uri_slots_used_ = 0;

  // Per node (pending nodes included until commit).
  std::vector<DocId> doc_of_;
  std::vector<NodeId> parent_;
  std::vector<uint32_t> depth_;
  std::vector<uint32_t> name_;
  std::vector<uint32_t> kw_offsets_{0};
  std::vector<KeywordId> kw_items_;
  // Committed nodes only: filled per document at commit.
  std::vector<uint32_t> child_offsets_{0};
  std::vector<NodeId> child_items_;

  // Distinct node names, by name id.
  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t, NameHash, std::equal_to<>>
      name_ids_;
};

}  // namespace s3::doc

#endif  // S3_DOC_DOCUMENT_STORE_H_
