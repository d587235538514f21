// Network edges of an S3 instance (paper §2.5): the weighted edges
// "encapsulating quantitative information on the links between users,
// documents and tags" — every S3-namespace property except S3:partOf,
// restricted to endpoints in Ω ∪ D ∪ T.
//
// Inverse properties (S3:postedBy‾ etc.) are stored as first-class
// edges, mirroring the paper's syntactic-sugar definition
// s p̄ o ∈ I iff o p s ∈ I.
//
// Storage is built for the live-update pipeline's copy-on-write
// snapshots: the store is only the append-only edge log, kept in
// fixed-size immutable chunks behind shared_ptr (a copied store shares
// every full chunk and clones only the tail chunk on its next append).
// Per-entity adjacency is not maintained: readers that walk out-edges
// (the transition matrix, the naive reference) index the log into a
// flat OutAdjacency when they need one.
#ifndef S3_SOCIAL_EDGE_STORE_H_
#define S3_SOCIAL_EDGE_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/flat_lists.h"
#include "social/entity.h"

namespace s3::social {

// Label of a network edge. Inverses are separate labels so that a path
// can be reported exactly as traversed.
enum class EdgeLabel : uint8_t {
  kSocial = 0,      // user  -> user
  kPostedBy,        // doc   -> user
  kPostedByInv,     // user  -> doc
  kCommentsOn,      // doc   -> doc
  kCommentsOnInv,   // doc   -> doc
  kHasSubject,      // tag   -> doc or tag
  kHasSubjectInv,   // doc/tag -> tag
  kHasAuthor,       // tag   -> user
  kHasAuthorInv,    // user  -> tag
};

const char* EdgeLabelName(EdgeLabel label);

// Returns the inverse label (kSocial is its own inverse only in the
// sense that no inverse is materialized for it; see AddSocial).
EdgeLabel InverseLabel(EdgeLabel label);

struct NetEdge {
  EntityId source;
  EntityId target;
  EdgeLabel label;
  double weight;
};

// Append-only store of network edges. Copyable in O(chunks); the copy
// shares all edge payloads with the original (see file comment).
class EdgeStore {
 public:
  // Edges per immutable log chunk. All chunks except the last hold
  // exactly this many edges, so edge(i) is two indexations.
  static constexpr uint32_t kChunkSize = 4096;

  // Adds a directed edge. Weight must be in (0, 1].
  void Add(EntityId source, EntityId target, EdgeLabel label,
           double weight = 1.0);

  // Adds an edge and its inverse twin (both weight `weight`).
  void AddWithInverse(EntityId source, EntityId target, EdgeLabel label,
                      double weight = 1.0);

  // The i-th edge of the log (insertion order).
  const NetEdge& edge(uint32_t idx) const {
    return (*chunks_[idx / kChunkSize])[idx % kChunkSize];
  }

  size_t size() const { return n_edges_; }

  // Read-only view of the whole log (insertion order), supporting
  // range-for and operator[] like the vector it replaces.
  class EdgeView {
   public:
    class Iterator {
     public:
      Iterator(const EdgeStore* store, uint32_t idx)
          : store_(store), idx_(idx) {}
      const NetEdge& operator*() const { return store_->edge(idx_); }
      Iterator& operator++() {
        ++idx_;
        return *this;
      }
      bool operator!=(const Iterator& o) const { return idx_ != o.idx_; }
      bool operator==(const Iterator& o) const { return idx_ == o.idx_; }

     private:
      const EdgeStore* store_;
      uint32_t idx_;
    };

    explicit EdgeView(const EdgeStore* store) : store_(store) {}
    Iterator begin() const { return Iterator(store_, 0); }
    Iterator end() const {
      return Iterator(store_, static_cast<uint32_t>(store_->size()));
    }
    const NetEdge& operator[](uint32_t idx) const {
      return store_->edge(idx);
    }
    size_t size() const { return store_->size(); }

   private:
    const EdgeStore* store_;
  };

  EdgeView edges() const { return EdgeView(this); }

  // Calls f(edge) for every edge in log order, chunk by chunk (a
  // cheaper full scan than indexing edge(i) per edge).
  template <typename F>
  void ForEach(F&& f) const {
    for (const auto& chunk : chunks_) {
      for (const NetEdge& e : *chunk) f(e);
    }
  }

  // Number of edges with a given label.
  size_t CountLabel(EdgeLabel label) const;

  // Number of leading log chunks this store shares with `other` (the
  // same heap objects; structural-sharing introspection for tests).
  size_t SharedChunks(const EdgeStore& other) const;

 private:
  using Chunk = std::vector<NetEdge>;

  std::vector<std::shared_ptr<Chunk>> chunks_;
  size_t n_edges_ = 0;
};

// Out-edges grouped by source entity row: each row's list holds the
// edge-log indices of its edges in ascending (log) order, which is the
// order every out-weight sum and transition-matrix row accumulates in.
using OutAdjacency = FlatLists<uint32_t>;

// Indexes the out-edges of every row of `layout` (`want` empty), or
// only of the rows with want[row] != 0 (`want` sized layout.total());
// one stable counting sort over the log.
OutAdjacency IndexOutEdges(const EntityLayout& layout, const EdgeStore& edges,
                           const std::vector<char>& want = {});

// Sum of the weights of `out` (edge-log indices), in list order.
double OutWeight(const EdgeStore& edges, std::span<const uint32_t> out);

}  // namespace s3::social

#endif  // S3_SOCIAL_EDGE_STORE_H_
