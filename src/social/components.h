// Connected components of documents and tags under
// S3:partOf ∪ S3:commentsOn± ∪ S3:hasSubject± edges (paper §5.2).
//
// Connections (con tuples, §3.2) propagate only along these edges, so a
// fragment can match a query keyword iff its component matches it. The
// component partition is the pruning structure behind GetDocuments.
//
// The index keeps its union-find forest after Build so the live-update
// pipeline can extend the partition incrementally: BuildIncremental
// remaps the forest into the post-delta row space, unions only the
// delta's linking edges and the new documents' partOf clusters, and
// re-assigns component ids with the same row scan a from-scratch Build
// would run — the resulting partition (and id assignment) is identical
// to rebuilding, at O(rows + delta edges) instead of O(rows + all
// edges).
#ifndef S3_SOCIAL_COMPONENTS_H_
#define S3_SOCIAL_COMPONENTS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/flat_lists.h"
#include "common/status.h"
#include "common/storage_span.h"
#include "doc/document_store.h"
#include "social/edge_store.h"
#include "social/entity.h"

namespace s3::social {

using ComponentId = uint32_t;
inline constexpr ComponentId kInvalidComponent = UINT32_MAX;

class ComponentIndex {
 public:
  // Computes the partition. Only fragment and tag entities belong to
  // components; users map to kInvalidComponent.
  void Build(const EntityLayout& layout, const EdgeStore& edges,
             const doc::DocumentStore& docs);

  // Live-update path: builds this index from `base`, the pre-delta
  // partition (only read; its forest may be a mapped view), extended
  // to the post-delta populations: documents with id >= first_new_doc
  // contribute partOf unions, edge log entries >= first_new_edge
  // contribute commentsOn/hasSubject unions (endpoints may be
  // pre-delta entities — old components can merge).
  // `old_tag_base`/`n_new_fragments` describe the tag-row shift, as in
  // TransitionMatrix::IncrementalUpdate.
  void BuildIncremental(const ComponentIndex& base,
                        const EntityLayout& new_layout,
                        const EdgeStore& edges,
                        const doc::DocumentStore& docs,
                        doc::DocId first_new_doc, uint32_t first_new_edge,
                        uint32_t old_tag_base, uint32_t n_new_fragments);

  ComponentId OfRow(uint32_t row) const { return comp_of_row_[row]; }
  ComponentId Of(EntityId e) const;

  // Members (entity rows) of one component, ascending.
  std::span<const uint32_t> Members(ComponentId c) const {
    return members_[c];
  }

  size_t ComponentCount() const { return members_.keys(); }

  // ---- snapshot (de)serialization hooks --------------------------------

  // The persisted union-find forest is the canonical serialized form:
  // comp_of_row_/members_ are re-derived from it on adoption by the
  // same ordered row scan Build runs, so the component-id assignment of
  // a reloaded snapshot matches the saved instance exactly (path
  // compression changes parent entries but never roots). May be
  // view-backed after an mmap attach; nothing mutates it in place —
  // path compression happens only inside Build/BuildIncremental on
  // owned scratch before adoption.
  const StorageSpan<uint32_t>& forest() const { return uf_parent_; }

  // Binary-load path: adopts a deserialized forest (size and parent
  // range validated, user rows must be singletons) and assigns
  // component ids. `layout` must outlive this index.
  Status AdoptForest(const EntityLayout& layout,
                     StorageSpan<uint32_t> forest);

 private:
  // Re-derives comp_of_row_ / members_ from the union-find forest by
  // scanning rows in order (the id-assignment convention shared by the
  // full and incremental builds). Read-only over uf_parent_: roots are
  // resolved through a memoized side table instead of path compression,
  // so a view-backed forest is never written through.
  void AssignComponents(const EntityLayout& layout);

  const EntityLayout* layout_ = nullptr;
  std::vector<ComponentId> comp_of_row_;
  FlatLists<uint32_t> members_;  // by component id
  // Union-find forest over entity rows, kept after Build for
  // incremental extension.
  StorageSpan<uint32_t> uf_parent_;
};

}  // namespace s3::social

#endif  // S3_SOCIAL_COMPONENTS_H_
