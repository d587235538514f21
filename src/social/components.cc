#include "social/components.h"

#include <cassert>
#include <numeric>

namespace s3::social {

namespace {

// Plain union-find with path halving and union by size, operating on a
// caller-owned parent vector (so the forest can persist in the index).
class UnionFind {
 public:
  explicit UnionFind(std::vector<uint32_t>& parent)
      : parent_(parent), size_(parent.size(), 1) {}

  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<uint32_t>& parent_;
  std::vector<uint32_t> size_;
};

}  // namespace

void ComponentIndex::AssignComponents(const EntityLayout& layout) {
  const uint32_t total = layout.total();
  comp_of_row_.assign(total, kInvalidComponent);
  // Non-mutating root resolution: walk each unresolved chain up to its
  // root (or to a row whose root is already memoized) and backfill the
  // memo along the walked path — O(rows) amortized, and the forest
  // itself (possibly a view into an mmap'd snapshot) is never written.
  std::vector<uint32_t> root_of(total, UINT32_MAX);
  std::vector<uint32_t> path;
  auto resolve_root = [&](uint32_t row) {
    path.clear();
    uint32_t x = row;
    while (root_of[x] == UINT32_MAX && uf_parent_[x] != x) {
      path.push_back(x);
      x = uf_parent_[x];
    }
    const uint32_t root = root_of[x] == UINT32_MAX ? x : root_of[x];
    root_of[x] = root;
    for (uint32_t p : path) root_of[p] = root;
    return root;
  };
  std::vector<ComponentId> root_to_comp(total, kInvalidComponent);
  ComponentId n_comps = 0;
  for (uint32_t row = 0; row < total; ++row) {
    EntityKind kind = layout.Entity(row).kind();
    if (kind == EntityKind::kUser) continue;
    uint32_t root = resolve_root(row);
    ComponentId c = root_to_comp[root];
    if (c == kInvalidComponent) {
      c = n_comps++;
      root_to_comp[root] = c;
    }
    comp_of_row_[row] = c;
  }
  members_.Build(n_comps, [&](auto&& emit) {
    for (uint32_t row = 0; row < total; ++row) {
      if (comp_of_row_[row] != kInvalidComponent) emit(comp_of_row_[row], row);
    }
  });
}

Status ComponentIndex::AdoptForest(const EntityLayout& layout,
                                   StorageSpan<uint32_t> forest) {
  const uint32_t total = layout.total();
  if (forest.size() != total) {
    return Status::InvalidArgument("component forest: row count mismatch");
  }
  for (uint32_t row = 0; row < total; ++row) {
    if (forest[row] >= total) {
      return Status::InvalidArgument(
          "component forest: parent out of range at row " +
          std::to_string(row));
    }
    // Users never join components, so their rows are always their own
    // roots in a well-formed snapshot.
    if (layout.Entity(row).kind() == EntityKind::kUser &&
        forest[row] != row) {
      return Status::InvalidArgument(
          "component forest: user row not a singleton");
    }
  }
  // A parent cycle would hang UnionFind::Find, so corrupt input must be
  // rejected before adoption. One O(rows) pass: walk each unvisited
  // chain; meeting this walk's own stamp before a root or a
  // known-terminating row is a cycle.
  {
    std::vector<uint32_t> stamp(total, UINT32_MAX);
    const uint32_t kDone = total;
    for (uint32_t row = 0; row < total; ++row) {
      uint32_t x = row;
      while (stamp[x] != kDone && forest[x] != x) {
        if (stamp[x] == row) {
          return Status::InvalidArgument(
              "component forest: parent cycle at row " +
              std::to_string(x));
        }
        stamp[x] = row;
        x = forest[x];
      }
      for (x = row; stamp[x] == row; x = forest[x]) stamp[x] = kDone;
      stamp[x] = kDone;
    }
  }
  layout_ = &layout;
  uf_parent_ = std::move(forest);
  AssignComponents(layout);
  return Status::OK();
}

void ComponentIndex::Build(const EntityLayout& layout,
                           const EdgeStore& edges,
                           const doc::DocumentStore& docs) {
  layout_ = &layout;
  const uint32_t total = layout.total();
  std::vector<uint32_t> parent(total);
  std::iota(parent.begin(), parent.end(), 0u);
  UnionFind uf(parent);

  // S3:partOf: all nodes of one document tree are one cluster.
  for (doc::DocId d = 0; d < docs.DocumentCount(); ++d) {
    uint32_t root_row = layout.Row(EntityId::Fragment(docs.RootNode(d)));
    for (uint32_t local = 1; local < docs.NodeCount(d); ++local) {
      uf.Union(root_row, layout.Row(EntityId::Fragment(
                             docs.GlobalId(d, local))));
    }
  }

  // commentsOn / hasSubject (inverses connect the same pairs).
  for (const NetEdge& e : edges.edges()) {
    if (e.label == EdgeLabel::kCommentsOn ||
        e.label == EdgeLabel::kHasSubject) {
      uf.Union(layout.Row(e.source), layout.Row(e.target));
    }
  }

  uf_parent_ = std::move(parent);
  AssignComponents(layout);
}

void ComponentIndex::BuildIncremental(const ComponentIndex& base,
                                      const EntityLayout& new_layout,
                                      const EdgeStore& edges,
                                      const doc::DocumentStore& docs,
                                      doc::DocId first_new_doc,
                                      uint32_t first_new_edge,
                                      uint32_t old_tag_base,
                                      uint32_t n_new_fragments) {
  const uint32_t total = new_layout.total();
  const uint32_t old_total = static_cast<uint32_t>(base.uf_parent_.size());
  assert(total >= old_total);

  // Remap the persisted forest into the post-delta row space (tag rows
  // shift up by n_new_fragments); new rows start as singletons.
  auto remap = [&](uint32_t row) {
    return row < old_tag_base ? row : row + n_new_fragments;
  };
  // The pre-delta forest (possibly view-backed) is read while the
  // remapped successor accumulates in owned scratch; unions — and
  // their path compression — touch only the scratch vector.
  std::vector<uint32_t> parent(total);
  std::iota(parent.begin(), parent.end(), 0u);
  for (uint32_t row = 0; row < old_total; ++row) {
    parent[remap(row)] = remap(base.uf_parent_[row]);
  }
  UnionFind uf(parent);

  // partOf clusters of the delta's documents.
  for (doc::DocId d = first_new_doc; d < docs.DocumentCount(); ++d) {
    uint32_t root_row =
        new_layout.Row(EntityId::Fragment(docs.RootNode(d)));
    for (uint32_t local = 1; local < docs.NodeCount(d); ++local) {
      uf.Union(root_row, new_layout.Row(EntityId::Fragment(
                             docs.GlobalId(d, local))));
    }
  }

  // Linking edges appended by the delta — endpoints may be pre-delta
  // entities, which is how a delta merges existing components.
  for (uint32_t idx = first_new_edge; idx < edges.size(); ++idx) {
    const NetEdge& e = edges.edge(idx);
    if (e.label == EdgeLabel::kCommentsOn ||
        e.label == EdgeLabel::kHasSubject) {
      uf.Union(new_layout.Row(e.source), new_layout.Row(e.target));
    }
  }

  layout_ = &new_layout;
  uf_parent_ = std::move(parent);
  AssignComponents(new_layout);
}

ComponentId ComponentIndex::Of(EntityId e) const {
  return comp_of_row_[layout_->Row(e)];
}

}  // namespace s3::social
