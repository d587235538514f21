#include "social/edge_store.h"

#include <cassert>
#include <utility>

namespace s3::social {

const char* EdgeLabelName(EdgeLabel label) {
  switch (label) {
    case EdgeLabel::kSocial:
      return "S3:social";
    case EdgeLabel::kPostedBy:
      return "S3:postedBy";
    case EdgeLabel::kPostedByInv:
      return "S3:postedBy-";
    case EdgeLabel::kCommentsOn:
      return "S3:commentsOn";
    case EdgeLabel::kCommentsOnInv:
      return "S3:commentsOn-";
    case EdgeLabel::kHasSubject:
      return "S3:hasSubject";
    case EdgeLabel::kHasSubjectInv:
      return "S3:hasSubject-";
    case EdgeLabel::kHasAuthor:
      return "S3:hasAuthor";
    case EdgeLabel::kHasAuthorInv:
      return "S3:hasAuthor-";
  }
  return "?";
}

EdgeLabel InverseLabel(EdgeLabel label) {
  switch (label) {
    case EdgeLabel::kSocial:
      return EdgeLabel::kSocial;
    case EdgeLabel::kPostedBy:
      return EdgeLabel::kPostedByInv;
    case EdgeLabel::kPostedByInv:
      return EdgeLabel::kPostedBy;
    case EdgeLabel::kCommentsOn:
      return EdgeLabel::kCommentsOnInv;
    case EdgeLabel::kCommentsOnInv:
      return EdgeLabel::kCommentsOn;
    case EdgeLabel::kHasSubject:
      return EdgeLabel::kHasSubjectInv;
    case EdgeLabel::kHasSubjectInv:
      return EdgeLabel::kHasSubject;
    case EdgeLabel::kHasAuthor:
      return EdgeLabel::kHasAuthorInv;
    case EdgeLabel::kHasAuthorInv:
      return EdgeLabel::kHasAuthor;
  }
  return label;
}

void EdgeStore::Add(EntityId source, EntityId target, EdgeLabel label,
                    double weight) {
  assert(weight > 0.0 && weight <= 1.0);
  // Tail chunk: create a fresh one when full or absent; clone a
  // partially filled one another generation still shares. Chunks are
  // reserved at kChunkSize so appends never reallocate — references
  // into the log stay valid for the chunk's lifetime.
  if (chunks_.empty() || chunks_.back()->size() == kChunkSize) {
    chunks_.push_back(std::make_shared<Chunk>());
    chunks_.back()->reserve(kChunkSize);
  } else if (chunks_.back().use_count() > 1) {
    auto clone = std::make_shared<Chunk>();
    clone->reserve(kChunkSize);
    clone->insert(clone->end(), chunks_.back()->begin(),
                  chunks_.back()->end());
    chunks_.back() = std::move(clone);
  }
  chunks_.back()->push_back(NetEdge{source, target, label, weight});
  ++n_edges_;
}

void EdgeStore::AddWithInverse(EntityId source, EntityId target,
                               EdgeLabel label, double weight) {
  Add(source, target, label, weight);
  Add(target, source, InverseLabel(label), weight);
}

size_t EdgeStore::CountLabel(EdgeLabel label) const {
  size_t n = 0;
  for (const NetEdge& e : edges()) {
    if (e.label == label) ++n;
  }
  return n;
}

size_t EdgeStore::SharedChunks(const EdgeStore& other) const {
  size_t n = 0;
  while (n < chunks_.size() && n < other.chunks_.size() &&
         chunks_[n] == other.chunks_[n]) {
    ++n;
  }
  return n;
}

OutAdjacency IndexOutEdges(const EntityLayout& layout, const EdgeStore& edges,
                           const std::vector<char>& want) {
  assert(want.empty() || want.size() == layout.total());
  // One pass over the log collects the wanted (row, edge) pairs; the
  // counting sort then runs over that list.
  std::vector<std::pair<uint32_t, uint32_t>> picked;
  uint32_t idx = 0;
  edges.ForEach([&](const NetEdge& e) {
    const uint32_t row = layout.Row(e.source);
    if (want.empty() || want[row]) picked.emplace_back(row, idx);
    ++idx;
  });
  OutAdjacency adj;
  adj.Build(layout.total(), [&](auto&& emit) {
    for (const auto& [row, edge] : picked) emit(row, edge);
  });
  return adj;
}

double OutWeight(const EdgeStore& edges, std::span<const uint32_t> out) {
  double sum = 0.0;
  for (uint32_t idx : out) sum += edges.edge(idx).weight;
  return sum;
}

}  // namespace s3::social
