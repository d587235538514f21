#include "baseline/flatten.h"

namespace s3::baseline {

using social::EdgeLabel;
using social::EntityId;
using social::EntityKind;

ItemId Flattened::ItemOfNode(const core::S3Instance& s3,
                             doc::NodeId n) const {
  social::ComponentId c = s3.components().Of(EntityId::Fragment(n));
  if (c == social::kInvalidComponent) return kInvalidItem;
  return item_of_component[c];
}

Flattened FlattenToUit(const core::S3Instance& s3) {
  Flattened out;
  out.uit.SetUserCount(static_cast<uint32_t>(s3.UserCount()));

  // User links keep their weights.
  for (const social::NetEdge& e : s3.edges().edges()) {
    if (e.label == EdgeLabel::kSocial) {
      out.uit.AddUserLink(e.source.index(), e.target.index(), e.weight);
    }
  }

  // One item per component that contains at least one fragment.
  const auto& comps = s3.components();
  out.item_of_component.assign(comps.ComponentCount(), kInvalidItem);
  for (social::ComponentId c = 0; c < comps.ComponentCount(); ++c) {
    for (uint32_t row : comps.Members(c)) {
      if (s3.layout().Entity(row).kind() == EntityKind::kFragment) {
        out.item_of_component[c] = out.uit.AddItem();
        break;
      }
    }
  }

  // Posters: root fragment -> user via S3:postedBy edges.
  std::vector<uint32_t> poster_of_node(s3.docs().NodeCount(), UINT32_MAX);
  for (const social::NetEdge& e : s3.edges().edges()) {
    if (e.label == EdgeLabel::kPostedBy &&
        e.source.kind() == EntityKind::kFragment) {
      poster_of_node[e.source.index()] = e.target.index();
    }
  }

  // Content keywords -> item terms and (poster, item, keyword) triples.
  const auto& docs = s3.docs();
  for (doc::DocId d = 0; d < docs.DocumentCount(); ++d) {
    doc::NodeId root = docs.RootNode(d);
    ItemId item = out.ItemOfNode(s3, root);
    if (item == kInvalidItem) continue;
    uint32_t poster = poster_of_node[root];
    for (uint32_t local = 0; local < docs.NodeCount(d); ++local) {
      for (KeywordId k : docs.Keywords(docs.GlobalId(d, local))) {
        out.uit.AddItemTerm(item, k);
        if (poster != UINT32_MAX) out.uit.AddTriple(poster, item, k);
      }
    }
  }

  // Tags -> triples on the subject's item (keyword-less endorsements
  // have no UIT counterpart and are dropped, as in the paper).
  for (const core::Tag& tag : s3.tags()) {
    if (tag.keyword == kInvalidKeyword) continue;
    social::ComponentId c = comps.Of(tag.subject);
    if (c == social::kInvalidComponent) continue;
    ItemId item = out.item_of_component[c];
    if (item == kInvalidItem) continue;
    out.uit.AddTriple(tag.author, item, tag.keyword);
  }

  return out;
}

}  // namespace s3::baseline
