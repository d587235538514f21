#include "shard/partitioner.h"

#include <algorithm>

#include "social/edge_store.h"

namespace s3::shard {

using social::EdgeLabel;
using social::EntityId;
using social::EntityKind;

uint64_t StableUserHash(social::UserId u) {
  uint64_t h = 14695981039346656037ull;  // FNV offset basis
  for (int shift = 0; shift < 32; shift += 8) {
    h ^= (static_cast<uint64_t>(u) >> shift) & 0xffu;
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

uint32_t ShardOfUser(social::UserId u, uint32_t shard_count) {
  return static_cast<uint32_t>(StableUserHash(u) % shard_count);
}

void ShardMap::AddDoc(doc::DocId global_doc, doc::NodeId global_node_base,
                      uint32_t n_nodes) {
  const doc::NodeId local_base =
      node_base_local_.empty()
          ? 0
          : node_base_local_.back() + node_count_.back();
  doc_global_.push_back(global_doc);
  node_base_global_.push_back(global_node_base);
  node_count_.push_back(n_nodes);
  node_base_local_.push_back(local_base);
}

void ShardMap::AddTag(social::TagId global_tag) {
  tag_global_.push_back(global_tag);
}

Result<doc::NodeId> ShardMap::GlobalNode(doc::NodeId local) const {
  // Owning local doc: last entry with node_base_local_ <= local.
  auto it = std::upper_bound(node_base_local_.begin(),
                             node_base_local_.end(), local);
  if (it == node_base_local_.begin()) {
    return Status::Internal("local node beyond the mapped range");
  }
  const size_t d = static_cast<size_t>(it - node_base_local_.begin()) - 1;
  if (local - node_base_local_[d] >= node_count_[d]) {
    return Status::Internal("local node beyond the mapped range");
  }
  return node_base_global_[d] + (local - node_base_local_[d]);
}

Result<doc::DocId> ShardMap::LocalDoc(doc::DocId global) const {
  auto it = std::lower_bound(doc_global_.begin(), doc_global_.end(), global);
  if (it == doc_global_.end() || *it != global) {
    return Status::NotFound("document not materialized on this shard");
  }
  return static_cast<doc::DocId>(it - doc_global_.begin());
}

Result<doc::NodeId> ShardMap::LocalNode(doc::NodeId global) const {
  auto it = std::upper_bound(node_base_global_.begin(),
                             node_base_global_.end(), global);
  if (it == node_base_global_.begin()) {
    return Status::NotFound("node not materialized on this shard");
  }
  const size_t d = static_cast<size_t>(it - node_base_global_.begin()) - 1;
  const doc::NodeId offset = global - node_base_global_[d];
  if (offset >= node_count_[d]) {
    return Status::NotFound("node not materialized on this shard");
  }
  return node_base_local_[d] + offset;
}

Result<social::TagId> ShardMap::LocalTag(social::TagId global) const {
  auto it = std::lower_bound(tag_global_.begin(), tag_global_.end(), global);
  if (it == tag_global_.end() || *it != global) {
    return Status::NotFound("tag not materialized on this shard");
  }
  return static_cast<social::TagId>(it - tag_global_.begin());
}

namespace {

// Reconstructs registered document `d` as a population-API replay
// source: same node order, names, parents and keyword bags (ids are
// reassigned by the target store).
doc::Document CopyDocument(const doc::DocumentStore& docs, doc::DocId d) {
  const doc::NodeId root = docs.RootNode(d);
  doc::Document out(std::string(docs.Name(root)));
  for (uint32_t local = 0; local < docs.NodeCount(d); ++local) {
    const doc::NodeId n = root + local;
    if (local != 0) {
      out.AddChild(docs.Parent(n) - root, std::string(docs.Name(n)));
    }
    const std::span<const KeywordId> kws = docs.Keywords(n);
    out.AddKeywords(local, {kws.begin(), kws.end()});
  }
  return out;
}

}  // namespace

Result<PartitionResult> Partition(const core::S3Instance& full,
                                  const PartitionOptions& options) {
  if (!full.finalized()) {
    return Status::FailedPrecondition("partition requires a finalized instance");
  }
  if (options.shard_count < 1 || options.shard_count > 64) {
    return Status::InvalidArgument("shard count must be in [1, 64]");
  }
  const uint32_t n_shards = options.shard_count;
  const uint32_t n_users = static_cast<uint32_t>(full.UserCount());

  PartitionResult out;
  out.shard_count = n_shards;
  out.n_nodes = full.docs().NodeCount();
  out.n_vocab = full.vocabulary().size();

  // Group materialization masks: a group lives on the home shard of
  // each of its members.
  out.user_root.resize(n_users);
  std::vector<uint32_t> home(n_users);
  std::vector<uint64_t> root_mask(n_users, 0);  // indexed by root
  for (social::UserId u = 0; u < n_users; ++u) {
    out.user_root[u] = full.ReachRootOfUser(u);
    home[u] = ShardOfUser(u, n_shards);
    root_mask[out.user_root[u]] |= uint64_t{1} << home[u];
  }

  // Global population tables for the router.
  out.doc_owner.reserve(full.docs().DocumentCount());
  out.doc_node_base.reserve(full.docs().DocumentCount());
  for (doc::DocId d = 0; d < full.docs().DocumentCount(); ++d) {
    out.doc_owner.push_back(full.PosterOfDoc(d));
    out.doc_node_base.push_back(full.docs().GlobalId(d, 0));
  }
  out.tag_owner.reserve(full.TagCount());
  for (const core::Tag& t : full.tags()) out.tag_owner.push_back(t.author);

  // The replayable population prefix of the edge log: everything
  // Finalize appended (RDF-imported social edges) is re-derived by each
  // shard's own Finalize from the replicated ontology.
  const uint32_t n_pop_edges =
      static_cast<uint32_t>(full.edges().size() - full.rdf_social_edges());

  for (const core::S3Instance::ExplicitSocialEdge& e :
       full.explicit_social_edges()) {
    if (home[e.from] != home[e.to]) ++out.boundary_social_edges;
  }

  out.shards.resize(n_shards);
  for (uint32_t s = 0; s < n_shards; ++s) {
    ShardPart& part = out.shards[s];
    part.index = s;

    auto inst = std::make_shared<core::S3Instance>();

    // Users and keywords replicate in global id order, keeping
    // UserId / KeywordId shard-invariant.
    for (const core::User& u : full.users()) inst->AddUser(u.uri);
    for (KeywordId k = 0; k < full.vocabulary().size(); ++k) {
      inst->InternKeyword(full.vocabulary().Spelling(k));
    }

    // Ontology: replicate the (already saturated) RDF graph wholesale,
    // preserving triple order — the shard's Finalize re-saturates (a
    // no-op on a closed graph) and re-imports RDF-declared social
    // edges in the same order as the source instance did.
    std::vector<rdf::TermId> term_map(full.terms().size());
    for (rdf::TermId t = 0; t < full.terms().size(); ++t) {
      term_map[t] = inst->terms().Intern(full.terms().Text(t),
                                         full.terms().Kind(t));
    }
    for (const rdf::Triple& t : full.rdf_graph().triples()) {
      inst->rdf_graph().Add(term_map[t.subject], term_map[t.property],
                            term_map[t.object], t.weight);
    }

    auto materialized = [&](social::UserId owner) {
      return (root_mask[out.user_root[owner]] >> s) & 1;
    };

    // Replay the population in original op order, recovered from the
    // edge log (each population op leaves a distinctive edge
    // signature; inverse twins are skipped).
    for (uint32_t idx = 0; idx < n_pop_edges; ++idx) {
      const social::NetEdge& e = full.edges().edge(idx);
      switch (e.label) {
        case EdgeLabel::kSocial: {
          const social::UserId from = e.source.index();
          const social::UserId to = e.target.index();
          if (!materialized(from)) break;
          S3_RETURN_IF_ERROR(inst->AddSocialEdge(from, to, e.weight));
          if (home[from] != home[to]) ++part.boundary_social_edges;
          break;
        }
        case EdgeLabel::kPostedBy: {
          const doc::DocId d = full.docs().DocOf(e.source.index());
          const social::UserId poster = e.target.index();
          if (!materialized(poster)) break;
          auto added = inst->AddDocument(
              CopyDocument(full.docs(), d),
              std::string(full.docs().RootUri(d)), poster);
          if (!added.ok()) return added.status();
          part.map.AddDoc(d, full.docs().RootNode(d),
                          full.docs().NodeCount(d));
          break;
        }
        case EdgeLabel::kCommentsOn: {
          const doc::DocId comment = full.docs().DocOf(e.source.index());
          if (!materialized(full.PosterOfDoc(comment))) break;
          auto local_doc = part.map.LocalDoc(comment);
          auto local_target = part.map.LocalNode(e.target.index());
          if (!local_doc.ok()) return local_doc.status();
          if (!local_target.ok()) return local_target.status();
          S3_RETURN_IF_ERROR(inst->AddComment(*local_doc, *local_target));
          break;
        }
        case EdgeLabel::kHasSubject: {
          const social::TagId t = e.source.index();
          const core::Tag& tag = full.tags()[t];
          if (!materialized(tag.author)) break;
          if (tag.subject.kind() == EntityKind::kFragment) {
            auto local_node = part.map.LocalNode(tag.subject.index());
            if (!local_node.ok()) return local_node.status();
            auto added = inst->AddTagOnFragment(tag.author, *local_node,
                                                tag.keyword);
            if (!added.ok()) return added.status();
          } else {
            auto local_tag = part.map.LocalTag(tag.subject.index());
            if (!local_tag.ok()) return local_tag.status();
            auto added =
                inst->AddTagOnTag(tag.author, *local_tag, tag.keyword);
            if (!added.ok()) return added.status();
          }
          part.map.AddTag(t);
          break;
        }
        default:
          break;  // inverse twins / hasAuthor: emitted by their op
      }
    }

    S3_RETURN_IF_ERROR(inst->Finalize());
    part.instance = std::move(inst);

    for (social::UserId u = 0; u < n_users; ++u) {
      if (home[u] == s) ++part.owned_users;
    }
    for (uint32_t root = 0; root < n_users; ++root) {
      if (out.user_root[root] == root && ((root_mask[root] >> s) & 1)) {
        ++part.materialized_groups;
      }
    }
  }

  return out;
}

}  // namespace s3::shard
