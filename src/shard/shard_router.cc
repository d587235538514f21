#include "shard/shard_router.h"

#include <algorithm>
#include <thread>

#include "common/file_io.h"
#include "shard/shard_meta.h"
#include "text/tokenizer.h"

namespace s3::shard {

// ---- GlobalUpdate ---------------------------------------------------------

GlobalUpdate::GlobalUpdate(uint64_t users, uint64_t docs, uint64_t nodes,
                           uint64_t tags, uint64_t vocab,
                           std::shared_ptr<const core::S3Instance> vocab_view)
    : base_users_(users),
      base_docs_(docs),
      base_nodes_(nodes),
      base_tags_(tags),
      base_vocab_(vocab),
      vocab_view_(std::move(vocab_view)) {}

KeywordId GlobalUpdate::InternKeyword(std::string_view keyword) {
  const KeywordId existing = vocab_view_->vocabulary().Find(keyword);
  if (existing != kInvalidKeyword) return existing;
  auto it = overlay_.find(std::string(keyword));
  if (it != overlay_.end()) return it->second;
  const KeywordId id =
      static_cast<KeywordId>(base_vocab_ + spellings_.size());
  spellings_.emplace_back(keyword);
  overlay_.emplace(spellings_.back(), id);
  return id;
}

std::vector<KeywordId> GlobalUpdate::InternText(std::string_view text) {
  std::vector<KeywordId> out;
  for (const std::string& word : ExtractKeywords(text)) {
    out.push_back(InternKeyword(word));
  }
  return out;
}

Result<doc::DocId> GlobalUpdate::AddDocument(doc::Document document,
                                             std::string uri,
                                             social::UserId poster) {
  if (poster >= base_users_) {
    return Status::InvalidArgument("unknown poster user id");
  }
  Op op;
  op.kind = Kind::kDocument;
  op.document = std::move(document);
  op.uri = std::move(uri);
  op.user = poster;
  op.assigned = static_cast<uint32_t>(next_doc());
  op.a = static_cast<uint32_t>(next_node());  // global id of node 0
  ++new_docs_;
  new_nodes_ += op.document.NodeCount();
  ops_.push_back(std::move(op));
  return ops_.back().assigned;
}

Status GlobalUpdate::AddComment(doc::DocId comment, doc::NodeId target) {
  if (comment >= next_doc() || target >= next_node()) {
    return Status::InvalidArgument("unknown document or node in AddComment");
  }
  Op op;
  op.kind = Kind::kComment;
  op.a = comment;
  op.b = target;
  ops_.push_back(std::move(op));
  return Status::OK();
}

Result<social::TagId> GlobalUpdate::AddTagOnFragment(social::UserId author,
                                                     doc::NodeId subject,
                                                     KeywordId keyword) {
  if (author >= base_users_) {
    return Status::InvalidArgument("unknown tag author");
  }
  if (subject >= next_node()) {
    return Status::InvalidArgument("unknown tag subject node");
  }
  Op op;
  op.kind = Kind::kTag;
  op.user = author;
  op.a = subject;
  op.b = keyword;
  op.on_tag = false;
  op.assigned = static_cast<uint32_t>(next_tag());
  ++new_tags_;
  ops_.push_back(std::move(op));
  return ops_.back().assigned;
}

Result<social::TagId> GlobalUpdate::AddTagOnTag(social::UserId author,
                                                social::TagId subject,
                                                KeywordId keyword) {
  if (author >= base_users_) {
    return Status::InvalidArgument("unknown tag author");
  }
  if (subject >= next_tag()) {
    return Status::InvalidArgument("unknown subject tag");
  }
  Op op;
  op.kind = Kind::kTag;
  op.user = author;
  op.a = subject;
  op.b = keyword;
  op.on_tag = true;
  op.assigned = static_cast<uint32_t>(next_tag());
  ++new_tags_;
  ops_.push_back(std::move(op));
  return ops_.back().assigned;
}

Status GlobalUpdate::AddSocialEdge(social::UserId from, social::UserId to,
                                   double weight) {
  if (from >= base_users_ || to >= base_users_) {
    return Status::InvalidArgument("unknown user id in social edge");
  }
  if (!(weight > 0.0 && weight <= 1.0)) {
    return Status::InvalidArgument("social edge weight must be in (0,1]");
  }
  Op op;
  op.kind = Kind::kSocial;
  op.user = from;
  op.a = to;
  op.weight = weight;
  ops_.push_back(std::move(op));
  return Status::OK();
}

// ---- construction ---------------------------------------------------------

namespace {

// Non-mutating union-find over a scratch parent vector.
uint32_t Find(std::vector<uint32_t>& parent, uint32_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

}  // namespace

Result<std::unique_ptr<ShardRouter>> ShardRouter::Serve(
    PartitionResult partition, ShardRouterOptions options) {
  if (partition.shards.empty()) {
    return Status::InvalidArgument("partition holds no shards");
  }
  std::unique_ptr<ShardRouter> router(new ShardRouter());
  router->user_root_ = std::move(partition.user_root);
  router->n_users_ = router->user_root_.size();
  router->doc_owner_ = std::move(partition.doc_owner);
  router->doc_node_base_ = std::move(partition.doc_node_base);
  router->doc_node_count_.reserve(router->doc_owner_.size());
  for (size_t d = 0; d < router->doc_owner_.size(); ++d) {
    const doc::NodeId next = d + 1 < router->doc_node_base_.size()
                                 ? router->doc_node_base_[d + 1]
                                 : static_cast<doc::NodeId>(partition.n_nodes);
    router->doc_node_count_.push_back(next - router->doc_node_base_[d]);
  }
  router->tag_owner_ = std::move(partition.tag_owner);
  router->n_nodes_ = partition.n_nodes;
  router->n_vocab_ = partition.n_vocab;

  router->home_.resize(router->n_users_);
  router->root_mask_.assign(router->n_users_, 0);
  for (social::UserId u = 0; u < router->n_users_; ++u) {
    router->home_[u] = ShardOfUser(u, partition.shard_count);
    router->root_mask_[router->user_root_[u]] |= uint64_t{1}
                                                 << router->home_[u];
  }

  router->shards_.resize(partition.shards.size());
  for (size_t s = 0; s < partition.shards.size(); ++s) {
    ShardPart& part = partition.shards[s];
    Shard& shard = router->shards_[s];
    shard.index = part.index;
    shard.map = std::move(part.map);
    shard.boundary_social_edges = part.boundary_social_edges;
    shard.owned_users = part.owned_users;
    server::QueryServiceOptions svc = options.service;
    svc.obs_label = "shard" + std::to_string(s);
    shard.service = std::make_unique<server::QueryService>(
        std::move(part.instance), svc);
  }
  return router;
}

Result<std::unique_ptr<ShardRouter>> ShardRouter::Open(
    const std::string& root, ShardRouterOptions options) {
  std::string meta_bytes;
  S3_RETURN_IF_ERROR(ReadFileToString(root + "/" + kPartitionMetaFile,
                                      &meta_bytes));
  auto part_meta = ParsePartitionMeta(meta_bytes);
  if (!part_meta.ok()) return part_meta.status();

  std::unique_ptr<ShardRouter> router(new ShardRouter());
  router->root_dir_ = root;
  router->shards_.resize(part_meta->shard_count);

  // Per-shard recovery (snapshot load + WAL-tail replay + meta parse)
  // is independent: fan it out so cold start costs the slowest shard,
  // not the sum. Validation and wiring stay sequential below.
  struct Recovered {
    Status status = Status::OK();
    server::ServerBootstrap boot;
    ShardMetaData meta;
  };
  std::vector<Recovered> recovered(part_meta->shard_count);
  {
    std::vector<std::thread> workers;
    for (uint32_t s = 0; s < part_meta->shard_count; ++s) {
      workers.emplace_back([&, s] {
        Recovered& out = recovered[s];
        server::SnapshotManagerOptions storage;
        storage.dir = ShardDirName(root, s);
        storage.checkpoint_every = options.checkpoint_every;
        storage.background_checkpoints = options.background_checkpoints;
        storage.obs_label = "shard" + std::to_string(s);
        server::QueryServiceOptions svc = options.service;
        svc.obs_label = "shard" + std::to_string(s);
        auto boot = server::RecoverAndServe(storage, svc);
        if (!boot.ok()) {
          out.status = boot.status();
          return;
        }
        out.boot = std::move(*boot);
        std::string shard_meta_bytes;
        Status read = ReadFileToString(storage.dir + "/" + kShardMetaFile,
                                       &shard_meta_bytes);
        if (!read.ok()) {
          out.status = read;
          return;
        }
        auto meta = ParseShardMeta(shard_meta_bytes);
        if (!meta.ok()) {
          out.status = meta.status();
          return;
        }
        out.meta = std::move(*meta);
      });
    }
    for (std::thread& t : workers) t.join();
  }

  for (uint32_t s = 0; s < part_meta->shard_count; ++s) {
    S3_RETURN_IF_ERROR(recovered[s].status);
    server::SnapshotManagerOptions storage;
    storage.dir = ShardDirName(root, s);
    auto boot = Result<server::ServerBootstrap>(std::move(recovered[s].boot));
    auto meta = Result<ShardMetaData>(std::move(recovered[s].meta));
    if (meta->shard_index != s || meta->shard_count != part_meta->shard_count) {
      return Status::InvalidArgument(storage.dir +
                                     ": shard.meta names a different shard");
    }

    auto snapshot = boot->service->snapshot();
    if (meta->map.doc_count() != snapshot->docs().DocumentCount() ||
        meta->map.node_count() != snapshot->docs().NodeCount() ||
        meta->map.tag_count() != snapshot->TagCount()) {
      return Status::InvalidArgument(
          storage.dir +
          ": shard.meta does not cover the recovered population "
          "(crash between LogAndApply and meta rewrite?) — re-split or "
          "restore the metadata");
    }

    Shard& shard = router->shards_[s];
    shard.index = s;
    shard.manager = std::move(boot->manager);
    shard.service = std::move(boot->service);
    shard.map = std::move(meta->map);
    shard.boundary_social_edges = meta->boundary_social_edges;
    shard.owned_users = meta->owned_users;

    if (s == 0) {
      router->n_users_ = snapshot->UserCount();
      router->n_vocab_ = snapshot->vocabulary().size();
    } else if (router->n_users_ != snapshot->UserCount() ||
               router->n_vocab_ != snapshot->vocabulary().size()) {
      return Status::InvalidArgument(
          storage.dir + ": user/keyword tables disagree with shard-000 "
                        "(directories from different partitions?)");
    }
  }

  // Re-derive the group table by unioning the shards' reach
  // partitions (each shard knows the full grouping of the populations
  // it materializes; their union is the global grouping).
  std::vector<uint32_t> parent(router->n_users_);
  for (uint32_t u = 0; u < router->n_users_; ++u) parent[u] = u;
  for (const Shard& shard : router->shards_) {
    auto snapshot = shard.service->snapshot();
    for (social::UserId u = 0; u < router->n_users_; ++u) {
      const uint32_t a = Find(parent, u);
      const uint32_t b = Find(parent, snapshot->ReachRootOfUser(u));
      if (a != b) parent[b] = a;
    }
  }
  router->user_root_.resize(router->n_users_);
  router->home_.resize(router->n_users_);
  router->root_mask_.assign(router->n_users_, 0);
  for (social::UserId u = 0; u < router->n_users_; ++u) {
    router->user_root_[u] = Find(parent, u);
    router->home_[u] = ShardOfUser(u, part_meta->shard_count);
    router->root_mask_[router->user_root_[u]] |= uint64_t{1}
                                                 << router->home_[u];
  }

  // Rebuild the global doc/tag tables from the shard maps (every
  // global entity is materialized on at least one shard).
  uint64_t n_docs = 0, n_tags = 0;
  for (const Shard& shard : router->shards_) {
    if (shard.map.doc_count() > 0) {
      n_docs = std::max<uint64_t>(
          n_docs, shard.map.GlobalDoc(
                      static_cast<doc::DocId>(shard.map.doc_count() - 1)) +
                      uint64_t{1});
    }
    if (shard.map.tag_count() > 0) {
      n_tags = std::max<uint64_t>(
          n_tags, shard.map.GlobalTag(static_cast<social::TagId>(
                      shard.map.tag_count() - 1)) +
                      uint64_t{1});
    }
  }
  router->doc_owner_.assign(n_docs, UINT32_MAX);
  router->doc_node_base_.assign(n_docs, 0);
  router->doc_node_count_.assign(n_docs, 0);
  router->tag_owner_.assign(n_tags, UINT32_MAX);
  router->n_nodes_ = 0;
  for (const Shard& shard : router->shards_) {
    auto snapshot = shard.service->snapshot();
    for (doc::DocId ld = 0; ld < shard.map.doc_count(); ++ld) {
      const doc::DocId gd = shard.map.GlobalDoc(ld);
      router->doc_owner_[gd] = snapshot->PosterOfDoc(ld);
      router->doc_node_base_[gd] = shard.map.GlobalNodeBase(ld);
      router->doc_node_count_[gd] = shard.map.NodeCount(ld);
      router->n_nodes_ =
          std::max<uint64_t>(router->n_nodes_,
                             shard.map.GlobalNodeBase(ld) +
                                 uint64_t{shard.map.NodeCount(ld)});
    }
    for (social::TagId lt = 0; lt < shard.map.tag_count(); ++lt) {
      router->tag_owner_[shard.map.GlobalTag(lt)] =
          snapshot->tags()[lt].author;
    }
  }
  for (uint64_t d = 0; d < n_docs; ++d) {
    if (router->doc_owner_[d] == UINT32_MAX) {
      return Status::InvalidArgument(
          "global document " + std::to_string(d) +
          " is materialized on no shard (missing or mismatched shard "
          "directories)");
    }
  }
  for (uint64_t t = 0; t < n_tags; ++t) {
    if (router->tag_owner_[t] == UINT32_MAX) {
      return Status::InvalidArgument(
          "global tag " + std::to_string(t) +
          " is materialized on no shard (missing or mismatched shard "
          "directories)");
    }
  }
  return router;
}

ShardRouter::~ShardRouter() = default;

// ---- queries --------------------------------------------------------------

uint32_t ShardRouter::HomeShardOfUser(social::UserId u) const {
  return home_[u];
}

uint64_t ShardRouter::doc_count() const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  return doc_owner_.size();
}

uint64_t ShardRouter::tag_count() const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  return tag_owner_.size();
}

std::vector<uint64_t> ShardRouter::Generations() const {
  std::vector<uint64_t> out;
  out.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    out.push_back(shard.service->snapshot()->generation());
  }
  return out;
}

Result<server::QueryResponse> ShardRouter::Query(
    const core::QueryRequest& query) {
  if (query.seeker >= n_users_) {
    return Status::InvalidArgument("unknown seeker");
  }
  // home_ is fixed at construction (users never move), so it needs no
  // lock; the home shard holds the seeker's whole reach group, and its
  // answer is the single-instance answer.
  const uint32_t home = home_[query.seeker];
  auto submitted = shards_[home].service->SubmitBlocking(query);
  if (!submitted.ok()) return submitted.status();
  auto response = submitted->get();
  if (!response.ok()) return response.status();

  // ApplyUpdate extends the maps under the exclusive lock before it
  // publishes a generation that uses the new local ids.
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  const ShardMap& map = shards_[home].map;
  for (core::ResultEntry& e : response->entries) {
    auto global = map.GlobalNode(e.node);
    if (!global.ok()) return global.status();
    e.node = *global;
  }
  return response;
}

// ---- updates --------------------------------------------------------------

GlobalUpdate ShardRouter::BeginUpdate() const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  return GlobalUpdate(n_users_, doc_owner_.size(), n_nodes_,
                      tag_owner_.size(), n_vocab_,
                      shards_[0].service->snapshot());
}

Result<social::UserId> ShardRouter::OwnerOfGlobalNode(
    doc::NodeId node, const std::vector<social::UserId>& pending_doc_owner,
    const std::vector<doc::NodeId>& pending_doc_base,
    const std::vector<uint32_t>& pending_doc_nodes) const {
  if (node < n_nodes_) {
    auto it = std::upper_bound(doc_node_base_.begin(), doc_node_base_.end(),
                               node);
    if (it == doc_node_base_.begin()) {
      return Status::InvalidArgument("unknown node id");
    }
    const size_t d = static_cast<size_t>(it - doc_node_base_.begin()) - 1;
    if (node - doc_node_base_[d] >= doc_node_count_[d]) {
      return Status::InvalidArgument("unknown node id");
    }
    return doc_owner_[d];
  }
  auto it = std::upper_bound(pending_doc_base.begin(),
                             pending_doc_base.end(), node);
  if (it == pending_doc_base.begin()) {
    return Status::InvalidArgument("unknown node id");
  }
  const size_t d = static_cast<size_t>(it - pending_doc_base.begin()) - 1;
  if (node - pending_doc_base[d] >= pending_doc_nodes[d]) {
    return Status::InvalidArgument("unknown node id");
  }
  return pending_doc_owner[d];
}

Status ShardRouter::ApplyUpdate(const GlobalUpdate& update) {
  std::lock_guard<std::mutex> writer(update_mu_);
  if (update.empty()) return Status::OK();

  // Writers are serialized, so reading the routing state without the
  // shared lock is race-free here; the commit below takes it
  // exclusively.
  if (update.base_users_ != n_users_ ||
      update.base_docs_ != doc_owner_.size() ||
      update.base_nodes_ != n_nodes_ ||
      update.base_tags_ != tag_owner_.size() ||
      update.base_vocab_ != n_vocab_) {
    return Status::FailedPrecondition(
        "stale update: the global population advanced since BeginUpdate");
  }

  const uint32_t n_shards = shard_count();
  using Kind = GlobalUpdate::Kind;

  // ---- phase 1: route simulation (no state is mutated) -----------------
  std::vector<uint32_t> scratch_root = user_root_;
  std::vector<uint64_t> scratch_mask = root_mask_;
  std::vector<social::UserId> pending_doc_owner;
  std::vector<doc::NodeId> pending_doc_base;
  std::vector<uint32_t> pending_doc_nodes;
  std::vector<social::UserId> pending_tag_owner;
  std::vector<uint64_t> op_mask(update.ops_.size(), 0);

  auto owner_of_doc = [&](doc::DocId gd) -> Result<social::UserId> {
    if (gd < update.base_docs_) return doc_owner_[gd];
    const size_t i = gd - update.base_docs_;
    if (i >= pending_doc_owner.size()) {
      return Status::InvalidArgument("unknown document id");
    }
    return pending_doc_owner[i];
  };
  auto owner_of_tag = [&](social::TagId gt) -> Result<social::UserId> {
    if (gt < update.base_tags_) return tag_owner_[gt];
    const size_t i = gt - update.base_tags_;
    if (i >= pending_tag_owner.size()) {
      return Status::InvalidArgument("unknown tag id");
    }
    return pending_tag_owner[i];
  };
  // Joins the groups of two users; refuses a join whose groups are
  // materialized on different shard sets — correctness would require
  // shipping one group's population to the other's shards
  // (rebalancing), which the router does not do in place.
  auto join = [&](social::UserId a, social::UserId b) -> Result<uint64_t> {
    const uint32_t ra = Find(scratch_root, a);
    const uint32_t rb = Find(scratch_root, b);
    if (ra == rb) return scratch_mask[ra];
    if (scratch_mask[ra] != scratch_mask[rb]) {
      return Status::FailedPrecondition(
          "update links reach groups materialized on different shard "
          "sets; this requires rebalancing (shipping shard snapshots), "
          "not an in-place delta");
    }
    scratch_root[rb] = ra;
    return scratch_mask[ra];
  };

  for (size_t i = 0; i < update.ops_.size(); ++i) {
    const GlobalUpdate::Op& op = update.ops_[i];
    switch (op.kind) {
      case Kind::kDocument: {
        op_mask[i] = scratch_mask[Find(scratch_root, op.user)];
        pending_doc_owner.push_back(op.user);
        pending_doc_base.push_back(op.a);
        pending_doc_nodes.push_back(
            static_cast<uint32_t>(op.document.NodeCount()));
        break;
      }
      case Kind::kComment: {
        auto a = owner_of_doc(op.a);
        if (!a.ok()) return a.status();
        auto b = OwnerOfGlobalNode(op.b, pending_doc_owner,
                                   pending_doc_base, pending_doc_nodes);
        if (!b.ok()) return b.status();
        auto mask = join(*a, *b);
        if (!mask.ok()) return mask.status();
        op_mask[i] = *mask;
        break;
      }
      case Kind::kTag: {
        Result<social::UserId> subject_owner =
            op.on_tag ? owner_of_tag(op.a)
                      : OwnerOfGlobalNode(op.a, pending_doc_owner,
                                          pending_doc_base,
                                          pending_doc_nodes);
        if (!subject_owner.ok()) return subject_owner.status();
        auto mask = join(op.user, *subject_owner);
        if (!mask.ok()) return mask.status();
        op_mask[i] = *mask;
        pending_tag_owner.push_back(op.user);
        break;
      }
      case Kind::kSocial: {
        auto mask = join(op.user, static_cast<social::UserId>(op.a));
        if (!mask.ok()) return mask.status();
        op_mask[i] = *mask;
        break;
      }
    }
    if (op_mask[i] == 0) {
      return Status::Internal("op routed to no shard");
    }
  }

  // ---- phase 2: build one InstanceDelta per touched shard --------------
  // New spellings go to *every* shard, keeping KeywordIds aligned even
  // on shards the ops miss.
  struct NewDoc {
    doc::DocId global;
    doc::NodeId global_base;
    uint32_t n_nodes;
  };
  struct ShardDelta {
    std::shared_ptr<const core::S3Instance> base;
    std::unique_ptr<core::InstanceDelta> delta;
    std::vector<NewDoc> docs;
    std::vector<social::TagId> tags;  // global ids, in op order
    uint64_t new_boundary_social = 0;
  };
  std::vector<ShardDelta> planned(n_shards);

  for (uint32_t s = 0; s < n_shards; ++s) {
    bool touched = !update.spellings_.empty();
    for (size_t i = 0; i < op_mask.size() && !touched; ++i) {
      touched = ((op_mask[i] >> s) & 1) != 0;
    }
    if (!touched) continue;

    ShardDelta& plan = planned[s];
    plan.base = shards_[s].service->snapshot();
    plan.delta = std::make_unique<core::InstanceDelta>(plan.base);
    for (const std::string& spelling : update.spellings_) {
      plan.delta->InternKeyword(spelling);
    }

    // Local translation helpers over the base map plus this update's
    // own additions to shard s.
    auto local_doc = [&](doc::DocId gd) -> Result<doc::DocId> {
      if (gd < update.base_docs_) return shards_[s].map.LocalDoc(gd);
      for (size_t j = 0; j < plan.docs.size(); ++j) {
        if (plan.docs[j].global == gd) {
          return static_cast<doc::DocId>(plan.base->docs().DocumentCount() +
                                         j);
        }
      }
      return Status::Internal("pending document not routed to this shard");
    };
    doc::NodeId local_node_cursor =
        static_cast<doc::NodeId>(plan.base->docs().NodeCount());
    std::vector<doc::NodeId> pending_local_base;  // parallel to plan.docs
    auto local_node = [&](doc::NodeId gn) -> Result<doc::NodeId> {
      if (gn < update.base_nodes_) return shards_[s].map.LocalNode(gn);
      for (size_t j = 0; j < plan.docs.size(); ++j) {
        if (gn >= plan.docs[j].global_base &&
            gn < plan.docs[j].global_base + plan.docs[j].n_nodes) {
          return pending_local_base[j] + (gn - plan.docs[j].global_base);
        }
      }
      return Status::Internal("pending node not routed to this shard");
    };
    auto local_tag = [&](social::TagId gt) -> Result<social::TagId> {
      if (gt < update.base_tags_) return shards_[s].map.LocalTag(gt);
      for (size_t j = 0; j < plan.tags.size(); ++j) {
        if (plan.tags[j] == gt) {
          return static_cast<social::TagId>(plan.base->TagCount() + j);
        }
      }
      return Status::Internal("pending tag not routed to this shard");
    };

    for (size_t i = 0; i < update.ops_.size(); ++i) {
      if (((op_mask[i] >> s) & 1) == 0) continue;
      const GlobalUpdate::Op& op = update.ops_[i];
      switch (op.kind) {
        case Kind::kDocument: {
          auto added =
              plan.delta->AddDocument(op.document, op.uri, op.user);
          if (!added.ok()) return added.status();
          pending_local_base.push_back(local_node_cursor);
          local_node_cursor +=
              static_cast<doc::NodeId>(op.document.NodeCount());
          plan.docs.push_back(NewDoc{
              op.assigned, op.a,
              static_cast<uint32_t>(op.document.NodeCount())});
          break;
        }
        case Kind::kComment: {
          auto comment = local_doc(op.a);
          if (!comment.ok()) return comment.status();
          auto target = local_node(op.b);
          if (!target.ok()) return target.status();
          S3_RETURN_IF_ERROR(plan.delta->AddComment(*comment, *target));
          break;
        }
        case Kind::kTag: {
          if (op.on_tag) {
            auto subject = local_tag(op.a);
            if (!subject.ok()) return subject.status();
            auto added =
                plan.delta->AddTagOnTag(op.user, *subject, op.b);
            if (!added.ok()) return added.status();
          } else {
            auto subject = local_node(op.a);
            if (!subject.ok()) return subject.status();
            auto added =
                plan.delta->AddTagOnFragment(op.user, *subject, op.b);
            if (!added.ok()) return added.status();
          }
          plan.tags.push_back(op.assigned);
          break;
        }
        case Kind::kSocial: {
          S3_RETURN_IF_ERROR(plan.delta->AddSocialEdge(
              op.user, static_cast<social::UserId>(op.a), op.weight));
          if (home_[op.user] !=
              home_[static_cast<social::UserId>(op.a)]) {
            ++plan.new_boundary_social;
          }
          break;
        }
      }
    }
  }

  // ---- phase 3: commit routing state -----------------------------------
  // BEFORE publishing any new generation: the id maps are append-only
  // and may safely run ahead of the served snapshots (a response from
  // an old generation never contains the new local ids), but a
  // new-generation response translated through a stale map would
  // silently produce wrong global node ids. Group masks never change
  // here (joins require equal masks), so early routing-state commit
  // cannot misroute a concurrent query either.
  {
    std::unique_lock<std::shared_mutex> lock(state_mu_);
    for (social::UserId u = 0; u < n_users_; ++u) {
      user_root_[u] = Find(scratch_root, u);
    }
    root_mask_ = std::move(scratch_mask);
    for (size_t i = 0; i < pending_doc_owner.size(); ++i) {
      doc_owner_.push_back(pending_doc_owner[i]);
      doc_node_base_.push_back(pending_doc_base[i]);
      doc_node_count_.push_back(pending_doc_nodes[i]);
      n_nodes_ += pending_doc_nodes[i];
    }
    for (social::UserId owner : pending_tag_owner) {
      tag_owner_.push_back(owner);
    }
    n_vocab_ += update.spellings_.size();
    for (uint32_t s = 0; s < n_shards; ++s) {
      ShardDelta& plan = planned[s];
      if (plan.delta == nullptr) continue;
      for (const NewDoc& d : plan.docs) {
        shards_[s].map.AddDoc(d.global, d.global_base, d.n_nodes);
      }
      for (social::TagId t : plan.tags) shards_[s].map.AddTag(t);
      shards_[s].boundary_social_edges += plan.new_boundary_social;
    }
  }

  // ---- phase 4: apply — each shard logs and swaps its own successor ----
  // The per-shard LogAndApply/SwapSnapshot pairs are independent, so
  // they run concurrently: a batch touching every shard pays the
  // slowest shard's apply, not the sum. Application is not atomic
  // across shards: a failure leaves the other shards on the new
  // generation (their WALs are consistent) and the routing maps ahead
  // of the failed shard — later deltas referencing the unapplied
  // population fail that shard's validating InstanceDelta build, so
  // the inconsistency surfaces as errors, never as silent
  // mis-answers.
  {
    std::vector<Status> apply_status(n_shards, Status::OK());
    std::vector<std::thread> appliers;
    for (uint32_t s = 0; s < n_shards; ++s) {
      if (planned[s].delta == nullptr) continue;
      appliers.emplace_back([this, s, &planned, &apply_status] {
        ShardDelta& plan = planned[s];
        Result<std::shared_ptr<const core::S3Instance>> next =
            shards_[s].manager != nullptr
                ? shards_[s].manager->LogAndApply(*plan.delta)
                : plan.base->ApplyDelta(*plan.delta);
        if (!next.ok()) {
          apply_status[s] = next.status();
          return;
        }
        apply_status[s] = shards_[s].service->SwapSnapshot(*next);
      });
    }
    for (std::thread& t : appliers) t.join();
    for (uint32_t s = 0; s < n_shards; ++s) {
      if (!apply_status[s].ok()) {
        return Status::Internal(
            "update partially applied: shard " + std::to_string(s) +
            " failed (" + apply_status[s].ToString() +
            "); other shards already advanced");
      }
    }
  }

  // ---- phase 5: persist metadata (storage-backed deployments) ----------
  if (!root_dir_.empty()) {
    for (uint32_t s = 0; s < n_shards; ++s) {
      if (planned[s].delta == nullptr) continue;
      S3_RETURN_IF_ERROR(PersistShardMeta(shards_[s]));
    }
  }
  return Status::OK();
}

Status ShardRouter::PersistShardMeta(const Shard& shard) {
  ShardMetaData meta;
  meta.shard_index = shard.index;
  meta.shard_count = shard_count();
  meta.boundary_social_edges = shard.boundary_social_edges;
  meta.owned_users = shard.owned_users;
  {
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    meta.map = shard.map;
  }
  return WriteFileAtomic(
      ShardDirName(root_dir_, shard.index) + "/" + kShardMetaFile,
      EncodeShardMeta(meta));
}

}  // namespace s3::shard
