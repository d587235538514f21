// ShardRouter: serves one logical S3 population as N cooperating
// shard instances (src/server/SHARDING.md).
//
// The router owns one QueryService (and, for storage-backed
// deployments, one SnapshotManager) per shard, plus the routing state:
// the user -> reach-group table, the per-group shard materialization
// masks, and the per-shard local<->global id maps produced by the
// partitioner.
//
// Queries. A query is seeker-scoped; the seeker's *home shard*
// (ShardOfUser) always materializes the seeker's whole reach group, so
//   * Query(q)        routes to the home shard — one hop, exact;
//   * QueryGlobal(q)  scatter-gathers over every shard and merges the
//     candidate streams with a bound-aware k-heap. Shards that do not
//     materialize the seeker's group are pruned *before* the fan-out:
//     no social path from the seeker exists there, so their statically
//     reported upper bound is 0. Queried shards return score intervals
//     plus a remaining-upper export (SearchStats::remaining_upper);
//     a stream whose best possible score falls below the current
//     global k-th lower bound is dropped from the merge unread.
//     Results are deduplicated by global node id (replicated groups
//     return identical streams) and are bit-for-bit identical to the
//     single-instance answer.
//
// Updates. ApplyUpdate routes one GlobalUpdate — a batch of population
// ops in *global* ids — to the shards materializing the touched
// groups, as one InstanceDelta per shard (new keyword spellings go to
// every shard so KeywordIds stay aligned). Each shard advances its own
// generation independently — ShardedResponse reports the per-shard
// generation vector. An op that would merge two groups materialized on
// *different* shard sets is refused (FailedPrecondition) before
// anything is applied: honoring it would require moving population
// between shards (rebalancing = shipping snapshot files; see
// SHARDING.md follow-ons).
//
// Thread-safety: Query / QueryGlobal / Generations may be called from
// any number of threads, concurrently with at most one ApplyUpdate at
// a time (updates serialize on an internal mutex; routing state is
// guarded by a shared_mutex that queries only hold to translate ids —
// never across a shard round-trip).
#ifndef S3_SHARD_SHARD_ROUTER_H_
#define S3_SHARD_SHARD_ROUTER_H_

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/instance_delta.h"
#include "obs/metrics.h"
#include "server/snapshot_manager.h"
#include "shard/partitioner.h"

namespace s3::shard {

struct ShardRouterOptions {
  // Per-shard serving configuration (workers, queue, cache).
  server::QueryServiceOptions service;
  // Storage-backed deployments only: checkpoint cadence applied to
  // every shard's SnapshotManager (dir is set per shard).
  uint64_t checkpoint_every = 0;
  bool background_checkpoints = true;
};

// Per-shard outcome of one routed or scattered query. The bound
// exports (kth_lower / remaining_upper / certified_epsilon) are always
// the *post-search* values of the search that answered this request —
// the plan cache stores seeker-independent plans, never stats — so a
// cache-hit answer exports exactly what the cold answer did.
struct ShardReport {
  uint32_t shard = 0;
  uint64_t generation = 0;      // generation at merge time
  bool queried = false;
  bool pruned_unreachable = false;  // no social path: static 0 bound
  bool pruned_bound = false;        // stream below the global k-th lower
  bool cache_hit = false;
  bool deadline_exceeded = false;   // this shard's search hit its deadline
  double kth_lower = 0.0;
  double remaining_upper = 0.0;
  double certified_epsilon = 0.0;   // this shard's local certificate
  size_t entries = 0;
  // ---- load signals (ROADMAP item 3's load-aware-scatter input) ----
  // End-to-end latency of this shard's sub-query as the router saw it
  // (admission -> completion inside the shard's QueryService); 0 for
  // pruned shards.
  double scatter_seconds = 0.0;
  // The shard's admission-queue depth sampled at scatter submit: how
  // loaded the shard already was when this query targeted it.
  size_t queue_depth = 0;
};

struct ShardedResponse {
  // Merged top-k in *global* node ids; bit-for-bit the single-instance
  // answer (entries, order and score intervals).
  std::vector<core::ResultEntry> entries;
  // Per-shard generation vector at merge time.
  std::vector<uint64_t> generations;
  std::vector<ShardReport> shards;
  size_t shards_queried = 0;
  size_t shards_pruned = 0;
  // Search stats of the seeker's home shard (global nodes in
  // candidate_nodes are NOT remapped; sizes/counters only).
  core::SearchStats stats;
  bool cache_hit = false;  // home shard's plan-cache outcome
  // Global certificate of the merged answer, folded from the per-shard
  // bound exports: kth_lower is the worst lower bound among the merged
  // entries; remaining_upper bounds every document *not* merged (shard
  // remaining-upper exports, the best possible score of bound-pruned
  // streams, and the uppers of entries that lost the merge);
  // certified_epsilon = max(0, remaining_upper/kth_lower - 1). A shard
  // whose deadline expired degrades the certificate — its export is
  // looser — instead of failing the query; deadline_exceeded reports
  // that any queried shard was truncated.
  double kth_lower = 0.0;
  double remaining_upper = 0.0;
  double certified_epsilon = 0.0;
  bool deadline_exceeded = false;
};

// A batch of population growth in global ids, built against the
// router's current global population (BeginUpdate captures the base
// counts; a stale update is refused). Ids returned here are the global
// ids the entities have after ApplyUpdate.
class GlobalUpdate {
 public:
  KeywordId InternKeyword(std::string_view keyword);
  std::vector<KeywordId> InternText(std::string_view text);

  Result<doc::DocId> AddDocument(doc::Document document, std::string uri,
                                 social::UserId poster);
  Status AddComment(doc::DocId comment, doc::NodeId target);
  Result<social::TagId> AddTagOnFragment(social::UserId author,
                                         doc::NodeId subject,
                                         KeywordId keyword);
  Result<social::TagId> AddTagOnTag(social::UserId author,
                                    social::TagId subject,
                                    KeywordId keyword);
  Status AddSocialEdge(social::UserId from, social::UserId to,
                       double weight);

  bool empty() const { return ops_.empty() && spellings_.empty(); }
  size_t op_count() const { return ops_.size(); }

 private:
  friend class ShardRouter;

  enum class Kind : uint8_t { kDocument, kComment, kTag, kSocial };
  struct Op {
    Kind kind;
    // kDocument: document/uri/user; assigned global ids in a/b.
    doc::Document document{""};
    std::string uri;
    social::UserId user = 0;   // poster / author / from
    uint32_t a = 0;            // node base / comment doc / subject / to
    uint32_t b = 0;            // target node / keyword
    uint32_t assigned = 0;     // assigned global doc / tag id
    double weight = 0.0;
    bool on_tag = false;
  };

  GlobalUpdate(uint64_t users, uint64_t docs, uint64_t nodes, uint64_t tags,
               uint64_t vocab,
               std::shared_ptr<const core::S3Instance> vocab_view);

  // Combined-population bounds for early validation.
  uint64_t next_doc() const { return base_docs_ + new_docs_; }
  uint64_t next_node() const { return base_nodes_ + new_nodes_; }
  uint64_t next_tag() const { return base_tags_ + new_tags_; }

  uint64_t base_users_, base_docs_, base_nodes_, base_tags_, base_vocab_;
  uint64_t new_docs_ = 0, new_nodes_ = 0, new_tags_ = 0;
  // Any shard snapshot works as the interning base: keyword ids are
  // shard-invariant. Held alive for the update's lifetime.
  std::shared_ptr<const core::S3Instance> vocab_view_;
  std::vector<Op> ops_;
  std::vector<std::string> spellings_;
  std::unordered_map<std::string, KeywordId> overlay_;
};

class ShardRouter {
 public:
  // In-memory deployment over a freshly partitioned population.
  static Result<std::unique_ptr<ShardRouter>> Serve(
      PartitionResult partition, ShardRouterOptions options);

  // Storage-backed deployment: opens every shard directory under
  // `root` (recovering snapshots + WAL tails), re-derives the group
  // table from the shards' reach partitions, and serves. Fails with
  // InvalidArgument when the directories are inconsistent (e.g. a
  // shard.meta that does not cover its recovered population).
  static Result<std::unique_ptr<ShardRouter>> Open(
      const std::string& root, ShardRouterOptions options);

  ~ShardRouter();
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  // Seeker-routed query (one shard). Takes a QueryRequest — a bare
  // core::Query converts to an exact request — and propagates it
  // verbatim to the shard's QueryService, so per-request
  // k/epsilon/deadline/mode behave exactly as on a single instance.
  Result<ShardedResponse> Query(const core::QueryRequest& query);

  // Scatter-gather with bound-aware merge; identical entries to
  // Query(), plus per-shard reports and the *global* certificate
  // folded from every shard's bound exports (ShardedResponse).
  Result<ShardedResponse> QueryGlobal(const core::QueryRequest& query);

  // Starts an update batch against the current global population.
  GlobalUpdate BeginUpdate() const;

  // Routes and applies one batch; every touched shard logs (storage
  // mode) and hot-swaps its own successor generation.
  Status ApplyUpdate(const GlobalUpdate& update);

  uint32_t shard_count() const {
    return static_cast<uint32_t>(shards_.size());
  }
  uint32_t HomeShardOfUser(social::UserId u) const;
  std::vector<uint64_t> Generations() const;
  const server::QueryService& service(uint32_t s) const {
    return *shards_[s].service;
  }

  // Global population counters (users never change; the rest grow
  // with updates).
  uint64_t user_count() const { return n_users_; }
  uint64_t doc_count() const;
  uint64_t tag_count() const;

 private:
  struct Shard {
    uint32_t index = 0;
    std::unique_ptr<server::SnapshotManager> manager;  // storage mode only
    std::unique_ptr<server::QueryService> service;
    ShardMap map;
    uint64_t boundary_social_edges = 0;
    uint32_t owned_users = 0;
  };

  ShardRouter() = default;

  // Group of a user / owning user of a global doc or tag, under
  // state_mu_ (shared).
  uint32_t RootOf(social::UserId u) const { return user_root_[u]; }
  uint64_t MaskOfRoot(uint32_t root) const;
  Result<social::UserId> OwnerOfGlobalNode(
      doc::NodeId node, const std::vector<social::UserId>& pending_doc_owner,
      const std::vector<doc::NodeId>& pending_doc_base,
      const std::vector<uint32_t>& pending_doc_nodes) const;

  Result<ShardedResponse> QueryShards(const core::QueryRequest& query,
                                      bool scatter);

  Status PersistShardMeta(const Shard& shard);

  // Registers the router-level metric series (per-shard scatter
  // latency histograms, prune/dedup counters) once shards_ is built.
  void RegisterMetrics();

  std::string root_dir_;  // empty for in-memory deployments
  ShardRouterOptions options_;
  std::vector<Shard> shards_;
  uint64_t n_users_ = 0;

  // Guards the routing state below (queries: shared; updates:
  // exclusive). Never held across a shard round-trip.
  mutable std::shared_mutex state_mu_;
  std::vector<uint32_t> user_root_;           // reach group per user
  std::vector<uint32_t> home_;                // home shard per user
  std::vector<uint64_t> root_mask_;           // per user id (valid at roots)
  std::vector<social::UserId> doc_owner_;     // per global doc
  std::vector<doc::NodeId> doc_node_base_;    // per global doc, ascending
  std::vector<uint32_t> doc_node_count_;      // per global doc
  std::vector<social::UserId> tag_owner_;     // per global tag
  uint64_t n_nodes_ = 0;
  uint64_t n_vocab_ = 0;

  // Serializes writers (ApplyUpdate).
  std::mutex update_mu_;

  // ---- observability (registry-owned handles; no-ops when compiled
  // out). h_scatter_[s] is this router's view of shard s's sub-query
  // latency; the per-shard QueryServices additionally publish their
  // own series under {service="shard<s>"} labels.
  std::vector<obs::Histogram*> h_scatter_;
  obs::Counter* c_pruned_unreachable_ = nullptr;
  obs::Counter* c_pruned_bound_ = nullptr;
  obs::Counter* c_merge_dedup_ = nullptr;
};

}  // namespace s3::shard

#endif  // S3_SHARD_SHARD_ROUTER_H_
