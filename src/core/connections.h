// Derivation of the connections con(d, k) between documents and query
// keywords (paper §3.2), organised per component.
//
// A connection is a tuple (type, f, src):
//   * S3:contains   — fragment f of d contains k' ∈ Ext(k); src is d.
//   * S3:relatedTo  — a tag chain on fragment f of d links it to k';
//                     src is the tag author (or the source a tag
//                     inherited, for higher-level tags / endorsements).
//   * S3:commentsOn — a comment on fragment f of d is connected to k;
//                     the comment's sources carry over.
//
// Connections propagate only along partOf / commentsOn± / hasSubject±
// edges, i.e. inside one component of the ComponentIndex, so the
// builder works component-at-a-time. con(d, k) is fully determined by
// the instance (exploration only refines prox), so the builder emits,
// per candidate and query keyword, the aggregated static weights
//   w(d, k, src) = Σ_{(type,f,src)} η^{|pos(d,f)|}
// from which S3k computes score bounds as Σ_src w · prox-bound(src).
//
// Endorsement semantics (keyword-less tags): an endorsement by user v
// on subject x contributes v as a source for keyword k iff x has a
// *grounded* connection to k — one derivable without endorsements
// (the least fixpoint of the inheritance rule, so a cycle of
// endorsements cannot ground itself).
#ifndef S3_CORE_CONNECTIONS_H_
#define S3_CORE_CONNECTIONS_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/s3_instance.h"

namespace s3::core {

enum class ConnectionType : uint8_t {
  kContains = 0,
  kRelatedTo = 1,
  kCommentsOn = 2,
};

// Sentinel source meaning "the candidate document itself" (contains
// connections: src is the subtree root being scored).
inline constexpr uint32_t kSelfSource = UINT32_MAX;

// One attachment event for a query keyword: fragment f plus the source
// whose social proximity weights the tuple.
struct AttachmentEvent {
  doc::NodeId fragment;
  uint32_t source_row;  // entity row, or kSelfSource
  ConnectionType type;
};

// A candidate answer (document or fragment) with its aggregated
// connection weights.
struct Candidate {
  doc::NodeId node = doc::kInvalidNode;
  // sources[i]: (source entity row, Σ η^pos) for query keyword i; the
  // kSelfSource sentinel is already resolved to the candidate's row.
  std::vector<std::vector<std::pair<uint32_t, float>>> sources;
  // static_weight[i] = W(d, k_i) = Σ_src w — the score with prox ≡ 1.
  std::vector<double> static_weight;
  // cap = Π_i static_weight[i]; score(d, q) ≤ cap · maxprox^{|φ|}.
  double cap = 0.0;
};

// All candidates of one component for one query.
struct ComponentCandidates {
  social::ComponentId component = social::kInvalidComponent;
  std::vector<Candidate> candidates;
  double max_cap = 0.0;
};

// Per-query keyword acceptance sets: ext[i] = Ext(k_i) as keyword ids.
using QueryExtension = std::vector<std::unordered_set<KeywordId>>;

// Builds candidates per component. One builder per query evaluation;
// memo tables for tag and comment source sets are reused across
// components.
class ConnectionBuilder {
 public:
  // `instance` must be finalized. eta is the structural damping factor.
  ConnectionBuilder(const S3Instance& instance, double eta);

  // Collects the attachment events of component `comp` for each query
  // keyword and aggregates them into candidates. Only fragments whose
  // subtree matches *all* query keywords become candidates.
  ComponentCandidates Build(social::ComponentId comp,
                            const QueryExtension& ext);

  // Raw per-keyword events of a component (exposed for tests and for
  // the naive reference scorer).
  std::vector<std::vector<AttachmentEvent>> CollectEvents(
      social::ComponentId comp, const QueryExtension& ext);

 private:
  // Sources contributed by tag `t` to the item it tags, for query
  // keyword qi (includes higher-level tags and endorsements).
  const std::unordered_set<uint32_t>& TagSources(social::TagId t,
                                                 size_t qi,
                                                 const QueryExtension& ext);

  // Grounded (endorsement-free) variant, used as the endorsement
  // inheritance guard.
  bool TagGrounded(social::TagId t, size_t qi, const QueryExtension& ext);

  // All connection sources of the document rooted at `root` (contains /
  // tag chains / endorsements / comments, recursively).
  const std::unordered_set<uint32_t>& DocSources(doc::NodeId root,
                                                 size_t qi,
                                                 const QueryExtension& ext);

  // True if the subtree of fragment f has a grounded connection to
  // query keyword qi.
  bool FragmentGrounded(doc::NodeId f, size_t qi,
                        const QueryExtension& ext);

  bool NodeContainsMatch(doc::NodeId n, const QueryExtension& ext,
                         size_t qi) const;

  const S3Instance& instance_;
  double eta_;

  // Memo tables keyed by (entity id, query keyword index).
  struct Key {
    uint32_t id;
    uint32_t qi;
    bool operator==(const Key& o) const { return id == o.id && qi == o.qi; }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return (static_cast<size_t>(k.id) << 20) ^ k.qi;
    }
  };
  std::unordered_map<Key, std::unordered_set<uint32_t>, KeyHash> tag_memo_;
  std::unordered_map<Key, bool, KeyHash> tag_grounded_memo_;
  std::unordered_map<Key, std::unordered_set<uint32_t>, KeyHash> doc_memo_;
  std::unordered_map<Key, bool, KeyHash> frag_grounded_memo_;
  // Recursion guards (least-fixpoint semantics on comment and tag
  // cycles). Each recursive derivation namespaces its guard keys with a
  // distinct high bit in qi (queries have at most 64 keywords):
  // 0x80000000 DocSources, 0x40000000 FragmentGrounded,
  // 0x20000000 TagGrounded, 0x10000000 TagSources.
  std::unordered_set<Key, KeyHash> in_progress_;
  // Counts guard suppressions. A result computed while a guard fired
  // below it may under-approximate (the cycle member it fed back into
  // was blanked), so it is only valid for the call stack that produced
  // it: negative grounded answers are not memoized, and source sets go
  // to `scratch_sets_` (kept alive for reference stability) instead of
  // the memo tables.
  size_t guard_hits_ = 0;
  std::vector<std::unique_ptr<std::unordered_set<uint32_t>>> scratch_sets_;
};

}  // namespace s3::core

#endif  // S3_CORE_CONNECTIONS_H_
