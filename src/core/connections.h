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
#include <deque>
#include <unordered_set>
#include <utility>
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

// Builds candidates per component. One builder serves a whole query
// plan: BuildCandidatePlan hands it component after component (its
// tables are sized by the instance, so a builder per component would
// pay for them every time). A builder is not thread-safe.
//
// The builder binds the query extension on the first call and rebinds
// when a call passes a different one. Binding builds a node → keyword
// slot bit mask from the inverted-index postings of the extension
// keywords, which answers every S3:contains test. The derivations
// (tag sources, document sources and the two grounding tests) run one
// keyword slot at a time and are memoized in flat arrays indexed by
// node, document and tag id. Each entry is stamped with an epoch that
// advances per (component, slot), so nothing is cleared between
// components, and neither the builder nor the instance tables it reads
// (tags on a subject, comments on a fragment: flat CSRs) hash anything.
// Every source set is a sorted unique vector of rows; memoized ones
// live in one arena per epoch.
//
// A component's candidates come out in ascending node id, and each
// candidate's source lists in ascending row. Per (candidate, keyword,
// source) the η^|pos| terms are summed in event order: member order of
// the attachment fragment, then contains, relatedTo, commentsOn.
// static_weight sums a list in row order.
class ConnectionBuilder {
 public:
  // `instance` must be finalized. eta is the structural damping factor.
  ConnectionBuilder(const S3Instance& instance, double eta);

  // Collects the attachment events of component `comp` for each query
  // keyword and aggregates them into candidates. Only fragments whose
  // subtree matches *all* query keywords become candidates.
  ComponentCandidates Build(social::ComponentId comp,
                            const QueryExtension& ext);

 private:
  // A memo entry, valid while `stamp` equals the current epoch. `state`
  // is kBusy while the derivation is on the call stack (the cycle
  // guard), else its result: the grounded answer, or for source sets
  // the arena range [begin, end).
  struct Memo {
    uint32_t stamp = 0;
    uint32_t state = 0;
    uint32_t begin = 0;
    uint32_t end = 0;
  };
  // Per node: the contains mask of the bound extension, and the
  // coverage pass of Build (stamped separately from the memos).
  struct NodeState {
    uint64_t contains = 0;
    uint64_t cover = 0;
    uint32_t cover_stamp = 0;
    uint32_t cand = 0;  // candidate index when cover is full
  };
  // One candidate's share of an event: weight η^|pos| for `src`.
  struct Contribution {
    uint32_t src;
    uint32_t cand;
    double w;
  };

  // Makes `ext` the bound extension (a no-op when it already is).
  void Bind(const QueryExtension& ext);
  // Starts a fresh memo epoch (and empties the arena).
  void NextEpoch();
  // The events of keyword slot qi in component `comp`, in member order.
  void CollectSlot(social::ComponentId comp, size_t qi,
                   std::vector<AttachmentEvent>& events);

  bool ExtHas(size_t qi, KeywordId k) const;
  double EtaPow(size_t distance);

  // Whether tag t's own author is a source for slot qi: a keyword tag
  // whose keyword is in Ext, or an endorsement of a grounded subject.
  bool TagOwnSource(social::TagId t, size_t qi);
  // Appends the sources tag `t` contributes to the item it tags
  // (higher-level tags and endorsements included) to `out`.
  void AppendTagSources(social::TagId t, size_t qi,
                        std::vector<uint32_t>& out);
  // Appends every connection source of document `d` (contains / tag
  // chains / endorsements / comments, recursively) to `out`.
  void AppendDocSources(doc::DocId d, size_t qi, std::vector<uint32_t>& out);
  // Grounded (endorsement-free) connections: the least fixpoint of the
  // inheritance rule, the endorsement guard.
  bool TagGrounded(social::TagId t, size_t qi);
  bool FragmentGrounded(doc::NodeId f, size_t qi);

  // Memo protocol of the derivations. *Known: true when the entry
  // answers the call (a kept result, or the cycle guard — counted as a
  // hit, contributing nothing); otherwise the entry is marked busy and
  // the caller derives, then Settle* keeps the result unless a guard
  // of its family fired below it (`hits_before`). SettleSources also
  // sorts `sources`, deduplicates it and appends it to `out`.
  bool GroundedKnown(Memo& m, bool* grounded);
  void SettleGrounded(Memo& m, size_t hits_before, bool grounded);
  bool SourcesKnown(Memo& m, std::vector<uint32_t>& out);
  void SettleSources(Memo& m, size_t hits_before,
                     std::vector<uint32_t>& sources,
                     std::vector<uint32_t>& out);

  // Depth-indexed scratch vectors for the recursive derivations.
  std::vector<uint32_t>& AcquireScratch();
  void ReleaseScratch() { --scratch_depth_; }

  const S3Instance& instance_;
  double eta_;
  std::vector<double> eta_pow_;  // eta_pow_[d] = η^d

  // The bound extension, its sorted keywords per slot and the per-node
  // state (sized on first bind).
  bool bound_ = false;
  QueryExtension ext_;
  std::vector<std::vector<KeywordId>> ext_keywords_;
  std::vector<NodeState> nodes_;

  // Memo tables, one keyword slot at a time (see Memo).
  std::vector<Memo> frag_grounded_;  // by node
  std::vector<Memo> doc_sources_;    // by document
  std::vector<Memo> tag_grounded_;   // by tag
  std::vector<Memo> tag_sources_;    // by tag
  uint32_t epoch_ = 0;
  std::vector<uint32_t> arena_;
  // Guard suppressions, per derivation family (the grounded family
  // never calls the source family, and a source derivation always
  // enters it with an empty grounded stack). A result computed while a
  // guard of its family fired below it may under-approximate (the
  // cycle member it fed back into was blanked), so it is only valid for
  // the call stack that produced it: it is used once and not memoized.
  size_t ground_guard_hits_ = 0;
  size_t source_guard_hits_ = 0;
  std::deque<std::vector<uint32_t>> scratch_;
  size_t scratch_depth_ = 0;

  // Build's scratch, reused across components.
  std::vector<std::vector<AttachmentEvent>> events_;
  std::vector<doc::NodeId> covered_;
  std::vector<std::pair<uint32_t, size_t>> path_;  // (candidate, distance)
  std::vector<Contribution> contribs_, by_cand_;
  std::vector<uint32_t> cand_begin_;
  std::vector<uint64_t> keys_;
};

}  // namespace s3::core

#endif  // S3_CORE_CONNECTIONS_H_
