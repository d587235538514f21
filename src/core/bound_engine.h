// Incrementally maintained candidate scoring state for one S3k query
// (the candidate list of paper Algorithm 2, flattened), split in two:
//
//   * CandidateIndex — the seeker-independent, read-only half: candidate
//     nodes, per-keyword static weights and tail coefficients, the
//     reverse source index and the vertical-neighbor structures. It is
//     built once per candidate plan (BuildCandidatePlan stores it in
//     CandidatePlan::index), so a cached plan serves every query and
//     every concurrent engine without rebuilding it.
//   * CandidateBoundEngine — the per-query state over one index:
//     partial sums, bounds, alive/active flags, the active list and the
//     membership-mark scratch.
//
// Reverse index. Each candidate's sources for keyword slot qi feed the
// partial sum sum_idx = ci*K + qi. The index lists the sorted unique
// entity rows that feed any sum (source_rows) and, for the row at
// position p, the entries [rev_begin[p], rev_begin[p+1]) of rev_sum /
// rev_w: the (sum index, static weight) pairs that row feeds, in sum
// index order. An exploration step that adds Δprox to the rows the
// frontier touched updates only the affected sums — O(affected entries)
// per step instead of rescanning every source of every active
// candidate. The index is compact: its size depends on the plan, not on
// the instance's row count.
//
// Maintained invariants (pinned by tests/bound_engine_test.cc):
//   kw_sum_[ci*K+qi] == Σ_src w(ci,qi,src) · all_prox[src]
//   lower(ci) == Π_qi kw_sum_[ci*K+qi]
//   upper(ci) == Π_qi KeywordUpperBound(kw_sum_, W, c, tail)
//               == Π_qi max(S, min(W, S + c·tail)),
//   with S the partial sum, W = kw_w[ci*K+qi] and c = kw_c[ci*K+qi]
//   the static TailCoefficient of the source list (core/score.h),
// i.e. exactly the from-scratch CandidateLowerBound /
// CandidateUpperBound values for the same accumulated proximities.
// Lower bounds only ever grow (frontier deltas are non-negative).
// Upper bounds only shrink (in exact arithmetic): S gains at most
// c·(tail_n − tail_{n+1}) per step, which is what the tail term gives
// up. Either way each [lower, upper] brackets the exact score, so
// domination kills stay sound forever.
//
// Only candidates of the same document can be vertical neighbors, so
// the index tests ancestry within document groups once and stores the
// adjacency as a CSR over candidate ids plus the sorted unique pair
// list: the clean pass and the stop-condition top-k check never call
// AreVerticalNeighbors.
#ifndef S3_CORE_BOUND_ENGINE_H_
#define S3_CORE_BOUND_ENGINE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/connections.h"
#include "doc/document_store.h"
#include "social/transition_matrix.h"

namespace s3::core {

// The read-only, seeker-independent half of the bound engine. Immutable
// after BuildCandidateIndex; any number of engines may read one index
// concurrently.
struct CandidateIndex {
  size_t n_keywords = 0;

  // Candidates: node ids; slot (passing component) s owns the
  // contiguous candidate ids [slot_begin[s], slot_begin[s+1]).
  std::vector<doc::NodeId> node;
  std::vector<uint32_t> slot_begin;

  // Per (candidate, keyword slot) sum, indexed ci*K + qi: the static
  // weight W = Σ_src w and the tail coefficient c.
  std::vector<double> kw_w;
  std::vector<double> kw_c;

  // Reverse index (see the file comment): sorted unique source rows,
  // and per source-row position its (sum index, weight) entries.
  std::vector<uint32_t> source_rows;
  std::vector<uint64_t> rev_begin;  // source_rows.size() + 1 entries
  std::vector<uint32_t> rev_sum;
  std::vector<float> rev_w;

  // Vertical-neighbor adjacency between same-document candidates (CSR
  // over candidate ids, each list ascending), plus the unique (a < b)
  // pair list, sorted, from which the adjacency is built.
  std::vector<uint32_t> nbr_begin;
  std::vector<uint32_t> nbr_list;
  std::vector<std::pair<uint32_t, uint32_t>> nbr_pairs;

  // Per-slot score cap (ComponentCandidates::max_cap) and the slots by
  // cap descending, for the undiscovered-component threshold.
  std::vector<double> slot_cap;
  std::vector<uint32_t> slots_by_cap;

  size_t size() const { return node.size(); }
  size_t slots() const { return slot_cap.size(); }
};

// Flattens the candidates of all passing components: `per_comp[i]`
// becomes slot i, its candidates numbered consecutively in order.
// `column_max` is the instance's TransitionMatrix::ColumnMax(), from
// which each source list's tail coefficient is computed once here.
CandidateIndex BuildCandidateIndex(
    const doc::DocumentStore& docs, size_t n_keywords,
    const std::vector<double>& column_max,
    const std::vector<ComponentCandidates>& per_comp);

// Recomputes every kw_c of `ix` against `column_max` (a successor
// generation's TransitionMatrix::ColumnMax()) in one ascending pass
// over the reverse index. Each sum meets its entries in ascending row,
// its source list's order, so every coefficient equals TailCoefficient
// over that list bit for bit.
void RefreshTailCoefficients(CandidateIndex& ix,
                             const std::vector<double>& column_max);

// The forward source lists of an index, transposed from its reverse
// index in O(entries): the entries of sum index ci*K + qi are
// [begin[sum], begin[sum + 1]) of `entries`, in ascending row — the
// (row, weight) list BuildCandidateIndex was given for that sum.
struct ForwardSources {
  std::vector<uint32_t> begin;
  std::vector<std::pair<uint32_t, float>> entries;
};
ForwardSources TransposeSources(const CandidateIndex& ix);

// Slot `slot` of `ix` back as the ComponentCandidates it was built from:
// nodes, source lists and max_cap, which is all BuildCandidateIndex
// reads (static_weight and cap are left empty).
ComponentCandidates SlotCandidates(const CandidateIndex& ix,
                                   const ForwardSources& fwd, uint32_t slot);

// True iff `cc` would flatten into slot `slot` of `ix` unchanged: the
// same nodes, source rows, weight bits and max_cap bits.
bool SlotMatches(const CandidateIndex& ix, const ForwardSources& fwd,
                 uint32_t slot, const ComponentCandidates& cc);

class CandidateBoundEngine {
 public:
  // Query state over `index`, which must outlive the engine.
  explicit CandidateBoundEngine(const CandidateIndex& index);

  size_t size() const { return index_.size(); }
  size_t keywords() const { return index_.n_keywords; }

  doc::NodeId node(uint32_t ci) const { return index_.node[ci]; }
  bool alive(uint32_t ci) const { return alive_[ci] != 0; }
  double lower(uint32_t ci) const { return lower_[ci]; }
  double upper(uint32_t ci) const { return upper_[ci]; }

  // Marks component slot `slot` discovered: its candidates join the
  // active set that RefreshBounds / CleanDominated operate on. Partial
  // sums are maintained for every candidate from the start (sources
  // can be reached before their component is discovered), but bound
  // refresh and domination cleaning are paid only for active ones.
  void ActivateSlot(uint32_t slot);
  const std::vector<uint32_t>& ActiveCandidates() const {
    return active_list_;
  }

  // Sorted unique entity rows that feed at least one candidate — the
  // only rows whose proximity deltas can change any bound. Once the
  // frontier grows wider than this set, FoldFrontier scans it instead
  // of the frontier.
  const std::vector<uint32_t>& SourceRows() const {
    return index_.source_rows;
  }

  // The exploration fold: ApplyDelta(row, factor · frontier[row]) for
  // every nonzero row, walking the smaller of frontier.nonzero and
  // SourceRows() (rows of the former are found in the latter by a
  // forward search). Both are ascending, so every partial sum adds its
  // terms in the same row order on either domain (bit-identical sums);
  // zero rows are skipped, which is bitwise inert.
  void FoldFrontier(const social::Frontier& frontier, double factor);

  // Folds one exploration delta (all_prox[row] += delta) into the
  // partial sums of every (candidate, keyword-slot) fed by `row`.
  void ApplyDelta(uint32_t row, double delta);

  // Recomputes lower/upper for every active candidate from the partial
  // sums and the tail term: O(active · keywords), with no per-source
  // work.
  void RefreshBounds(double tail);

  // CleanCandidatesList. A live (alive and active) candidate that
  // dominates every live vertical neighbor kills them all: the greedy
  // top-k of Definition 3.2 reaches it before any of them and then
  // skips each one. Dominating only some neighbors is not enough — a
  // higher neighbor may exclude the dominator, and the greedy pass then
  // takes a candidate it dominated (one in another branch below it).
  // Rounds repeat until none kills; each round decides against the
  // live set it started from and applies its kills together.
  // Domination within epsilon can run in a cycle (see the .cc), so a
  // round that kills nothing falls back to exact bounds: an exact
  // candidate (upper == lower) ahead of all its live neighbors, all
  // exact, in the (upper desc, node asc) order kills them. At tail 0
  // every candidate is exact, so the fixed point leaves no live
  // neighbor pair. Returns how many were killed.
  size_t CleanDominated(double epsilon);

  // True if any two of the first `count` candidates in `order` are
  // vertical neighbors (stop-condition top-k check).
  bool AnyNeighborPair(const std::vector<uint32_t>& order, size_t count);

  // First k alive candidates of `order` with no two vertical neighbors
  // (Definition 3.2's answer constraint).
  std::vector<uint32_t> GreedyTopK(const std::vector<uint32_t>& order,
                                   size_t k);

  // From-scratch per-keyword sum Σ w · prox[src] over the index entries
  // that feed sum (ci, qi), in source-row order (test hook: validates
  // the incremental kw_sum_ invariant).
  double FromScratchKeywordSum(uint32_t ci, size_t qi,
                               const std::vector<double>& prox) const;

 private:
  // Folds the reverse-index entries of source-row position `pos`.
  void FoldPosition(size_t pos, double delta);

  const CandidateIndex& index_;

  std::vector<uint8_t> alive_;
  std::vector<uint8_t> active_;
  std::vector<uint32_t> active_list_;  // the refresh domain
  std::vector<double> kw_sum_;  // size() * K incremental sums, ci*K + qi
  std::vector<double> lower_;
  std::vector<double> upper_;

  // Epoch-marking scratch for the neighbor-set membership tests.
  std::vector<uint32_t> mark_;
  uint32_t mark_epoch_ = 0;
  // CleanDominated's per-round scratch: the candidates to decide, the
  // kills decided and the exact candidates that dominated too few.
  std::vector<uint32_t> check_;
  std::vector<uint32_t> victims_;
  std::vector<uint32_t> stuck_;
};

}  // namespace s3::core

#endif  // S3_CORE_BOUND_ENGINE_H_
