// Incrementally maintained candidate scoring state for one S3k query
// batch (the candidate list of paper Algorithm 2, flattened, times L
// seeker lanes).
//
// Layout. Candidate sources live in one CSR-style struct-of-arrays:
// for candidate ci and keyword slot qi, the entries
//   [src_begin_[ci*K+qi], src_begin_[ci*K+qi+1])
// of src_rows_ / src_w_ are the (source entity row, static weight)
// pairs that `Candidate::sources` used to hold per candidate. A
// reverse index (rev_ptr_ over entity rows; rev_sum_/rev_w_) maps a
// source row back to every per-keyword partial sum it feeds, so an
// exploration step that adds Δprox to the rows the frontier touched
// updates only the affected sums — O(affected entries) per step
// instead of rescanning every source of every active candidate.
//
// Multi-seeker batching: the engine carries `lanes` independent
// per-seeker columns through one shared candidate structure. All
// static state (nodes, source CSR, reverse index, vertical-neighbor
// adjacency) is built once per batch; the per-seeker state — partial
// sums, bounds, active/alive flags — is struct-of-arrays with the lane
// index innermost (kw_sum_[(ci*K+qi)*L + lane]), so the per-iteration
// maintenance passes stream all lanes per CSR entry (the SpMM layout
// of social/propagate_kernels.h). Lanes are arithmetically
// independent: every per-lane operation sequence is exactly what a
// lanes==1 engine would run for that seeker alone, so batched bounds
// are bit-for-bit the single-query bounds. The default lanes==1
// preserves the original single-seeker API unchanged (lane parameters
// default to 0).
//
// Maintained invariants (pinned by tests/bound_engine_test.cc), per
// lane:
//   kw_sum_[(ci*K+qi)*L+s] == Σ_src w(ci,qi,src) · all_prox_s[src]
//   lower(ci,s) == Π_qi kw_sum_[(ci*K+qi)*L+s]
//   upper(ci,s) == Π_qi KeywordUpperBound(kw_sum_, W, c, tail_s)
//               == Π_qi max(S, min(W, S + c·tail_s)),
//   with S the partial sum, W = kw_w_[ci*K+qi] and c = kw_c_[ci*K+qi]
//   the static TailCoefficient of the source list (core/score.h),
// i.e. exactly the from-scratch CandidateLowerBound /
// CandidateUpperBound values for the same accumulated proximities.
// Lower bounds only ever grow (frontier deltas are non-negative).
// Upper bounds only shrink (in exact arithmetic): S gains at most
// c·(tail_n − tail_{n+1}) per step, which is what the tail term gives
// up. Either way each
// [lower, upper] brackets the exact score, so domination kills stay
// sound forever.
//
// The engine also precomputes, once at construction, the structures
// the per-iteration maintenance passes need:
//   * doc groups — candidates of the same document, the only ones that
//     can be vertical neighbors (CleanCandidatesList);
//   * the vertical-neighbor adjacency between same-document candidates
//     (CSR nbr_*), replacing per-iteration AreVerticalNeighbors calls
//     in both the clean pass and the stop-condition top-k check.
#ifndef S3_CORE_BOUND_ENGINE_H_
#define S3_CORE_BOUND_ENGINE_H_

#include <cstdint>
#include <vector>

#include "core/connections.h"
#include "doc/document_store.h"
#include "social/transition_matrix.h"

namespace s3::core {

class CandidateBoundEngine {
 public:
  // Flattens the candidates of all passing components. `per_comp[i]`
  // becomes component slot i; the source lists are copied into the CSR
  // (never mutated), so one shared/cached CandidatePlan can seed any
  // number of concurrent engines. `column_max` is the instance's
  // TransitionMatrix::ColumnMax() (one entry per entity row; sizes the
  // reverse index), from which each source list's tail coefficient is
  // computed once here. `lanes` is the seeker-lane count (≥ 1,
  // ≤ social::kMaxFrontierLanes; pad with social::PadLanes for the
  // fixed-width kernels).
  CandidateBoundEngine(const doc::DocumentStore& docs, size_t n_keywords,
                       const std::vector<double>& column_max,
                       const std::vector<ComponentCandidates>& per_comp,
                       size_t lanes = 1);

  size_t size() const { return node_.size(); }
  size_t keywords() const { return n_keywords_; }
  size_t lanes() const { return lanes_; }

  doc::NodeId node(uint32_t ci) const { return node_[ci]; }
  bool alive(uint32_t ci, size_t lane = 0) const {
    return alive_[ci * lanes_ + lane] != 0;
  }
  double lower(uint32_t ci, size_t lane = 0) const {
    return lower_[ci * lanes_ + lane];
  }
  double upper(uint32_t ci, size_t lane = 0) const {
    return upper_[ci * lanes_ + lane];
  }

  // Marks component slot `slot` discovered in `lane`: its candidates
  // join that lane's active set that RefreshBounds / CleanDominated
  // operate on. Partial sums are maintained for every candidate from
  // the start (sources can be reached before their component is
  // discovered), but bound refresh and domination cleaning are paid
  // only for active ones.
  void ActivateSlot(uint32_t slot, size_t lane = 0);
  const std::vector<uint32_t>& ActiveCandidates(size_t lane = 0) const {
    return active_lists_[lane];
  }

  // Sorted unique entity rows that feed at least one candidate — the
  // only rows whose proximity deltas can change any bound. Once the
  // frontier grows wider than this set, FoldFrontier scans it instead
  // of the frontier.
  const std::vector<uint32_t>& SourceRows() const { return source_rows_; }

  // The exploration fold: ApplyDeltaBatch(row, factor · frontier[row])
  // for every row with mass, walking the smaller of frontier.nonzero
  // and SourceRows(). Both are ascending, so every partial sum adds its
  // terms in the same row order on either domain (bit-identical sums);
  // all-zero rows are skipped, which is bitwise inert.
  void FoldFrontier(const social::BatchFrontier& frontier, double factor);

  // Folds one exploration delta (all_prox[row] += delta) into the
  // partial sums of every (candidate, keyword-slot) fed by `row`.
  // Lane 0 — the single-seeker path.
  void ApplyDelta(uint32_t row, double delta) {
    ApplyDeltaLane(row, 0, delta);
  }

  // Same fold for one specific lane (seeker seeding in a batch).
  void ApplyDeltaLane(uint32_t row, size_t lane, double delta) {
    for (uint64_t i = rev_ptr_[row]; i < rev_ptr_[row + 1]; ++i) {
      kw_sum_[rev_sum_[i] * lanes_ + lane] +=
          static_cast<double>(rev_w_[i]) * delta;
    }
  }

  // All-lane fold: deltas[l] is lane l's Δprox on `row` (0.0 for a
  // lane the frontier doesn't touch — bitwise a no-op for that lane).
  // One reverse-index walk streams every lane.
  void ApplyDeltaBatch(uint32_t row, const double* deltas);

  // Recomputes lower/upper for every active candidate (union over
  // lanes) from the partial sums and the per-lane tail term:
  // O(active · keywords · lanes), with no per-source work. `tails` has
  // lanes() entries.
  void RefreshBoundsBatch(const double* tails);

  // Single-tail convenience (the lanes==1 path and tests).
  void RefreshBounds(double tail);

  // CleanCandidatesList for one lane: kills active candidates
  // dominated by an active vertical neighbor (same rule as paper §4.2
  // / the previous from-scratch implementation). Returns how many were
  // killed in that lane.
  size_t CleanDominated(double epsilon, size_t lane = 0);

  // True if any two of the first `count` candidates in `order` are
  // vertical neighbors (stop-condition top-k check; lane-independent).
  bool AnyNeighborPair(const std::vector<uint32_t>& order, size_t count);

  // First k alive-in-`lane` candidates of `order` with no two vertical
  // neighbors (Definition 3.2's answer constraint).
  std::vector<uint32_t> GreedyTopK(const std::vector<uint32_t>& order,
                                   size_t k, size_t lane = 0);

  // From-scratch per-keyword sum Σ w · prox[src] over the stored CSR
  // entries (test hook: validates the incremental kw_sum_ invariant
  // for `lane`).
  double FromScratchKeywordSum(uint32_t ci, size_t qi,
                               const std::vector<double>& prox,
                               size_t lane = 0) const;

 private:
  // The per-candidate bound recomputation (RefreshBoundsBatch's body).
  void RefreshOne(uint32_t ci, const double* tails);

  size_t n_keywords_;
  size_t lanes_;

  // Struct-of-arrays candidate state. Per-lane arrays index
  // [ci * lanes_ + lane]; kw_sum_ indexes [(ci*K + qi) * lanes_ + lane].
  std::vector<doc::NodeId> node_;
  std::vector<uint8_t> alive_;
  std::vector<uint8_t> active_;
  std::vector<std::vector<uint32_t>> active_lists_;  // per lane
  std::vector<uint8_t> union_active_;   // active in some lane
  std::vector<uint32_t> union_list_;    // the refresh domain
  std::vector<double> kw_sum_;   // size() * K * lanes incremental sums
  std::vector<double> kw_w_;     // size() * K static weights W (shared)
  std::vector<double> kw_c_;     // size() * K tail coefficients c (shared)
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<std::vector<uint32_t>> slot_cands_;

  // Forward CSR of sources per (candidate, keyword-slot).
  std::vector<uint64_t> src_begin_;
  std::vector<uint32_t> src_rows_;
  std::vector<float> src_w_;

  // Reverse index: entity row -> (partial-sum index, weight).
  std::vector<uint64_t> rev_ptr_;
  std::vector<uint32_t> rev_sum_;
  std::vector<float> rev_w_;
  std::vector<uint32_t> source_rows_;  // rows with a nonempty rev range

  // Vertical-neighbor adjacency between same-document candidates
  // (CSR over candidate ids), plus the unique (a < b) pair list the
  // clean pass scans.
  std::vector<uint32_t> nbr_begin_;
  std::vector<uint32_t> nbr_list_;
  std::vector<std::pair<uint32_t, uint32_t>> nbr_pairs_;

  // Epoch-marking scratch for the neighbor-set membership tests.
  std::vector<uint32_t> mark_;
  uint32_t mark_epoch_ = 0;
};

}  // namespace s3::core

#endif  // S3_CORE_BOUND_ENGINE_H_
