// The concrete S3k score (paper §3.4) and the feasibility-property
// constants used by the search algorithm (§3.3).
//
// Social proximity:  prox(a,b) = Cγ · Σ_{p ∈ a⇝b} prox→(p) / γ^|p|,
// with prox→(p) the product of normalized edge weights and
// Cγ = (γ−1)/γ, so that prox ≤ 1.
//
// Document score:
//   score(d,(u,φ)) = Π_{k∈φ} Σ_{(type,f,src) ∈ con(d,k)}
//                       η^{|pos(d,f)|} · prox(u,src).
//
// Feasibility constants (§3.3), with their proof sketches. border_m =
// δ_u · T^m is the length-m path mass (the matrix-power frontier) and
// T's rows sum to ≤ 1 (social/transition_matrix.h), so ‖border_m‖₁ ≤ 1.
//   * Uprox: prox≤n = prox≤(n−1) + Cγ · border_n / γ^n.
//   * Long-path attenuation: border_m[r] ≤ 1, so per source
//     prox − prox≤n ≤ Cγ Σ_{m>n} γ^{−m} = γ^{−(n+1)} =: B>n (TailBound).
//   * Column-max tail: for m ≥ 1, border_m[r] = Σ_j border_{m−1}[j]·T[j][r]
//     ≤ colmax[r] · ‖border_{m−1}‖₁ ≤ colmax[r], where colmax[r] is the
//     largest entry of column r. So a keyword's unexplored mass
//     Σ_src w·(prox − prox≤n)[src] is at most c · B>n for
//       c = Σ_src w · colmax[src]  (always),
//       c = w_max                  (when no source is listed twice, as
//                                   Σ_r border_m[r] ≤ 1),
//       c = W = Σ_src w            (border_m[r] ≤ 1).
//     TailCoefficient takes the smallest, inflated by kTailMargin
//     against rounding in the computed frontiers.
//   * Undiscovered components: a source not reached before step n has
//     prox ≤ Cγ Σ_{m≥n} γ^{−m} = γ^{−n} (UndiscoveredBound), so any
//     document of an undiscovered component scores at most
//     Π_{k∈φ} W_k · min(1, γ^{−n})^{|φ|} — with Π W_k realized per
//     candidate by `Candidate::cap` and per component by `max_cap`.
#ifndef S3_CORE_SCORE_H_
#define S3_CORE_SCORE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/connections.h"

namespace s3::core {

// Tunable parameters of the concrete score.
struct ScoreParams {
  // Social damping γ > 1: larger γ discounts long paths more.
  double gamma = 1.5;
  // Structural damping η < 1 on |pos(d, f)|.
  double eta = 0.5;
};

// Cγ = (γ−1)/γ.
inline double CGamma(double gamma) { return (gamma - 1.0) / gamma; }

// B>n: bound on prox − prox≤n (tail mass of paths longer than n).
inline double TailBound(double gamma, size_t n) {
  return std::pow(gamma, -static_cast<double>(n + 1));
}

// Bound on prox(u, src) for any source first reachable only through
// paths of length ≥ n (sources of components undiscovered at step n).
inline double UndiscoveredBound(double gamma, size_t n) {
  return std::pow(gamma, -static_cast<double>(n));
}

// Score of `cand` with prox(u, src) read from `prox` exactly
// (used when exploration has converged, and by the naive reference).
double CandidateScore(const Candidate& cand,
                      const std::vector<double>& prox);

// Lower bound: uses the partial proximities accumulated so far
// (allProx); sources not yet reached contribute 0.
double CandidateLowerBound(const Candidate& cand,
                           const std::vector<double>& all_prox);

// Relative margin on every tail coefficient: covers the rounding by
// which computed frontiers may exceed the exact colmax / w_max caps.
inline constexpr double kTailMargin = 1.0 + 1e-9;

// The tail coefficient c of one (candidate, keyword) source list: the
// unexplored mass its sum Σ w·prox can still gain is at most c · B>n
// (the column-max tail above). c = min(W, kTailMargin · min(w_max,
// Σ w·colmax[src])), where w_max counts only when the list names each
// row once (strictly ascending rows, as ConnectionBuilder emits them).
// `column_max` is TransitionMatrix::ColumnMax().
double TailCoefficient(const std::vector<std::pair<uint32_t, float>>& sources,
                       const std::vector<double>& column_max);

// TailCoefficient's running state, fed one (row, w) entry at a time in
// list order: the one place its arithmetic lives, so a coefficient
// recomputed from the reverse index (RefreshTailCoefficients) matches
// the list's bit for bit.
struct TailAccumulator {
  double w_total = 0.0;
  double w_max = 0.0;
  double col = 0.0;
  uint32_t prev = 0;
  bool any = false;
  bool distinct = true;

  void Add(uint32_t src, float w, double column_max) {
    w_total += static_cast<double>(w);
    w_max = std::max(w_max, static_cast<double>(w));
    col += static_cast<double>(w) * column_max;
    if (any && src <= prev) distinct = false;
    prev = src;
    any = true;
  }
  double Coefficient() const {
    const double c = distinct ? std::min(w_max, col) : col;
    return std::min(w_total, kTailMargin * c);
  }
};

// The upper bound on one keyword's sum given its partial sum S, static
// weight W and tail coefficient c: S can still gain at most c·tail, and
// prox ≤ 1 caps the sum at W. max(S, ·) keeps upper ≥ lower even when
// the accumulated prox overshoots 1 by a rounding error.
inline double KeywordUpperBound(double sum, double w, double c,
                                double tail) {
  return std::max(sum, std::min(w, sum + c * tail));
}

// Upper bound: Π_k KeywordUpperBound(S_k, W_k, c_k, tail). The bound is
// a function of (S, W, c, tail) alone, and W and c are static per
// candidate and keyword — this is what lets S3k maintain S
// incrementally and refresh upper bounds in O(1) per keyword when the
// shared tail term shrinks.
double CandidateUpperBound(const Candidate& cand,
                           const std::vector<double>& all_prox,
                           const std::vector<double>& column_max,
                           double tail);

}  // namespace s3::core

#endif  // S3_CORE_SCORE_H_
