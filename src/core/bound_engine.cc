#include "core/bound_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>


namespace s3::core {

namespace {

// L-lane reverse-index fold: one CSR-entry walk streams every lane
// (kw[sums[i]*L + l] += w_i * d[l]). Per lane this is exactly the
// scalar ApplyDelta sequence — entry order i is lane-independent — so
// batched partial sums stay bit-for-bit the single-seeker sums.
template <int L>
void FoldRevT(const uint32_t* sums, const float* ws, size_t n,
              const double* __restrict d, double* __restrict kw) {
  for (size_t i = 0; i < n; ++i) {
    double* __restrict o = kw + static_cast<size_t>(sums[i]) * L;
    const double w = static_cast<double>(ws[i]);
    for (int l = 0; l < L; ++l) o[l] += w * d[l];
  }
}

void FoldRev(size_t lanes, const uint32_t* sums, const float* ws, size_t n,
             const double* d, double* kw) {
  switch (lanes) {
    case 1: return FoldRevT<1>(sums, ws, n, d, kw);
    case 2: return FoldRevT<2>(sums, ws, n, d, kw);
    case 4: return FoldRevT<4>(sums, ws, n, d, kw);
    case 8: return FoldRevT<8>(sums, ws, n, d, kw);
    default:
      for (size_t i = 0; i < n; ++i) {
        double* o = kw + static_cast<size_t>(sums[i]) * lanes;
        const double w = static_cast<double>(ws[i]);
        for (size_t c = 0; c + 4 <= lanes; c += 4) {
          for (int l = 0; l < 4; ++l) o[c + l] += w * d[c + l];
        }
      }
  }
}

}  // namespace

CandidateBoundEngine::CandidateBoundEngine(
    const doc::DocumentStore& docs, size_t n_keywords, uint32_t total_rows,
    const std::vector<ComponentCandidates>& per_comp, size_t lanes)
    : n_keywords_(n_keywords), lanes_(lanes) {
  assert(lanes_ >= 1 && lanes_ <= social::kMaxFrontierLanes);
  size_t n_cands = 0;
  size_t n_entries = 0;
  for (const ComponentCandidates& cc : per_comp) {
    n_cands += cc.candidates.size();
    for (const Candidate& c : cc.candidates) {
      for (const auto& per_kw : c.sources) n_entries += per_kw.size();
    }
  }

  node_.reserve(n_cands);
  alive_.assign(n_cands * lanes_, 1);
  kw_sum_.assign(n_cands * n_keywords_ * lanes_, 0.0);
  kw_w_.reserve(n_cands * n_keywords_);
  lower_.assign(n_cands * lanes_, 0.0);
  upper_.assign(n_cands * lanes_, 0.0);
  slot_cands_.resize(per_comp.size());
  src_begin_.reserve(n_cands * n_keywords_ + 1);
  src_begin_.push_back(0);
  src_rows_.reserve(n_entries);
  src_w_.reserve(n_entries);

  for (size_t slot = 0; slot < per_comp.size(); ++slot) {
    for (const Candidate& c : per_comp[slot].candidates) {
      const uint32_t ci = static_cast<uint32_t>(node_.size());
      slot_cands_[slot].push_back(ci);
      node_.push_back(c.node);
      for (size_t qi = 0; qi < n_keywords_; ++qi) {
        double w_total = 0.0;
        for (const auto& [src, w] : c.sources[qi]) {
          src_rows_.push_back(src);
          src_w_.push_back(w);
          w_total += static_cast<double>(w);
        }
        kw_w_.push_back(w_total);
        src_begin_.push_back(src_rows_.size());
      }
    }
  }

  // Reverse index by counting sort over source rows.
  rev_ptr_.assign(static_cast<size_t>(total_rows) + 1, 0);
  for (uint32_t row : src_rows_) ++rev_ptr_[row + 1];
  for (uint32_t r = 0; r < total_rows; ++r) rev_ptr_[r + 1] += rev_ptr_[r];
  rev_sum_.resize(src_rows_.size());
  rev_w_.resize(src_rows_.size());
  std::vector<uint64_t> cursor(rev_ptr_.begin(), rev_ptr_.end() - 1);
  for (size_t sum_idx = 0; sum_idx < n_cands * n_keywords_; ++sum_idx) {
    for (uint64_t i = src_begin_[sum_idx]; i < src_begin_[sum_idx + 1];
         ++i) {
      const uint64_t pos = cursor[src_rows_[i]]++;
      rev_sum_[pos] = static_cast<uint32_t>(sum_idx);
      rev_w_[pos] = src_w_[i];
    }
  }

  for (uint32_t row = 0; row < total_rows; ++row) {
    if (rev_ptr_[row + 1] > rev_ptr_[row]) source_rows_.push_back(row);
  }

  // Doc groups and vertical-neighbor adjacency. Only candidates of the
  // same document can be vertical neighbors, so group by DocId once and
  // test ancestry only within groups.
  std::unordered_map<doc::DocId, std::vector<uint32_t>> by_doc;
  for (uint32_t ci = 0; ci < n_cands; ++ci) {
    by_doc[docs.DocOf(node_[ci])].push_back(ci);
  }
  std::vector<std::vector<uint32_t>> nbrs(n_cands);
  for (const auto& [d, group] : by_doc) {
    if (group.size() < 2) continue;
    for (size_t i = 0; i < group.size(); ++i) {
      for (size_t j = i + 1; j < group.size(); ++j) {
        uint32_t a = group[i], b = group[j];
        if (docs.AreVerticalNeighbors(node_[a], node_[b])) {
          nbrs[a].push_back(b);
          nbrs[b].push_back(a);
          nbr_pairs_.emplace_back(std::min(a, b), std::max(a, b));
        }
      }
    }
  }
  std::sort(nbr_pairs_.begin(), nbr_pairs_.end());
  nbr_begin_.assign(n_cands + 1, 0);
  for (uint32_t ci = 0; ci < n_cands; ++ci) {
    nbr_begin_[ci + 1] =
        nbr_begin_[ci] + static_cast<uint32_t>(nbrs[ci].size());
  }
  nbr_list_.reserve(nbr_pairs_.size() * 2);
  for (uint32_t ci = 0; ci < n_cands; ++ci) {
    std::sort(nbrs[ci].begin(), nbrs[ci].end());
    nbr_list_.insert(nbr_list_.end(), nbrs[ci].begin(), nbrs[ci].end());
  }

  active_.assign(n_cands * lanes_, 0);
  active_lists_.resize(lanes_);
  for (auto& list : active_lists_) list.reserve(n_cands);
  union_active_.assign(n_cands, 0);
  union_list_.reserve(n_cands);
  mark_.assign(n_cands, 0);
}

void CandidateBoundEngine::ActivateSlot(uint32_t slot, size_t lane) {
  for (uint32_t ci : slot_cands_[slot]) {
    if (!active_[ci * lanes_ + lane]) {
      active_[ci * lanes_ + lane] = 1;
      active_lists_[lane].push_back(ci);
      if (!union_active_[ci]) {
        union_active_[ci] = 1;
        union_list_.push_back(ci);
      }
    }
  }
}

void CandidateBoundEngine::ApplyDeltaBatch(uint32_t row,
                                           const double* deltas) {
  const uint64_t begin = rev_ptr_[row];
  FoldRev(lanes_, rev_sum_.data() + begin, rev_w_.data() + begin,
          rev_ptr_[row + 1] - begin, deltas, kw_sum_.data());
}

void CandidateBoundEngine::RefreshOne(uint32_t ci, const double* tails) {
  // Bounds are recomputed for every lane (alive or not, active in
  // this lane or not): they are a pure function of the partial sums
  // and the lane tail, and only alive+active lanes are ever read.
  const size_t L = lanes_;
  double lo[social::kMaxFrontierLanes], up[social::kMaxFrontierLanes];
  for (size_t l = 0; l < L; ++l) {
    lo[l] = 1.0;
    up[l] = 1.0;
  }
  const size_t base = static_cast<size_t>(ci) * n_keywords_;
  for (size_t qi = 0; qi < n_keywords_; ++qi) {
    const double* s = &kw_sum_[(base + qi) * L];
    const double w = kw_w_[base + qi];
    for (size_t l = 0; l < L; ++l) {
      lo[l] *= s[l];
      // W caps the sum (prox ≤ 1 per source); max(s, ·) shields the
      // interval against prox marginally overshooting 1 in floating
      // point, which would otherwise let upper dip below lower.
      up[l] *= std::max(s[l], std::min(w, s[l] + w * tails[l]));
    }
  }
  for (size_t l = 0; l < L; ++l) {
    lower_[ci * L + l] = lo[l];
    upper_[ci * L + l] = up[l];
  }
}

void CandidateBoundEngine::FoldFrontier(const social::BatchFrontier& frontier,
                                        double factor) {
  const size_t L = lanes_;
  const std::vector<uint32_t>& rows =
      frontier.nonzero.size() <= source_rows_.size() ? frontier.nonzero
                                                     : source_rows_;
  double d[social::kMaxFrontierLanes];
  for (uint32_t row : rows) {
    const double* v = &frontier.values[static_cast<size_t>(row) * L];
    bool any = false;
    for (size_t l = 0; l < L; ++l) {
      d[l] = factor * v[l];
      any = any || v[l] != 0.0;
    }
    if (any) ApplyDeltaBatch(row, d);
  }
}

void CandidateBoundEngine::RefreshBoundsBatch(const double* tails) {
  for (uint32_t ci : union_list_) RefreshOne(ci, tails);
}

void CandidateBoundEngine::RefreshBounds(double tail) {
  double tails[social::kMaxFrontierLanes];
  for (size_t l = 0; l < lanes_; ++l) tails[l] = tail;
  RefreshBoundsBatch(tails);
}

size_t CandidateBoundEngine::CleanDominated(double epsilon, size_t lane) {
  const size_t L = lanes_;
  size_t killed = 0;
  auto dominates = [&](uint32_t b, uint32_t a) {
    return lower_[b * L + lane] > upper_[a * L + lane] + epsilon ||
           (std::abs(lower_[b * L + lane] - upper_[a * L + lane]) <=
                epsilon &&
            lower_[b * L + lane] >= upper_[b * L + lane] - epsilon &&
            node_[b] < node_[a]);
  };
  for (const auto& [a, b] : nbr_pairs_) {
    if (!active_[a * L + lane] || !active_[b * L + lane]) continue;
    if (!alive_[a * L + lane] || !alive_[b * L + lane]) continue;
    if (dominates(b, a)) {
      alive_[a * L + lane] = 0;
      ++killed;
    } else if (dominates(a, b)) {
      alive_[b * L + lane] = 0;
      ++killed;
    }
  }
  return killed;
}

bool CandidateBoundEngine::AnyNeighborPair(
    const std::vector<uint32_t>& order, size_t count) {
  ++mark_epoch_;
  for (size_t i = 0; i < count; ++i) mark_[order[i]] = mark_epoch_;
  for (size_t i = 0; i < count; ++i) {
    const uint32_t ci = order[i];
    for (uint32_t j = nbr_begin_[ci]; j < nbr_begin_[ci + 1]; ++j) {
      if (mark_[nbr_list_[j]] == mark_epoch_) return true;
    }
  }
  return false;
}

std::vector<uint32_t> CandidateBoundEngine::GreedyTopK(
    const std::vector<uint32_t>& order, size_t k, size_t lane) {
  std::vector<uint32_t> picked;
  if (k == 0) return picked;
  ++mark_epoch_;
  for (uint32_t ci : order) {
    if (!alive_[ci * lanes_ + lane]) continue;
    bool conflict = false;
    for (uint32_t j = nbr_begin_[ci]; j < nbr_begin_[ci + 1]; ++j) {
      if (mark_[nbr_list_[j]] == mark_epoch_) {
        conflict = true;
        break;
      }
    }
    if (!conflict) {
      mark_[ci] = mark_epoch_;
      picked.push_back(ci);
      if (picked.size() == k) break;
    }
  }
  return picked;
}

double CandidateBoundEngine::FromScratchKeywordSum(
    uint32_t ci, size_t qi, const std::vector<double>& prox,
    size_t lane) const {
  (void)lane;  // the from-scratch sum is lane-independent by definition
  const size_t sum_idx = ci * n_keywords_ + qi;
  double s = 0.0;
  for (uint64_t i = src_begin_[sum_idx]; i < src_begin_[sum_idx + 1]; ++i) {
    s += static_cast<double>(src_w_[i]) * prox[src_rows_[i]];
  }
  return s;
}

}  // namespace s3::core
