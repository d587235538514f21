#include "core/bound_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "core/score.h"

namespace s3::core {

namespace {

// The first position in [first, last) holding a value >= `row`, found
// by doubling steps forward from `first`: O(log distance), so a walk
// that probes ascending rows pays for how far it moves, not for the
// list's length.
std::vector<uint32_t>::const_iterator GallopTo(
    std::vector<uint32_t>::const_iterator first,
    std::vector<uint32_t>::const_iterator last, uint32_t row) {
  if (first == last || *first >= row) return first;
  // Invariant: *first < row.
  for (std::ptrdiff_t step = 1;; step *= 2) {
    if (last - first <= step) return std::lower_bound(first + 1, last, row);
    if (first[step] >= row) {
      return std::lower_bound(first + 1, first + step + 1, row);
    }
    first += step;
  }
}

}  // namespace

CandidateIndex BuildCandidateIndex(
    const doc::DocumentStore& docs, size_t n_keywords,
    const std::vector<double>& column_max,
    const std::vector<ComponentCandidates>& per_comp) {
  CandidateIndex ix;
  ix.n_keywords = n_keywords;
  size_t n_cands = 0;
  size_t n_entries = 0;
  for (const ComponentCandidates& cc : per_comp) {
    n_cands += cc.candidates.size();
    for (const Candidate& c : cc.candidates) {
      for (const auto& per_kw : c.sources) n_entries += per_kw.size();
    }
  }

  // Candidates, weights, coefficients and slot ranges; `entry_rows`
  // lists every source row in (sum index, source) order.
  ix.node.reserve(n_cands);
  ix.slot_begin.reserve(per_comp.size() + 1);
  ix.slot_begin.push_back(0);
  ix.slot_cap.reserve(per_comp.size());
  ix.kw_w.reserve(n_cands * n_keywords);
  ix.kw_c.reserve(n_cands * n_keywords);
  std::vector<uint32_t> entry_rows;
  entry_rows.reserve(n_entries);
  for (const ComponentCandidates& cc : per_comp) {
    for (const Candidate& c : cc.candidates) {
      ix.node.push_back(c.node);
      for (size_t qi = 0; qi < n_keywords; ++qi) {
        double w_total = 0.0;
        for (const auto& [src, w] : c.sources[qi]) {
          entry_rows.push_back(src);
          w_total += static_cast<double>(w);
        }
        ix.kw_w.push_back(w_total);
        ix.kw_c.push_back(TailCoefficient(c.sources[qi], column_max));
      }
    }
    ix.slot_begin.push_back(static_cast<uint32_t>(ix.node.size()));
    ix.slot_cap.push_back(cc.max_cap);
  }

  // Reverse index by counting sort over source-row positions. Entries
  // are placed in (sum index, source) order, so each row's entries run
  // in sum index order, as the fold expects.
  ix.source_rows = entry_rows;
  std::sort(ix.source_rows.begin(), ix.source_rows.end());
  ix.source_rows.erase(
      std::unique(ix.source_rows.begin(), ix.source_rows.end()),
      ix.source_rows.end());
  ix.source_rows.shrink_to_fit();
  // From here on entry_rows[i] holds the row's position in source_rows.
  ix.rev_begin.assign(ix.source_rows.size() + 1, 0);
  for (uint32_t& at : entry_rows) {
    at = static_cast<uint32_t>(
        std::lower_bound(ix.source_rows.begin(), ix.source_rows.end(), at) -
        ix.source_rows.begin());
    ++ix.rev_begin[at + 1];
  }
  for (size_t p = 0; p < ix.source_rows.size(); ++p) {
    ix.rev_begin[p + 1] += ix.rev_begin[p];
  }
  ix.rev_sum.resize(n_entries);
  ix.rev_w.resize(n_entries);
  std::vector<uint64_t> cursor(ix.rev_begin.begin(), ix.rev_begin.end() - 1);
  size_t entry = 0;
  uint32_t sum_idx = 0;
  for (const ComponentCandidates& cc : per_comp) {
    for (const Candidate& c : cc.candidates) {
      for (size_t qi = 0; qi < n_keywords; ++qi, ++sum_idx) {
        for (const auto& src_w : c.sources[qi]) {
          const uint64_t at = cursor[entry_rows[entry++]]++;
          ix.rev_sum[at] = sum_idx;
          ix.rev_w[at] = src_w.second;
        }
      }
    }
  }

  // Vertical-neighbor pairs. Only candidates of the same document can
  // be vertical neighbors: sort (document, candidate) pairs so each
  // document's candidates are adjacent, and test ancestry only there.
  std::vector<std::pair<doc::DocId, uint32_t>> by_doc(n_cands);
  for (uint32_t ci = 0; ci < n_cands; ++ci) {
    by_doc[ci] = {docs.DocOf(ix.node[ci]), ci};
  }
  std::sort(by_doc.begin(), by_doc.end());
  for (size_t g = 0; g < by_doc.size();) {
    size_t end = g + 1;
    while (end < by_doc.size() && by_doc[end].first == by_doc[g].first) {
      ++end;
    }
    for (size_t i = g; i < end; ++i) {
      for (size_t j = i + 1; j < end; ++j) {
        const uint32_t a = by_doc[i].second, b = by_doc[j].second;
        if (docs.AreVerticalNeighbors(ix.node[a], ix.node[b])) {
          ix.nbr_pairs.emplace_back(a, b);  // a < b: ids ascend in a group
        }
      }
    }
    g = end;
  }
  std::sort(ix.nbr_pairs.begin(), ix.nbr_pairs.end());

  // Adjacency CSR from the pair list, each list ascending.
  ix.nbr_begin.assign(n_cands + 1, 0);
  for (const auto& [a, b] : ix.nbr_pairs) {
    ++ix.nbr_begin[a + 1];
    ++ix.nbr_begin[b + 1];
  }
  for (uint32_t ci = 0; ci < n_cands; ++ci) {
    ix.nbr_begin[ci + 1] += ix.nbr_begin[ci];
  }
  ix.nbr_list.resize(ix.nbr_pairs.size() * 2);
  std::vector<uint32_t> fill(ix.nbr_begin.begin(), ix.nbr_begin.end() - 1);
  for (const auto& [a, b] : ix.nbr_pairs) {
    ix.nbr_list[fill[a]++] = b;
    ix.nbr_list[fill[b]++] = a;
  }
  for (uint32_t ci = 0; ci < n_cands; ++ci) {
    std::sort(ix.nbr_list.begin() + ix.nbr_begin[ci],
              ix.nbr_list.begin() + ix.nbr_begin[ci + 1]);
  }

  ix.slots_by_cap.resize(ix.slot_cap.size());
  for (uint32_t i = 0; i < ix.slots_by_cap.size(); ++i) {
    ix.slots_by_cap[i] = i;
  }
  std::sort(ix.slots_by_cap.begin(), ix.slots_by_cap.end(),
            [&](uint32_t a, uint32_t b) {
              return ix.slot_cap[a] > ix.slot_cap[b];
            });
  return ix;
}

void RefreshTailCoefficients(CandidateIndex& ix,
                             const std::vector<double>& column_max) {
  std::vector<TailAccumulator> acc(ix.kw_c.size());
  for (size_t p = 0; p < ix.source_rows.size(); ++p) {
    const uint32_t row = ix.source_rows[p];
    const double cm = column_max[row];
    for (uint64_t i = ix.rev_begin[p]; i < ix.rev_begin[p + 1]; ++i) {
      acc[ix.rev_sum[i]].Add(row, ix.rev_w[i], cm);
    }
  }
  for (size_t sum = 0; sum < acc.size(); ++sum) {
    ix.kw_c[sum] = acc[sum].Coefficient();
  }
}

ForwardSources TransposeSources(const CandidateIndex& ix) {
  ForwardSources fwd;
  fwd.begin.assign(ix.kw_w.size() + 1, 0);
  for (uint32_t sum : ix.rev_sum) ++fwd.begin[sum + 1];
  for (size_t sum = 0; sum + 1 < fwd.begin.size(); ++sum) {
    fwd.begin[sum + 1] += fwd.begin[sum];
  }
  fwd.entries.resize(ix.rev_sum.size());
  std::vector<uint32_t> cursor(fwd.begin.begin(), fwd.begin.end() - 1);
  for (size_t p = 0; p < ix.source_rows.size(); ++p) {
    for (uint64_t i = ix.rev_begin[p]; i < ix.rev_begin[p + 1]; ++i) {
      fwd.entries[cursor[ix.rev_sum[i]]++] = {ix.source_rows[p], ix.rev_w[i]};
    }
  }
  return fwd;
}

ComponentCandidates SlotCandidates(const CandidateIndex& ix,
                                   const ForwardSources& fwd, uint32_t slot) {
  const size_t K = ix.n_keywords;
  ComponentCandidates cc;
  cc.max_cap = ix.slot_cap[slot];
  for (uint32_t ci = ix.slot_begin[slot]; ci < ix.slot_begin[slot + 1]; ++ci) {
    Candidate& c = cc.candidates.emplace_back();
    c.node = ix.node[ci];
    c.sources.resize(K);
    for (size_t qi = 0; qi < K; ++qi) {
      const size_t sum = ci * K + qi;
      c.sources[qi].assign(fwd.entries.begin() + fwd.begin[sum],
                           fwd.entries.begin() + fwd.begin[sum + 1]);
    }
  }
  return cc;
}

bool SlotMatches(const CandidateIndex& ix, const ForwardSources& fwd,
                 uint32_t slot, const ComponentCandidates& cc) {
  const size_t K = ix.n_keywords;
  const uint32_t first = ix.slot_begin[slot];
  if (cc.candidates.size() != ix.slot_begin[slot + 1] - first ||
      std::bit_cast<uint64_t>(cc.max_cap) !=
          std::bit_cast<uint64_t>(ix.slot_cap[slot])) {
    return false;
  }
  for (uint32_t i = 0; i < cc.candidates.size(); ++i) {
    const Candidate& c = cc.candidates[i];
    if (c.node != ix.node[first + i]) return false;
    for (size_t qi = 0; qi < K; ++qi) {
      const size_t sum = (first + i) * K + qi;
      const auto& list = c.sources[qi];
      if (list.size() != fwd.begin[sum + 1] - fwd.begin[sum]) return false;
      for (size_t e = 0; e < list.size(); ++e) {
        const auto& old = fwd.entries[fwd.begin[sum] + e];
        if (list[e].first != old.first ||
            std::bit_cast<uint32_t>(list[e].second) !=
                std::bit_cast<uint32_t>(old.second)) {
          return false;
        }
      }
    }
  }
  return true;
}

CandidateBoundEngine::CandidateBoundEngine(const CandidateIndex& index)
    : index_(index) {
  const size_t n_cands = index_.size();
  alive_.assign(n_cands, 1);
  active_.assign(n_cands, 0);
  active_list_.reserve(n_cands);
  kw_sum_.assign(n_cands * index_.n_keywords, 0.0);
  lower_.assign(n_cands, 0.0);
  upper_.assign(n_cands, 0.0);
  mark_.assign(n_cands, 0);
}

void CandidateBoundEngine::ActivateSlot(uint32_t slot) {
  for (uint32_t ci = index_.slot_begin[slot];
       ci < index_.slot_begin[slot + 1]; ++ci) {
    if (!active_[ci]) {
      active_[ci] = 1;
      active_list_.push_back(ci);
    }
  }
}

void CandidateBoundEngine::FoldPosition(size_t pos, double delta) {
  const uint32_t* sums = index_.rev_sum.data();
  const float* ws = index_.rev_w.data();
  double* kw = kw_sum_.data();
  for (uint64_t i = index_.rev_begin[pos]; i < index_.rev_begin[pos + 1];
       ++i) {
    kw[sums[i]] += static_cast<double>(ws[i]) * delta;
  }
}

void CandidateBoundEngine::ApplyDelta(uint32_t row, double delta) {
  const std::vector<uint32_t>& rows = index_.source_rows;
  const auto it = std::lower_bound(rows.begin(), rows.end(), row);
  if (it != rows.end() && *it == row) {
    FoldPosition(static_cast<size_t>(it - rows.begin()), delta);
  }
}

void CandidateBoundEngine::FoldFrontier(const social::Frontier& frontier,
                                        double factor) {
  const std::vector<uint32_t>& rows = index_.source_rows;
  const std::vector<double>& v = frontier.values;
  if (frontier.nonzero.size() <= rows.size()) {
    // Both lists ascend, so each frontier row is searched for only past
    // the previous one's position.
    auto it = rows.cbegin();
    for (uint32_t row : frontier.nonzero) {
      it = GallopTo(it, rows.cend(), row);
      if (it == rows.end()) break;
      if (*it == row && v[row] != 0.0) {
        FoldPosition(static_cast<size_t>(it - rows.cbegin()),
                     factor * v[row]);
      }
    }
  } else {
    for (size_t pos = 0; pos < rows.size(); ++pos) {
      if (v[rows[pos]] != 0.0) FoldPosition(pos, factor * v[rows[pos]]);
    }
  }
}

void CandidateBoundEngine::RefreshBounds(double tail) {
  const size_t n_keywords = index_.n_keywords;
  for (uint32_t ci : active_list_) {
    // A pure function of the partial sums and the tail: recomputed for
    // every active candidate, alive or not (only alive ones are read).
    double lo = 1.0, up = 1.0;
    const size_t base = static_cast<size_t>(ci) * n_keywords;
    for (size_t qi = 0; qi < n_keywords; ++qi) {
      const double s = kw_sum_[base + qi];
      lo *= s;
      up *= KeywordUpperBound(s, index_.kw_w[base + qi],
                              index_.kw_c[base + qi], tail);
    }
    lower_[ci] = lo;
    upper_[ci] = up;
  }
}

size_t CandidateBoundEngine::CleanDominated(double epsilon) {
  auto dominates = [&](uint32_t b, uint32_t a) {
    return lower_[b] > upper_[a] + epsilon ||
           (std::abs(lower_[b] - upper_[a]) <= epsilon &&
            lower_[b] >= upper_[b] - epsilon &&
            index_.node[b] < index_.node[a]);
  };
  auto exact = [&](uint32_t ci) { return upper_[ci] == lower_[ci]; };
  // Both exact, b first in the stop check's order (upper descending,
  // then node ascending), the order GreedyTopK walks.
  auto exact_ahead = [&](uint32_t b, uint32_t a) {
    const double ub = upper_[b], ua = upper_[a];
    return exact(b) && exact(a) &&
           (ub > ua || (ub == ua && index_.node[b] < index_.node[a]));
  };
  auto live = [&](uint32_t ci) { return active_[ci] && alive_[ci]; };
  // Queues every live neighbor of `ci` as a victim if `beats` holds
  // against each of them (and there is one); returns whether it did.
  auto kill_if_beats_all = [&](uint32_t ci, auto&& beats) {
    const uint32_t* first = index_.nbr_list.data() + index_.nbr_begin[ci];
    const uint32_t* last = index_.nbr_list.data() + index_.nbr_begin[ci + 1];
    bool any = false;
    for (const uint32_t* n = first; n != last; ++n) {
      if (!live(*n)) continue;
      if (!beats(ci, *n)) return false;
      any = true;
    }
    for (const uint32_t* n = first; n != last && any; ++n) {
      if (live(*n)) victims_.push_back(*n);
    }
    return any;
  };
  // Round one checks every live candidate with a neighbor; a later
  // round only those that lost a live neighbor in the round before, as
  // nobody else's verdict can change (the bounds are fixed here).
  check_.clear();
  for (uint32_t ci : active_list_) {
    if (alive_[ci] && index_.nbr_begin[ci] != index_.nbr_begin[ci + 1]) {
      check_.push_back(ci);
    }
  }
  stuck_.clear();
  size_t killed = 0;
  while (true) {
    // Every verdict of a round reads the live set as the round found
    // it; the kills land together afterwards.
    victims_.clear();
    for (uint32_t ci : check_) {
      if (live(ci) && !kill_if_beats_all(ci, dominates) && exact(ci)) {
        stuck_.push_back(ci);
      }
    }
    if (victims_.empty()) {
      // Domination within epsilon is not transitive: exact neighbors
      // scored 0, 0.6e-12 and 1.2e-12 with ascending node ids dominate
      // in a cycle at epsilon 1e-12 (the node-id tie-break orders the
      // close pairs, the outer pair is more than epsilon apart), so
      // none of them dominates all the others. When a round kills
      // nothing, an exact candidate whose live neighbors are all exact
      // and behind it in the stop check's order kills them, since
      // GreedyTopK takes it first. At tail 0 every candidate is exact,
      // so the first of any live neighbor group qualifies and the fixed
      // point leaves no live neighbor pair.
      for (uint32_t ci : stuck_) {
        if (live(ci)) kill_if_beats_all(ci, exact_ahead);
      }
      stuck_.clear();
      if (victims_.empty()) break;
    }
    for (uint32_t v : victims_) {
      if (alive_[v]) {
        alive_[v] = 0;
        ++killed;
      }
    }
    check_.clear();
    ++mark_epoch_;
    for (uint32_t v : victims_) {
      for (uint32_t j = index_.nbr_begin[v]; j < index_.nbr_begin[v + 1];
           ++j) {
        const uint32_t n = index_.nbr_list[j];
        if (live(n) && mark_[n] != mark_epoch_) {
          mark_[n] = mark_epoch_;
          check_.push_back(n);
        }
      }
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
    for (uint32_t j = index_.nbr_begin[ci]; j < index_.nbr_begin[ci + 1];
         ++j) {
      if (mark_[index_.nbr_list[j]] == mark_epoch_) return true;
    }
  }
  return false;
}

std::vector<uint32_t> CandidateBoundEngine::GreedyTopK(
    const std::vector<uint32_t>& order, size_t k) {
  std::vector<uint32_t> picked;
  if (k == 0) return picked;
  ++mark_epoch_;
  for (uint32_t ci : order) {
    if (!alive_[ci]) continue;
    bool conflict = false;
    for (uint32_t j = index_.nbr_begin[ci]; j < index_.nbr_begin[ci + 1];
         ++j) {
      if (mark_[index_.nbr_list[j]] == mark_epoch_) {
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
    uint32_t ci, size_t qi, const std::vector<double>& prox) const {
  const uint32_t sum_idx = static_cast<uint32_t>(ci * index_.n_keywords + qi);
  double s = 0.0;
  for (size_t pos = 0; pos < index_.source_rows.size(); ++pos) {
    for (uint64_t i = index_.rev_begin[pos]; i < index_.rev_begin[pos + 1];
         ++i) {
      if (index_.rev_sum[i] == sum_idx) {
        s += static_cast<double>(index_.rev_w[i]) *
             prox[index_.source_rows[pos]];
      }
    }
  }
  return s;
}

}  // namespace s3::core
