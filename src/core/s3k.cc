#include "core/s3k.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <unordered_map>

#include "common/timer.h"
#include "core/bound_engine.h"
#include "social/transition_matrix.h"

namespace s3::core {

namespace {

using social::ComponentId;

// Resets a scratch frontier for a new query, reusing the dense buffer
// when the instance size is unchanged (O(nonzero) instead of O(rows)).
void ResetFrontier(social::Frontier& f, size_t total_rows) {
  if (f.values.size() == total_rows) {
    f.Clear();
  } else {
    f.Init(total_rows);
  }
}

}  // namespace

Status QueryOptions::Validate() const {
  if (!std::isfinite(epsilon_approx) || epsilon_approx < 0.0) {
    return Status::InvalidArgument(
        "epsilon_approx must be finite and non-negative");
  }
  if (epsilon_approx > 0.0 && mode != QueryMode::kAnytime) {
    return Status::InvalidArgument(
        "epsilon_approx > 0 requires mode = kAnytime");
  }
  if (!std::isfinite(deadline_seconds) || deadline_seconds < 0.0) {
    return Status::InvalidArgument(
        "deadline_seconds must be finite and non-negative");
  }
  return Status::OK();
}

Result<CandidatePlan> BuildCandidatePlan(
    const S3Instance& instance, const std::vector<KeywordId>& keywords,
    bool use_semantics, double eta, ThreadPool* /*pool*/) {
  if (!instance.finalized()) {
    return Status::FailedPrecondition("instance not finalized");
  }
  if (keywords.empty()) {
    return Status::InvalidArgument("empty keyword set");
  }
  if (keywords.size() > 64) {
    return Status::InvalidArgument("queries are limited to 64 keywords");
  }

  CandidatePlan plan;
  plan.keywords = keywords;
  const size_t n_keywords = keywords.size();

  // ---- 1. Semantic extension of the query keywords.
  plan.ext.resize(n_keywords);
  for (size_t i = 0; i < n_keywords; ++i) {
    if (use_semantics) {
      for (KeywordId k : instance.ExtendKeyword(keywords[i])) {
        plan.ext[i].insert(k);
      }
    } else {
      plan.ext[i].insert(keywords[i]);
    }
    plan.extension_keywords += plan.ext[i].size();
  }

  // ---- 2. Passing components: every query keyword (or an extension
  // member) occurs in the component.
  const uint64_t full_mask =
      n_keywords == 64 ? ~0ull : ((1ull << n_keywords) - 1);
  std::unordered_map<ComponentId, uint64_t> comp_mask;
  for (size_t i = 0; i < n_keywords; ++i) {
    for (KeywordId k : plan.ext[i]) {
      for (ComponentId c : instance.ComponentsWithKeyword(k)) {
        comp_mask[c] |= (1ull << i);
      }
    }
  }
  for (const auto& [c, mask] : comp_mask) {
    if (mask == full_mask) plan.passing.push_back(c);
  }
  std::sort(plan.passing.begin(), plan.passing.end());
  plan.comp_reach_root.reserve(plan.passing.size());
  for (ComponentId c : plan.passing) {
    plan.comp_reach_root.push_back(instance.ReachRootOfComponent(c));
  }

  // ---- 3. Candidate construction per passing component (the paper's
  // GetDocuments, run eagerly; exploration refines only prox), then
  // the flat index every search over this plan reads. One builder
  // takes every component: its tables are sized by the instance, so a
  // builder per component (or per thread) would pay for them again.
  std::vector<ComponentCandidates> per_comp;
  per_comp.reserve(plan.passing.size());
  ConnectionBuilder builder(instance, eta);
  for (ComponentId comp : plan.passing) {
    per_comp.push_back(builder.Build(comp, plan.ext));
  }
  plan.index = BuildCandidateIndex(instance.docs(), n_keywords,
                                   instance.matrix().ColumnMax(), per_comp);
  plan.generation = instance.generation();
  plan.lineage = instance.lineage();
  return plan;
}

S3kSearcher::S3kSearcher(const S3Instance& instance, S3kOptions options)
    : instance_(instance), options_(options) {
  if (options_.threads == 0) {  // auto
    options_.threads = std::thread::hardware_concurrency();
    if (options_.threads == 0) options_.threads = 1;
  }
  if (options_.threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.threads - 1);
  }
}

Result<std::vector<ResultEntry>> S3kSearcher::Search(
    const QueryRequest& query, SearchStats* stats) {
  WallTimer timer;
  // Reject an unknown seeker before paying for candidate construction.
  if (instance_.finalized() && query.seeker >= instance_.UserCount()) {
    return Status::InvalidArgument("unknown seeker");
  }
  // Plan over the sorted keyword multiset, like the serving layer (its
  // plan-cache key): scores multiply per-keyword sums in slot order, so
  // with three or more keywords another order may move the last ulp.
  // One canonical order makes every permutation of a request — and
  // every path that serves it — answer bit for bit alike.
  std::vector<KeywordId> keywords = query.keywords;
  std::sort(keywords.begin(), keywords.end());
  auto plan = BuildCandidatePlan(instance_, keywords, options_.use_semantics,
                                 options_.score.eta, pool_.get());
  if (!plan.ok()) return plan.status();
  auto result = SearchWithPlan(query, *plan, stats);
  if (stats != nullptr && result.ok()) {
    // SearchWithPlan timed only the exploration; report the full query.
    stats->elapsed_seconds = timer.ElapsedSeconds();
  }
  return result;
}

Result<std::vector<ResultEntry>> S3kSearcher::SearchWithPlan(
    const QueryRequest& query, const CandidatePlan& plan,
    SearchStats* stats_out) {
  S3_RETURN_IF_ERROR(query.options.Validate());
  if (!instance_.finalized()) {
    return Status::FailedPrecondition("instance not finalized");
  }
  if (query.seeker >= instance_.UserCount()) {
    return Status::InvalidArgument("unknown seeker");
  }
  // An exhausted frontier has tail 0, so every upper equals its lower,
  // the clean pass leaves no live neighbor pair (see CleanDominated)
  // and the threshold is 0: with epsilon >= 0 the separation test then
  // converges, which is why the loop has no exhausted exit. A negative
  // epsilon would fail that test on ties and on an empty order until
  // max_iterations.
  if (!std::isfinite(options_.epsilon) || options_.epsilon < 0.0) {
    return Status::InvalidArgument("epsilon must be finite and non-negative");
  }
  if (plan.n_keywords() == 0) {
    return Status::InvalidArgument("empty candidate plan");
  }
  if (plan.generation != instance_.generation() ||
      plan.lineage != instance_.lineage()) {
    return Status::InvalidArgument(
        "candidate plan was built on another instance or generation");
  }

  WallTimer timer;
  // The request's effective parameters against the searcher defaults:
  // k == 0 inherits options_.k, and epsilon_approx applies only in
  // kAnytime mode (eps == 0 never touches the anytime exit).
  const size_t k = query.options.k > 0 ? query.options.k : options_.k;
  const double eps_approx = query.options.mode == QueryMode::kAnytime
                                ? query.options.epsilon_approx
                                : 0.0;
  const double deadline = query.options.deadline_seconds;

  const double gamma = options_.score.gamma;
  const double c_gamma = CGamma(gamma);
  const size_t n_keywords = plan.n_keywords();
  const size_t n_slots = plan.index.slots();

  // Query state over the plan's candidate index. The index itself is
  // read-only, so a cached plan serves any number of concurrent
  // engines.
  const CandidateIndex& index = plan.index;
  CandidateBoundEngine engine(index);

  std::vector<ResultEntry> entries;
  SearchStats st;
  st.extension_keywords = plan.extension_keywords;
  st.components_passing = n_slots;
  st.candidates_total = index.size();
  st.candidate_nodes = index.node;

  // Reachability pruning: a passing component whose owners' reach root
  // differs from the seeker's can never be discovered (its sources can
  // never gain proximity), so its cap must not hold the termination
  // threshold up. Plans built by BuildCandidatePlan always carry the
  // roots; a hand-built plan without them degrades to the conservative
  // everything-reachable behavior.
  const bool have_reach = plan.comp_reach_root.size() == n_slots;
  const uint32_t seeker_root = instance_.ReachRootOfUser(query.seeker);
  auto slot_reachable = [&](uint32_t slot) {
    return !have_reach || plan.comp_reach_root[slot] == seeker_root;
  };

  // ---- 4. Exploration state.
  const social::TransitionMatrix& matrix = instance_.matrix();
  social::Frontier& frontier = frontier_;
  social::Frontier& next = next_;
  ResetFrontier(frontier, instance_.layout().total());
  ResetFrontier(next, instance_.layout().total());
  const uint32_t seeker_row = instance_.RowOfUser(query.seeker);
  frontier.Set(seeker_row, 1.0);
  engine.ApplyDelta(seeker_row, c_gamma);  // the empty path

  // A component slot is discovered the first time the frontier holds
  // mass on one of its member rows.
  std::vector<uint8_t> discovered(n_slots, 0);
  bool exhausted = false;
  double threshold = 0.0;

  std::vector<uint32_t>& order = order_;
  // How long the sorted prefix of `order` is.
  size_t order_sorted = 0;
  // The stop check's candidate order: upper bound descending, then node
  // id ascending — a strict total order, as each node occurs once.
  auto ranks_before = [&engine](uint32_t a, uint32_t b) {
    if (engine.upper(a) != engine.upper(b)) {
      return engine.upper(a) > engine.upper(b);
    }
    return engine.node(a) < engine.node(b);
  };
  // The whole order, sorted: the walks below (GreedyTopK) may go past
  // the k+1 entries the stop check selected. Everything past the
  // sorted prefix ranks after it, so sorting the rest completes it.
  auto full_order = [&]() -> const std::vector<uint32_t>& {
    if (order_sorted < order.size()) {
      std::sort(order.begin() + order_sorted, order.end(), ranks_before);
      order_sorted = order.size();
    }
    return order;
  };

  auto finish = [&](const std::vector<uint32_t>& picked) {
    entries.reserve(picked.size());
    st.kth_lower = 0.0;
    for (uint32_t ci : picked) {
      entries.push_back(
          ResultEntry{engine.node(ci), engine.lower(ci), engine.upper(ci)});
      st.kth_lower = entries.size() == 1
                         ? engine.lower(ci)
                         : std::min(st.kth_lower, engine.lower(ci));
    }
    // Bound on everything not returned: the remaining alive candidates
    // plus whatever an undiscovered reachable component could still
    // hold (the threshold at termination).
    st.remaining_upper = threshold;
    for (uint32_t ci : engine.ActiveCandidates()) {
      if (!engine.alive(ci)) continue;
      bool taken = false;  // picked is tiny (<= k): linear scan
      for (uint32_t p : picked) {
        if (p == ci) { taken = true; break; }
      }
      if (!taken) {
        st.remaining_upper = std::max(st.remaining_upper, engine.upper(ci));
      }
    }
    // The achieved certificate: the smallest eps for which the bounds
    // prove no omitted document beats the worst returned one by more
    // than (1+eps). The exact stop's *absolute* slack criterion
    // (remaining <= kth + epsilon tie-break) certifies 0 outright —
    // without it a converged answer whose kth lower bound is 0 would
    // report infinity off a ~1e-12 remainder. Otherwise an anytime
    // exit lands at <= the requested epsilon and a truncated search
    // reports whatever its bounds support (infinity when kth_lower is
    // 0 with mass still unaccounted for).
    if (st.remaining_upper <= st.kth_lower + options_.epsilon) {
      st.certified_epsilon = 0.0;
    } else if (st.kth_lower > 0.0) {
      st.certified_epsilon =
          std::max(0.0, st.remaining_upper / st.kth_lower - 1.0);
    } else {
      st.certified_epsilon = std::numeric_limits<double>::infinity();
    }
    st.elapsed_seconds = timer.ElapsedSeconds();
    if (stats_out != nullptr) *stats_out = std::move(st);
    return std::move(entries);
  };

  // ---- 5. Main loop (paper Algorithm 2).
  for (size_t n = 1; n <= options_.max_iterations; ++n) {
    st.iterations = n;

    // ExploreStep: border := border · T ; allProx += Cγ · border / γⁿ.
    if (!exhausted) {
      matrix.Propagate(frontier, next);
      std::swap(frontier, next);
      exhausted = frontier.nonzero.empty();
      const double factor =
          c_gamma * std::pow(gamma, -static_cast<double>(n));
      engine.FoldFrontier(frontier, factor);
      // Discovery: activate every undiscovered slot one of whose
      // member rows the frontier reached, in slot order.
      for (size_t t = 0; t < n_slots; ++t) {
        if (discovered[t]) continue;
        for (uint32_t row :
             instance_.components().Members(plan.passing[t])) {
          if (frontier.values[row] != 0.0) {
            discovered[t] = 1;
            ++st.components_discovered;
            engine.ActivateSlot(static_cast<uint32_t>(t));
            break;
          }
        }
      }
    }

    // Bounds. Once the frontier is exhausted there are no longer paths
    // at all: the partial sums are exact and the tail is 0.
    engine.RefreshBounds(exhausted ? 0.0 : TailBound(gamma, n));

    // Threshold: best possible score of any undiscovered document —
    // over the *reachable* undiscovered components only.
    threshold = 0.0;
    if (!exhausted) {
      const double b = UndiscoveredBound(gamma, n);
      for (uint32_t slot : index.slots_by_cap) {
        if (!discovered[slot] && slot_reachable(slot)) {
          threshold = index.slot_cap[slot] *
                      std::pow(std::min(1.0, b),
                               static_cast<double>(n_keywords));
          break;
        }
      }
    }

    // CleanCandidatesList: drop candidates dominated by a vertical
    // neighbor (sound forever: lower bounds only grow, uppers only
    // shrink). The engine scans its precomputed neighbor-pair list.
    st.candidates_cleaned += engine.CleanDominated(options_.epsilon);

    // StopCondition (paper Algorithm 2).
    order.clear();
    for (uint32_t ci : engine.ActiveCandidates()) {
      if (engine.alive(ci)) order.push_back(ci);
    }
    // Everything below reads only the first k+1 entries of the full
    // sort: select the (k+1)-th into place, then sort the k ahead of
    // it. The order is total, so this is the full sort's prefix.
    const size_t kk = std::min(k, order.size());
    if (kk < order.size()) {
      std::nth_element(order.begin(), order.begin() + kk, order.end(),
                       ranks_before);
    }
    std::sort(order.begin(), order.begin() + kk, ranks_before);
    order_sorted = std::min(kk + 1, order.size());

    if (query.options.trace) {
      // Snapshot this iteration's bound-refinement state for the
      // trace. O(k) reads of already-computed bounds that never write
      // engine state, so the search itself is untouched.
      obs::IterationTraceRecord rec;
      rec.iteration = static_cast<uint32_t>(n);
      rec.frontier_size = static_cast<uint32_t>(frontier.nonzero.size());
      rec.alive_candidates = static_cast<uint32_t>(order.size());
      double min_lower = 0.0;
      if (kk > 0) {
        min_lower = std::numeric_limits<double>::infinity();
        for (size_t i = 0; i < kk; ++i) {
          min_lower = std::min(min_lower, engine.lower(order[i]));
        }
      }
      rec.kth_lower = min_lower;
      rec.remaining_upper = std::max(
          threshold, order.size() > kk ? engine.upper(order[kk]) : 0.0);
      st.iteration_trace.push_back(rec);
    }

    if (order.size() >= k || exhausted || threshold <= options_.epsilon) {
      // Check the first k alive candidates: pairwise non-neighbors?
      if (!engine.AnyNeighborPair(order, kk)) {
        double min_topk_lower = std::numeric_limits<double>::infinity();
        for (size_t i = 0; i < kk; ++i) {
          min_topk_lower = std::min(min_topk_lower, engine.lower(order[i]));
        }
        double max_non_topk_upper =
            order.size() > kk ? engine.upper(order[kk]) : 0.0;
        if (std::max(max_non_topk_upper, threshold) <=
            min_topk_lower + options_.epsilon) {
          // With fewer than k results we are only done once nothing
          // undiscovered could still qualify (threshold ~ 0).
          if (kk == k || threshold <= options_.epsilon) {
            st.converged = true;
            return finish(
                std::vector<uint32_t>(order.begin(), order.begin() + kk));
          }
        }
      }
    }

    // Certified (1-eps) anytime exit (QueryMode::kAnytime): once the
    // best (up to) k candidates are held and everything else — alive
    // non-picked uppers and the undiscovered-component threshold —
    // fits under (1+eps) times the worst picked lower bound, the
    // current answer is a certified (1-eps)-approximation: no omitted
    // (or still undiscovered — the threshold covers those) document
    // beats the worst returned one by more than (1+eps). Strictly
    // after the exact checks and gated on eps > 0, so an exact request
    // runs the unmodified code path bit-for-bit. No epsilon slack
    // here: the comparison is what finish's achieved certificate
    // re-derives, keeping certified_epsilon <= eps.
    if (eps_approx > 0.0 && !order.empty()) {
      std::vector<uint32_t> picked = engine.GreedyTopK(full_order(), kk);
      if (picked.size() == kk) {
        double min_lower = std::numeric_limits<double>::infinity();
        for (uint32_t ci : picked) {
          min_lower = std::min(min_lower, engine.lower(ci));
        }
        double rem = threshold;
        for (uint32_t ci : order) {
          bool taken = false;  // picked is tiny (== k): linear scan
          for (uint32_t p : picked) {
            if (p == ci) { taken = true; break; }
          }
          if (!taken) rem = std::max(rem, engine.upper(ci));
        }
        if (rem <= (1.0 + eps_approx) * min_lower) {
          st.converged = true;
          return finish(picked);
        }
      }
    }

    // Deadline probe (anytime termination, paper §4.1): an expired
    // search finishes with the best k known now — converged stays
    // false, deadline_exceeded marks the truncation. Probed once per
    // iteration: deadlines bound iterations, not instructions.
    if (deadline > 0.0 && timer.ElapsedSeconds() >= deadline) {
      st.deadline_exceeded = true;
      return finish(engine.GreedyTopK(full_order(), k));
    }
  }

  // Anytime termination (paper §4.1): an unconverged search returns
  // the best k known now (converged stays false).
  return finish(engine.GreedyTopK(full_order(), k));
}

}  // namespace s3::core
