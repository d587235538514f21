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

// Resets a scratch frontier for a new query (or batch), reusing the
// dense buffer when the instance size and lane count are unchanged
// (O(nonzero · lanes) instead of O(rows · lanes)).
void ResetFrontier(social::BatchFrontier& f, size_t total_rows,
                   size_t lanes) {
  if (f.lanes == lanes && f.values.size() == total_rows * lanes) {
    f.Clear();
  } else {
    f.Init(total_rows, lanes);
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

BatchSeeker ResolveLane(const QueryRequest& request,
                        const S3kOptions& defaults) {
  BatchSeeker lane;
  lane.seeker = request.seeker;
  lane.k = request.options.k > 0 ? request.options.k : defaults.k;
  lane.epsilon_approx = request.options.mode == QueryMode::kAnytime
                            ? request.options.epsilon_approx
                            : 0.0;
  lane.deadline_seconds = request.options.deadline_seconds;
  lane.trace = request.options.trace;
  return lane;
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
    SearchStats* stats) {
  S3_RETURN_IF_ERROR(query.options.Validate());
  // The single-seeker search *is* the batched search at width 1: one
  // loop, one set of invariants, and the per-query tests exercise the
  // exact code the batched server path runs.
  auto batched = SearchBatchWithPlan({ResolveLane(query, options_)}, plan);
  if (!batched.ok()) return batched.status();
  if (stats != nullptr) *stats = std::move((*batched)[0].stats);
  return std::move((*batched)[0].entries);
}

Result<std::vector<BatchQueryResult>> S3kSearcher::SearchBatchWithPlan(
    const std::vector<BatchSeeker>& batch, const CandidatePlan& plan) {
  if (!instance_.finalized()) {
    return Status::FailedPrecondition("instance not finalized");
  }
  if (batch.empty()) {
    return Status::InvalidArgument("empty batch");
  }
  if (batch.size() > kMaxBatch) {
    return Status::InvalidArgument("batch exceeds kMaxBatch seekers");
  }
  for (const BatchSeeker& bs : batch) {
    if (bs.seeker >= instance_.UserCount()) {
      return Status::InvalidArgument("unknown seeker");
    }
    if (!std::isfinite(bs.epsilon_approx) || bs.epsilon_approx < 0.0) {
      return Status::InvalidArgument(
          "epsilon_approx must be finite and non-negative");
    }
    if (!std::isfinite(bs.deadline_seconds) || bs.deadline_seconds < 0.0) {
      return Status::InvalidArgument(
          "deadline_seconds must be finite and non-negative");
    }
  }
  // An exhausted lane has tail 0, so every upper equals its lower, the
  // clean pass leaves no live neighbor pair (see CleanDominated) and
  // the threshold is 0: with epsilon >= 0 the separation test then
  // converges it, which is why the loop has no exhausted exit. A
  // negative epsilon would fail that test on ties and on an empty
  // order until max_iterations.
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
  const size_t B = batch.size();
  // Lane count padded to a kernel-friendly width; lanes in [B, L) hold
  // no mass, activate nothing, and compute on zeros only.
  const size_t L = social::PadLanes(B);

  const double gamma = options_.score.gamma;
  const double c_gamma = CGamma(gamma);
  const size_t n_keywords = plan.n_keywords();
  const size_t n_slots = plan.index.slots();
  const uint32_t total_rows = instance_.layout().total();

  // Per-batch lane state over the plan's candidate index, one lane
  // per batch member. The index itself is read-only, so a cached plan
  // serves any number of concurrent engines; sharing one index across
  // lanes, plus the one-walk-per-iteration lane streaming, is the
  // point of batching.
  const CandidateIndex& index = plan.index;
  CandidateBoundEngine engine(index, L);

  std::vector<BatchQueryResult> out(B);
  std::vector<size_t> ks(B);
  // Per-lane anytime parameters (a zero deadline means none); eps == 0
  // lanes never touch the anytime exit at all.
  std::vector<double> lane_eps(B);
  // Per-lane iteration tracing (observability only): untraced lanes
  // skip the record entirely, so the common case allocates nothing.
  std::vector<uint8_t> lane_trace(B, 0);
  bool any_deadline = false;
  for (size_t s = 0; s < B; ++s) {
    lane_eps[s] = batch[s].epsilon_approx;
    any_deadline = any_deadline || batch[s].deadline_seconds > 0.0;
    lane_trace[s] = batch[s].trace ? 1 : 0;
  }
  for (size_t s = 0; s < B; ++s) {
    ks[s] = batch[s].k > 0 ? batch[s].k : options_.k;
    SearchStats& st = out[s].stats;
    st.extension_keywords = plan.extension_keywords;
    st.components_passing = n_slots;
    st.candidates_total = index.size();
    st.candidate_nodes = index.node;
  }

  // Discovery watch lists, one per component slot: the member rows of
  // the passing component. A component is discovered in a lane the
  // first time that lane's frontier holds mass on one of its rows; a
  // row is compacted away once every unfinished lane has discovered
  // its slot, so each list only shrinks.
  std::vector<std::vector<uint32_t>> slot_watch(n_slots);
  for (size_t i = 0; i < n_slots; ++i) {
    const std::span<const uint32_t> members =
        instance_.components().Members(plan.passing[i]);
    slot_watch[i].assign(members.begin(), members.end());
  }

  // ---- 4. Exploration state.
  const social::TransitionMatrix& matrix = instance_.matrix();

  // Reachability pruning: a passing component whose owners' reach root
  // differs from the seeker's can never be discovered (its sources can
  // never gain proximity), so its cap must not hold the termination
  // threshold up. Plans built by BuildCandidatePlan always carry the
  // roots; a hand-built plan without them degrades to the conservative
  // everything-reachable behavior.
  const bool have_reach = plan.comp_reach_root.size() == n_slots;
  std::vector<uint32_t> seeker_root(B);
  for (size_t s = 0; s < B; ++s) {
    seeker_root[s] = instance_.ReachRootOfUser(batch[s].seeker);
  }
  auto slot_reachable = [&](uint32_t slot, size_t s) {
    return !have_reach || plan.comp_reach_root[slot] == seeker_root[s];
  };

  social::BatchFrontier& frontier = frontier_;
  social::BatchFrontier& next = next_;
  ResetFrontier(frontier, total_rows, L);
  ResetFrontier(next, total_rows, L);
  for (size_t s = 0; s < B; ++s) {
    const uint32_t seeker_row = instance_.RowOfUser(batch[s].seeker);
    frontier.Set(seeker_row, s, 1.0);
    engine.ApplyDeltaLane(seeker_row, s, c_gamma);  // the empty path
  }

  // Per-lane loop state. `finished` marks members whose result is
  // recorded (converged or never started); their frontier lane is
  // zeroed, so they cost nothing but padded-lane arithmetic.
  std::vector<uint8_t> discovered(n_slots * L, 0);  // [slot*L + lane]
  std::vector<size_t> n_discovered(B, 0);
  std::vector<uint8_t> exhausted(B, 0);
  std::vector<uint8_t> finished(B, 0);
  std::vector<double> last_threshold(B, 0.0);
  size_t live = B;

  if (orders_.size() < B) {
    orders_.resize(B);
    orders_sorted_.resize(B);
  }
  // The stop check's candidate order: upper bound descending, then node
  // id ascending — a strict total order, as each node occurs once.
  auto ranks_before = [&](size_t s) {
    return [&engine, s](uint32_t a, uint32_t b) {
      if (engine.upper(a, s) != engine.upper(b, s)) {
        return engine.upper(a, s) > engine.upper(b, s);
      }
      return engine.node(a) < engine.node(b);
    };
  };
  // Lane s's whole order, sorted: the walks below (GreedyTopK) may go
  // past the k+1 entries the stop check selected. Everything past the
  // sorted prefix ranks after it, so sorting the rest completes it.
  auto full_order = [&](size_t s) -> const std::vector<uint32_t>& {
    std::vector<uint32_t>& order = orders_[s];
    if (orders_sorted_[s] < order.size()) {
      std::sort(order.begin() + orders_sorted_[s], order.end(),
                ranks_before(s));
      orders_sorted_[s] = order.size();
    }
    return order;
  };

  auto finish_lane = [&](size_t s, const std::vector<uint32_t>& picked) {
    SearchStats& st = out[s].stats;
    std::vector<ResultEntry>& entries = out[s].entries;
    entries.reserve(picked.size());
    st.kth_lower = 0.0;
    for (uint32_t ci : picked) {
      entries.push_back(ResultEntry{engine.node(ci), engine.lower(ci, s),
                                    engine.upper(ci, s)});
      st.kth_lower = entries.size() == 1
                         ? engine.lower(ci, s)
                         : std::min(st.kth_lower, engine.lower(ci, s));
    }
    // Bound on everything not returned: the remaining alive candidates
    // plus whatever an undiscovered reachable component could still
    // hold (the threshold at termination).
    st.remaining_upper = last_threshold[s];
    for (uint32_t ci : engine.ActiveCandidates(s)) {
      if (!engine.alive(ci, s)) continue;
      bool taken = false;  // picked is tiny (<= k): linear scan
      for (uint32_t p : picked) {
        if (p == ci) { taken = true; break; }
      }
      if (!taken) {
        st.remaining_upper =
            std::max(st.remaining_upper, engine.upper(ci, s));
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
    st.components_discovered = n_discovered[s];
    st.elapsed_seconds = timer.ElapsedSeconds();
    finished[s] = 1;
    --live;
    // Drop out of the batch: no more frontier mass, no more deltas —
    // lanes are independent, so the survivors are unaffected.
    frontier.ZeroLane(s);
  };

  // ---- 5. Main loop: one shared CSR walk per iteration, per-lane
  // bookkeeping per seeker. Per lane this runs exactly the
  // single-seeker sequence (a zero delta / zero mass is bitwise inert:
  // every folded quantity is non-negative, so x + 0.0 never flips a
  // bit), which is what makes batched results bit-for-bit equal to
  // per-query SearchWithPlan.
  std::vector<double> tails(L, 0.0);
  for (size_t n = 1; n <= options_.max_iterations && live > 0; ++n) {
    for (size_t s = 0; s < B; ++s) {
      if (!finished[s]) out[s].stats.iterations = n;
    }

    // ExploreStep: border := border · T ; allProx += Cγ · border / γⁿ.
    bool any_frontier = false;
    for (size_t s = 0; s < B; ++s) {
      if (!finished[s] && !exhausted[s]) any_frontier = true;
    }
    if (any_frontier) {
      matrix.PropagateBatch(frontier, next);
      std::swap(frontier, next);
      for (size_t s = 0; s < B; ++s) {
        if (!finished[s] && !exhausted[s] && !frontier.LaneHasMass(s)) {
          exhausted[s] = 1;
        }
      }
      const double factor =
          c_gamma * std::pow(gamma, -static_cast<double>(n));
      engine.FoldFrontier(frontier, factor);
      // Discovery: scan each slot's watch list, then activate the slot
      // in the lanes that just reached it, in lane order.
      for (size_t t = 0; t < n_slots; ++t) {
        std::vector<uint32_t>& watch = slot_watch[t];
        if (watch.empty()) continue;
        uint64_t found = 0;  // bit s: lane s discovered slot t this pass
        size_t w = 0;
        for (uint32_t row : watch) {
          const double* v = &frontier.values[static_cast<size_t>(row) * L];
          bool keep = false;
          for (size_t s = 0; s < B; ++s) {
            if (finished[s] || discovered[t * L + s] || ((found >> s) & 1)) {
              continue;
            }
            if (v[s] != 0.0) {
              found |= uint64_t{1} << s;
            } else {
              keep = true;
            }
          }
          if (keep) watch[w++] = row;
        }
        watch.resize(w);
        for (size_t s = 0; s < B; ++s) {
          if (!((found >> s) & 1)) continue;
          discovered[t * L + s] = 1;
          ++n_discovered[s];
          engine.ActivateSlot(static_cast<uint32_t>(t), s);
        }
      }
    }

    // Bounds. Once a lane's frontier is exhausted there are no longer
    // paths at all for that seeker: its partial sums are exact and its
    // tail is 0.
    for (size_t s = 0; s < B; ++s) {
      tails[s] = exhausted[s] ? 0.0 : TailBound(gamma, n);
    }
    for (size_t s = B; s < L; ++s) tails[s] = 0.0;
    engine.RefreshBoundsBatch(tails.data());

    // Threshold per lane: best possible score of any undiscovered
    // document — over the *reachable* undiscovered components only.
    for (size_t s = 0; s < B; ++s) {
      if (finished[s]) continue;
      double threshold = 0.0;
      if (!exhausted[s]) {
        const double b = UndiscoveredBound(gamma, n);
        for (uint32_t slot : index.slots_by_cap) {
          if (!discovered[slot * L + s] && slot_reachable(slot, s)) {
            threshold = index.slot_cap[slot] *
                        std::pow(std::min(1.0, b),
                                 static_cast<double>(n_keywords));
            break;
          }
        }
      }
      last_threshold[s] = threshold;
    }

    // CleanCandidatesList per lane: drop candidates dominated by a
    // vertical neighbor (sound forever: lower bounds only grow, uppers
    // only shrink). The engine scans its precomputed neighbor-pair
    // list.
    for (size_t s = 0; s < B; ++s) {
      if (finished[s]) continue;
      out[s].stats.candidates_cleaned +=
          engine.CleanDominated(options_.epsilon, s);
    }

    // StopCondition (paper Algorithm 2), per lane. A converged lane
    // records its result and drops out; the others keep iterating.
    for (size_t s = 0; s < B; ++s) {
      if (finished[s]) continue;
      std::vector<uint32_t>& order = orders_[s];
      order.clear();
      for (uint32_t ci : engine.ActiveCandidates(s)) {
        if (engine.alive(ci, s)) order.push_back(ci);
      }
      // Everything below reads only the first k+1 entries of the full
      // sort: select the (k+1)-th into place, then sort the k ahead of
      // it. The order is total, so this is the full sort's prefix.
      const size_t k_s = ks[s];
      const size_t kk = std::min(k_s, order.size());
      if (kk < order.size()) {
        std::nth_element(order.begin(), order.begin() + kk, order.end(),
                         ranks_before(s));
      }
      std::sort(order.begin(), order.begin() + kk, ranks_before(s));
      orders_sorted_[s] = std::min(kk + 1, order.size());
      const double threshold = last_threshold[s];

      if (lane_trace[s]) {
        // Snapshot this iteration's bound-refinement state for the
        // trace. O(k) reads of already-computed bounds — runs only for
        // the (sampled) traced lane, and never writes engine state, so
        // the search itself is untouched.
        obs::IterationTraceRecord rec;
        rec.iteration = static_cast<uint32_t>(n);
        rec.frontier_size = static_cast<uint32_t>(frontier.nonzero.size());
        rec.alive_candidates = static_cast<uint32_t>(order.size());
        const size_t tk = std::min(k_s, order.size());
        double min_lower = 0.0;
        if (tk > 0) {
          min_lower = std::numeric_limits<double>::infinity();
          for (size_t i = 0; i < tk; ++i) {
            min_lower = std::min(min_lower, engine.lower(order[i], s));
          }
        }
        rec.kth_lower = min_lower;
        rec.remaining_upper = std::max(
            threshold, order.size() > tk ? engine.upper(order[tk], s) : 0.0);
        out[s].stats.iteration_trace.push_back(rec);
      }

      if (order.size() >= k_s || exhausted[s] ||
          threshold <= options_.epsilon) {
        // Check the first k alive candidates: pairwise non-neighbors?
        if (!engine.AnyNeighborPair(order, kk)) {
          double min_topk_lower = std::numeric_limits<double>::infinity();
          for (size_t i = 0; i < kk; ++i) {
            min_topk_lower =
                std::min(min_topk_lower, engine.lower(order[i], s));
          }
          double max_non_topk_upper =
              order.size() > kk ? engine.upper(order[kk], s) : 0.0;
          if (std::max(max_non_topk_upper, threshold) <=
              min_topk_lower + options_.epsilon) {
            // With fewer than k results we are only done once nothing
            // undiscovered could still qualify (threshold ~ 0).
            if (kk == k_s || threshold <= options_.epsilon) {
              out[s].stats.converged = true;
              finish_lane(s, std::vector<uint32_t>(order.begin(),
                                                   order.begin() + kk));
              continue;
            }
          }
        }
      }

      // Certified (1-eps) anytime exit (QueryMode::kAnytime): once the
      // best (up to) k candidates are held and everything else — alive
      // non-picked uppers and the undiscovered-component threshold —
      // fits under (1+eps) times the worst picked lower bound, the
      // current answer is a certified (1-eps)-approximation: no
      // omitted (or still undiscovered — the threshold covers those)
      // document beats the worst returned one by more than (1+eps).
      // Strictly after the exact checks and gated on eps > 0, so an
      // exact request runs the unmodified code path bit-for-bit. No
      // epsilon slack here: the comparison is what finish_lane's
      // achieved certificate re-derives, keeping certified_epsilon
      // <= eps.
      if (lane_eps[s] > 0.0 && !order.empty()) {
        const size_t want = std::min(k_s, order.size());
        std::vector<uint32_t> picked =
            engine.GreedyTopK(full_order(s), want, s);
        if (picked.size() == want) {
          double min_lower = std::numeric_limits<double>::infinity();
          for (uint32_t ci : picked) {
            min_lower = std::min(min_lower, engine.lower(ci, s));
          }
          double rem = threshold;
          for (uint32_t ci : order) {
            bool taken = false;  // picked is tiny (== k): linear scan
            for (uint32_t p : picked) {
              if (p == ci) { taken = true; break; }
            }
            if (!taken) rem = std::max(rem, engine.upper(ci, s));
          }
          if (rem <= (1.0 + lane_eps[s]) * min_lower) {
            out[s].stats.converged = true;
            finish_lane(s, picked);
            continue;
          }
        }
      }
    }

    // Per-lane deadline probe (anytime termination, paper §4.1): an
    // expired lane finishes with the best k known now — converged
    // stays false, deadline_exceeded marks the truncation — and drops
    // out of the batch; lanes with slack keep iterating. Probed once
    // per iteration: deadlines bound iterations, not instructions.
    if (any_deadline && live > 0) {
      const double elapsed = timer.ElapsedSeconds();
      for (size_t s = 0; s < B; ++s) {
        if (finished[s] || batch[s].deadline_seconds <= 0.0 ||
            elapsed < batch[s].deadline_seconds) {
          continue;
        }
        out[s].stats.deadline_exceeded = true;
        finish_lane(s, engine.GreedyTopK(full_order(s), ks[s], s));
      }
    }
  }

  // Anytime termination (paper §4.1): unfinished members return the
  // best k known now (converged stays false in their stats).
  for (size_t s = 0; s < B; ++s) {
    if (!finished[s]) {
      finish_lane(s, engine.GreedyTopK(full_order(s), ks[s], s));
    }
  }
  return out;
}

}  // namespace s3::core
