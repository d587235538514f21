// S3k: top-k keyword search over an S3 instance (paper §4).
//
// The instance is explored outward from the seeker in increasing
// social-path length. Iteration n computes the border frontier
// δ_u · Tⁿ (the paper's borderProx optimization, §5.2), folds it into
// the bounded social proximity allProx = prox≤n, and discovers the
// components — and hence candidate documents — the frontier touches.
// Each candidate carries a [lower, upper] score interval; a threshold
// bounds the best score any still-undiscovered document could reach.
// The search stops when the top-k candidate intervals separate from
// everything else (Algorithm 2 of the paper), or anytime on budget
// exhaustion, returning the current best k.
#ifndef S3_CORE_S3K_H_
#define S3_CORE_S3K_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/bound_engine.h"
#include "core/connections.h"
#include "core/s3_instance.h"
#include "core/score.h"
#include "obs/trace.h"
#include "social/transition_matrix.h"

namespace s3::core {

// A keyword query (paper Definition 3.1): a seeker and a keyword set.
// Legacy surface: QueryRequest (below) is the per-request API; a bare
// Query converts implicitly to a QueryRequest with default options
// (exact search, service-level k), so pre-existing call sites keep
// compiling unchanged.
struct Query {
  social::UserId seeker = 0;
  std::vector<KeywordId> keywords;
};

// How a request wants its answer terminated.
enum class QueryMode : uint8_t {
  // Run to the paper's threshold-based stop condition: the returned
  // top-k is provably the exact answer (modulo the engine's epsilon
  // tie-break slack).
  kExact = 0,
  // Certified (1-epsilon)-approximate: the search may stop as soon as
  //   remaining_upper <= (1 + epsilon_approx) * kth_lower,
  // i.e. no omitted document can beat the worst returned one by more
  // than a (1+epsilon) factor. The *achieved* certificate is reported
  // in SearchStats::certified_epsilon; with epsilon_approx = 0 the
  // anytime path is never taken and results are bit-for-bit the exact
  // search.
  kAnytime = 1,
};

// Per-request overrides riding on a QueryRequest. Everything here is
// resolved against the serving defaults (S3kOptions) at search time;
// zero values mean "inherit".
struct QueryOptions {
  // Result size; 0 inherits the searcher/service default (S3kOptions::k).
  size_t k = 0;
  // Certified approximation slack (kAnytime only; see QueryMode).
  double epsilon_approx = 0.0;
  // Wall-clock deadline for the *search* (queue wait excluded), in
  // seconds; 0 means no deadline. An expired search returns the best k
  // found so far with SearchStats::deadline_exceeded set — in both
  // modes (anytime termination, paper §4.1).
  double deadline_seconds = 0.0;
  QueryMode mode = QueryMode::kExact;
  // Record the engine's per-iteration bound-refinement story into
  // SearchStats::iteration_trace (observability only — never affects
  // the result). Off by default; the serving layer sets it for
  // sampled queries, so untraced queries pay nothing.
  bool trace = false;

  // InvalidArgument on non-finite / negative epsilon or deadline, or
  // epsilon_approx > 0 outside kAnytime.
  Status Validate() const;
};

// The per-request query surface: a seeker, a keyword set, and the
// options the caller wants *this* query answered under. Flows
// uniformly through S3kSearcher, server::QueryService and
// shard::ShardRouter.
struct QueryRequest {
  social::UserId seeker = 0;
  std::vector<KeywordId> keywords;
  QueryOptions options;

  QueryRequest() = default;
  QueryRequest(social::UserId s, std::vector<KeywordId> kw,
               QueryOptions opts = {})
      : seeker(s), keywords(std::move(kw)), options(opts) {}
  // Legacy adapter: a bare Query is an exact request with defaults.
  QueryRequest(const Query& q)  // NOLINT(google-explicit-constructor)
      : seeker(q.seeker), keywords(q.keywords) {}
};

struct S3kOptions {
  ScoreParams score;
  // Result size k.
  size_t k = 10;
  // Enable keyword extension Ext(k) (disable for ablations; the paper's
  // "semantic reachability" compares the two candidate sets).
  bool use_semantics = true;
  // Safety cap on exploration depth; the threshold-based stop condition
  // normally fires much earlier (it always did in the paper's runs).
  size_t max_iterations = 256;
  // Slack for floating-point comparisons in the stop condition; also
  // the de-facto tie-breaking precision (paper §4.2). Must be finite
  // and non-negative: a search under any other value fails with
  // InvalidArgument.
  double epsilon = 1e-12;
  // Worker threads for intra-query parallelism. The searcher keeps a
  // pool of threads - 1 workers and hands it to BuildCandidatePlan,
  // which ignores it and builds every plan serially (a pooled build
  // measured slower than a serial one); the exploration loop is serial
  // too, so the pool runs no job. 0 means "auto":
  // std::thread::hardware_concurrency(), or the serving layer's
  // intra_thread_budget when the searcher runs under a QueryService.
  // Results are bit-for-bit identical at every value.
  unsigned threads = 1;
};

// The seeker-independent half of query evaluation: semantic extension,
// passing components, and the flat candidate index over their
// candidates (the paper's GetDocuments output, with each candidate's
// source lists folded into the reverse index the bound engine reads). A
// plan depends only on the instance generation, the keyword multiset
// and the (use_semantics, eta) parameters — not on the seeker — so it
// is built once and shared by every query over the same keywords.
// Plans are immutable after construction; SearchWithPlan only reads
// one, which is what lets the serving layer cache them behind
// shared_ptr<const CandidatePlan> across threads.
//
// Permuting the keyword list permutes the plan's slots, and the score
// is a product over slots — mathematically order-free, but the
// floating-point product of three or more factors can differ in the
// last ulp between orders. Search and the serving layer therefore
// always plan over the *sorted* keyword list (the proximity-cache
// canonicalization), so every ordering of a multiset gets one answer.
struct CandidatePlan {
  // Keywords the plan was built for, in slot order (ext[i] extends
  // keywords[i]).
  std::vector<KeywordId> keywords;
  QueryExtension ext;
  // Components in which every query keyword (or an extension member)
  // occurs, sorted; component passing[i] is index slot i.
  std::vector<social::ComponentId> passing;
  // Smallest member row of each passing component (parallel to
  // `passing`). It is a fragment row, and fragment rows never move, so
  // it names the component across generations while component ids
  // shift: RepairCandidatePlan matches slots by it.
  std::vector<uint32_t> slot_row;
  // The candidates of every passing component, flattened: nodes,
  // per-keyword weights and tail coefficients, the reverse source
  // index, the vertical-neighbor pairs and the slot caps.
  CandidateIndex index;
  // Reach root of each passing component's owners (parallel to
  // `passing`). A component whose root differs from the seeker's can
  // never be discovered (no social path exists), so its cap is
  // excluded from the termination threshold. That is what makes a
  // shard's answer exact: a shard that materializes only the seeker's
  // group stops at the same iteration as the whole instance
  // (src/server/SHARDING.md).
  std::vector<uint32_t> comp_reach_root;
  size_t extension_keywords = 0;  // Σ |Ext(k)| over query keywords
  // The instance the plan was built on (S3Instance::generation() and
  // lineage()). Tag rows and component ids shift between generations,
  // so a search rejects a plan whose stamp differs from its own
  // instance's. (The index's source rows are users and fragments only,
  // whose rows never move.)
  uint64_t generation = 0;
  uint64_t lineage = 0;

  size_t n_keywords() const { return keywords.size(); }
};

// Builds the candidate plan for a keyword list: extension, passing
// components, per-component candidate construction and the candidate
// index, built serially: `pool` (may be null) is accepted and unused.
// Fails on an empty or oversized (> 64) keyword list or an
// unfinalized instance.
Result<CandidatePlan> BuildCandidatePlan(
    const S3Instance& instance, const std::vector<KeywordId>& keywords,
    bool use_semantics, double eta, ThreadPool* pool = nullptr);

// What RepairCandidatePlan did (for tests and benches).
struct PlanRepairStats {
  size_t slots_kept = 0;      // passing components carried over
  size_t slots_rebuilt = 0;   // passing components built again
  bool index_reused = false;  // the old index, with fresh kw_c
  bool full_build = false;    // the extension changed: built afresh
};

// Brings `old`, a plan for the same keywords, use_semantics and eta
// built on an ancestor of `instance` (an earlier generation of its
// ApplyDelta chain), up to `instance`: the result equals
// BuildCandidatePlan(instance, old.keywords, ...) bit for bit, field by
// field. Connections never cross a component, so a passing component
// that has not changed since old.generation
// (S3Instance::ComponentChangedAt) keeps its candidates, and only the
// others are built again. When every passing slot comes out as before,
// the old index is reused with its tail coefficients recomputed against
// the new ColumnMax; otherwise it is flattened anew. A changed
// extension means a full build. Ancestry is the caller's to know (the
// stamps say nothing about a plan from another branch): the serving
// layer repairs only along its own chain of swaps. InvalidArgument when
// `old` is of another lineage or not older than `instance`.
Result<CandidatePlan> RepairCandidatePlan(const S3Instance& instance,
                                          const CandidatePlan& old,
                                          bool use_semantics, double eta,
                                          PlanRepairStats* stats = nullptr);

// One returned answer with its score interval at termination.
struct ResultEntry {
  doc::NodeId node = doc::kInvalidNode;
  double lower = 0.0;
  double upper = 0.0;
};

struct SearchStats {
  size_t iterations = 0;
  size_t components_passing = 0;
  size_t components_discovered = 0;
  size_t candidates_total = 0;
  size_t candidates_cleaned = 0;
  size_t extension_keywords = 0;  // Σ |Ext(k)| over query keywords
  bool converged = false;         // threshold-based stop reached
  double elapsed_seconds = 0.0;
  // The bounds behind the answer's certificate: the smallest lower
  // bound among the returned entries, and an upper bound on the score
  // of every document *not* returned (max of the non-returned
  // candidates' uppers and the undiscovered-component threshold at
  // termination).
  double kth_lower = 0.0;
  double remaining_upper = 0.0;
  // The *achieved* certificate at termination: the smallest eps for
  // which "no omitted document beats the worst returned one by more
  // than (1+eps)" is provable from the bounds. 0 when the exact
  // stop's absolute slack holds (remaining_upper <= kth_lower +
  // S3kOptions::epsilon), else max(0, remaining_upper/kth_lower - 1).
  // Exact converged searches report 0; an anytime exit reports a
  // value <= the requested epsilon_approx (modulo one ulp of the
  // comparison); a deadline/iteration-capped search reports whatever
  // the bounds support — infinity when nothing is certifiable
  // (kth_lower == 0 with mass still undiscovered).
  double certified_epsilon = 0.0;
  // The request's deadline (QueryOptions::deadline_seconds) expired
  // before convergence.
  bool deadline_exceeded = false;
  // Always false: the exploration loop has one serial schedule. Kept
  // only because the repo benchmark still reads it; it goes at the next
  // benchmark change.
  bool used_component_fanout = false;
  // All candidate documents of passing components (the candidate
  // universe used by the Fig. 8 quality metrics).
  std::vector<doc::NodeId> candidate_nodes;
  // Per-iteration bound-refinement records, filled only when the
  // request asked for tracing (QueryOptions::trace); empty — and
  // unallocated — otherwise. This is progress observability, not part
  // of the bit-for-bit result contract.
  std::vector<obs::IterationTraceRecord> iteration_trace;
};

// A reusable query worker. One searcher answers one query at a time;
// it keeps per-worker scratch (the exploration frontiers, the
// candidate ordering buffer, and the intra-query thread pool) alive
// across queries, so a query does not reallocate them. Distinct
// searchers over the same const S3Instance are independent and may run
// concurrently — the serving layer (server/query_service.h) pools N of
// them over one shared snapshot.
class S3kSearcher {
 public:
  // `instance` must outlive the searcher and be finalized.
  S3kSearcher(const S3Instance& instance, S3kOptions options);

  // Runs the request; returns the top-k (possibly fewer if the
  // instance has fewer matching neighbor-free documents), ordered as
  // the stop condition ranks candidates at termination: upper bound
  // descending, then node id ascending. The returned intervals may
  // overlap, so this need not be exact-score order. When fewer than k
  // candidates can score above 0, the rest of the k are filled with
  // candidates the seeker cannot reach, at [0, 0]; the brute-force
  // NaiveSearch drops score-0 documents instead, so the two agree on
  // the entries with a non-zero upper bound. Builds the
  // candidate plan itself — equivalent to BuildCandidatePlan over the
  // sorted keywords + SearchWithPlan, so every permutation of the
  // keywords returns bit-identical entries. Takes any QueryRequest (a
  // bare core::Query converts to an exact request with default
  // options).
  Result<std::vector<ResultEntry>> Search(const QueryRequest& query,
                                          SearchStats* stats = nullptr);

  // Runs the exploration loop over a prebuilt (possibly shared/cached)
  // plan. The plan must have been built over this searcher's instance
  // with the same use_semantics / eta (a plan stamped with another
  // generation or lineage is rejected: InvalidArgument); only
  // `query.seeker` and `query.options` are read — the plan's keyword
  // slots, in the plan's order, stand in for `query.keywords` (see
  // CandidatePlan on why the order can matter in the last ulp). This
  // is paper Algorithm 2 from one seeker.
  Result<std::vector<ResultEntry>> SearchWithPlan(const QueryRequest& query,
                                                  const CandidatePlan& plan,
                                                  SearchStats* stats = nullptr);

  const S3kOptions& options() const { return options_; }

  // The searcher's intra-query thread pool (null when threads <= 1).
  // Exposed so the serving layer can pass it to cache-miss plan
  // builds (which run serially today, see BuildCandidatePlan).
  ThreadPool* intra_pool() const { return pool_.get(); }

  // Caps the intra-query concurrency (caller + pool helpers) of every
  // later plan build on intra_pool() without resizing the pool; 0
  // removes the cap. Takes effect immediately, so a plan built right
  // after the call already runs under it. The serving layer calls this
  // per dequeued query to divide the machine's thread budget among
  // currently-busy workers — a solo query on an idle service gets the
  // whole pool. Must not be called while this searcher is mid-search
  // (one searcher runs one query at a time). Results are unaffected
  // (bit-for-bit at every limit).
  void set_thread_limit(unsigned limit) {
    if (pool_ != nullptr) {
      pool_->SetHelperLimit(limit == 0 ? SIZE_MAX : limit - 1);
    }
  }

 private:
  const S3Instance& instance_;
  S3kOptions options_;
  // Persistent worker pool for intra-query parallelism (created in the
  // constructor when threads > 1, so Search never mutates structure).
  std::unique_ptr<ThreadPool> pool_;
  // Per-worker scratch reused across queries (reset at query start).
  social::Frontier frontier_, next_;
  // The alive candidates. The stop check orders only the first k+1 by
  // (upper desc, node asc); a walk that may go further sorts the rest
  // first.
  std::vector<uint32_t> order_;
};

}  // namespace s3::core

#endif  // S3_CORE_S3K_H_
