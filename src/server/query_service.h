// QueryService: the concurrent inter-query serving layer.
//
// One service owns
//   * the *current* immutable S3Instance snapshot (shared_ptr<const>;
//     the service and every in-flight query keep their generation
//     alive),
//   * a pool of N worker threads, each with its own long-lived
//     S3kSearcher (per-worker scratch: exploration frontiers, ordering
//     buffer, intra-query thread pool — nothing per query beyond the
//     bound engine),
//   * a bounded MPMC admission queue (common/bounded_queue.h), and
//   * a sharded LRU proximity/candidate cache (server/proximity_cache.h)
//     shared by all workers, one plan per keyword set.
//
// Submit(query) admits the query (or refuses with Unavailable when the
// queue is full — back-pressure instead of collapse) and returns a
// future the caller redeems for the top-k result. Workers pop queries
// FIFO, resolve the candidate plan through the cache (hit: skip
// extension + candidate construction entirely; miss: repair or build,
// and insert), run the seeker-specific exploration, and fulfil the
// promise. Shutdown() closes the queue, drains admitted work, and
// joins the workers; queries admitted before shutdown always complete.
//
// Live updates: SwapSnapshot(next) atomically publishes a new
// generation (normally base->ApplyDelta(delta)) mid-traffic. Each
// worker binds one snapshot per query at dequeue time: in-flight
// queries finish on the generation they started with (kept alive by
// shared_ptr), later dequeues see the new one, and every response is
// internally consistent with exactly one generation
// (QueryResponse::generation). A swap touches no cached plan: the first
// query over a keyword set after it finds the set's plan one or more
// generations old and repairs it (core::RepairCandidatePlan), which
// rebuilds only the passing components the deltas since touched. A
// repair is sound only onto a descendant of the plan's snapshot, so the
// service follows the chain of swaps: when `next` was not applied to
// the current snapshot (S3Instance::parent_id), the chain restarts at
// `next`, and plans from before it are built afresh instead.
//
// Thread-safety: Submit/SubmitBlocking/Stats/SwapSnapshot may be
// called from any number of client threads. Snapshots are never
// mutated after Finalize (ApplyDelta builds successors copy-on-write
// on the side), so workers read them with no synchronization; the only
// swap-related cost on the query path is a mutex-guarded shared_ptr
// copy at admission (validation) and one more per dequeued query
// (binding) — microseconds against millisecond queries.
#ifndef S3_SERVER_QUERY_SERVICE_H_
#define S3_SERVER_QUERY_SERVICE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/s3k.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/proximity_cache.h"

namespace s3::server {

struct QueryServiceOptions {
  // Worker threads == pooled searchers. Each runs one query at a time.
  unsigned workers = 4;
  // Admission-queue capacity; Submit refuses beyond this (load shed).
  size_t queue_capacity = 256;
  // Per-worker searcher configuration. `search.threads` is the
  // *intra*-query parallelism of one worker — with many workers the
  // default of 1 avoids oversubscription; `search.threads = 0` means
  // "auto": size each worker's pool to intra_thread_budget.
  core::S3kOptions search;
  // Machine-wide intra-query thread budget shared by the busy workers:
  // each dequeued query builds its plan with a concurrency of
  // max(1, budget / busy_workers), enforced through the searcher's
  // thread limit — so N workers × M intra-query threads can't
  // oversubscribe the machine, while a solo query on an idle service
  // gets the whole budget (= the whole pool when search.threads = 0).
  // 0 means "auto": std::thread::hardware_concurrency().
  unsigned intra_thread_budget = 0;
  // Proximity/candidate cache; disable for ablation.
  bool enable_cache = true;
  size_t cache_shards = 8;
  size_t cache_capacity_per_shard = 64;
  // Nothing reads this: every query runs alone (multi-seeker batching
  // was removed; see server/README.md). Kept only because the repo
  // benchmark still sets it; it goes at the next benchmark change.
  size_t batch_window = 0;
  // ---- observability (src/obs) ----
  // Registry this service publishes its metric series into; nullptr
  // means the process-wide obs::MetricRegistry::Default(). Tests pass
  // a private registry to isolate their series.
  obs::MetricRegistry* registry = nullptr;
  // Value of the {service="..."} label on every series this service
  // owns. Two live services sharing a registry must use distinct
  // labels (the shard router labels its per-shard services
  // "shard<i>"); series survive service restarts under the same label
  // and keep accumulating.
  std::string obs_label = "primary";
  // Query-trace sampling / slow-log policy (obs/trace.h).
  obs::TraceOptions trace;
};

// What the future resolves to on success.
struct QueryResponse {
  std::vector<core::ResultEntry> entries;
  core::SearchStats stats;
  // Generation of the snapshot that answered the query. Snapshot,
  // plan and searcher are all bound to this one generation.
  uint64_t generation = 0;
  bool cache_hit = false;        // plan served from the proximity cache
  double queue_seconds = 0.0;    // admission -> dequeue
  double total_seconds = 0.0;    // admission -> completion
  // Bounds block: the achieved certificate of this answer (mirrors
  // stats.certified_epsilon / stats.deadline_exceeded, surfaced here
  // so callers need not dig through SearchStats). certified_epsilon is
  // ~0 for exact converged answers, <= the requested epsilon_approx
  // for anytime exits, and may be infinity when a deadline truncated
  // the search before anything was certifiable.
  double certified_epsilon = 0.0;
  bool deadline_exceeded = false;
};

using QueryFuture = std::future<Result<QueryResponse>>;

// Buckets of the achieved-certificate histogram
// (QueryServiceStats::certified_eps_hist). Inclusive upper bounds:
//   0: <= 1e-9 (exact)   1: <= 1e-6   2: <= 1e-3
//   3: <= 1e-2           4: <= 1e-1   5: > 1e-1 (incl. infinity)
inline constexpr size_t kEpsBuckets = 6;

// Bucket index of an achieved certificate (NaN counts as uncertified,
// the last bucket).
size_t CertifiedEpsilonBucket(double eps);

// Human-readable label of a bucket, e.g. "<=1e-6" (the {bucket} label
// of the s3_query_certified_eps_total series).
const char* CertifiedEpsilonBucketLabel(size_t bucket);

// Monotonic service counters. `rejected` counts queue-full
// Unavailable refusals only (load shed); shutdown and validation
// refusals are not admission-control events. Cache hit/miss totals
// mirror the proximity cache so operators see them in one place
// (zero when the cache is disabled).
struct QueryServiceStats {
  uint64_t submitted = 0;    // admitted into the queue
  uint64_t rejected = 0;     // queue-full Unavailable refusals
  uint64_t completed = 0;    // promise fulfilled with a result
  uint64_t failed = 0;       // promise fulfilled with an error status
  uint64_t cache_hits = 0;   // plan served from the proximity cache
  uint64_t cache_misses = 0; // plan built (cache enabled but cold)
  // Always 0: every query runs alone. Kept only because the repo
  // benchmark still reads them; they go at the next benchmark change.
  uint64_t batched_queries = 0;
  uint64_t batches_executed = 0;
  // Anytime serving: completed kAnytime-mode requests, completed
  // requests whose search deadline expired, and the histogram of the
  // achieved certificate (stats.certified_epsilon) over *every*
  // completed query — exact answers populate the leftmost buckets, so
  // the histogram doubles as a convergence-quality monitor.
  uint64_t anytime_queries = 0;
  uint64_t deadline_exceeded = 0;
  std::array<uint64_t, kEpsBuckets> certified_eps_hist{};

  double CacheHitRate() const {
    const uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / total;
  }
};

// One-line operational-health rendering, e.g. "rejected=12
// cache=873/1024 (85.3% hit) anytime=64 deadline_exceeded=2
// eps[<=1e-9]=120 eps[<=1e-2]=64". The cache part reads "cache=off"
// when both cache counters are zero; the anytime part (counters plus
// the non-empty histogram buckets) is omitted until an anytime query or
// a deadline expiry is seen.
std::string FormatStats(const QueryServiceStats& stats);

class QueryService {
 public:
  // `snapshot` must be finalized. The service takes shared ownership.
  QueryService(std::shared_ptr<const core::S3Instance> snapshot,
               QueryServiceOptions options);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Non-blocking admission. Takes a QueryRequest — a bare core::Query
  // converts to an exact request with service defaults — and validates
  // its per-request options (k/epsilon_approx/deadline/mode) up front.
  // Fails fast with InvalidArgument on a bad query or bad options,
  // Unavailable when the queue is full, FailedPrecondition after
  // Shutdown. On success the returned future resolves once a worker
  // has answered the query.
  Result<QueryFuture> Submit(core::QueryRequest query);

  // Blocking admission: waits for queue space instead of shedding.
  // Fails with FailedPrecondition once the service is shut down.
  Result<QueryFuture> SubmitBlocking(core::QueryRequest query);

  // Atomically publishes a new snapshot generation. `next` must be
  // finalized, of the current snapshot's lineage and of a later
  // generation; it normally comes from ApplyDelta on the current
  // snapshot, which keeps cached plans repairable. In-flight queries
  // complete on the snapshot they were dequeued with; queries dequeued
  // after the swap run on `next`. Fails with InvalidArgument on a null
  // or unfinalized snapshot and FailedPrecondition after Shutdown.
  Status SwapSnapshot(std::shared_ptr<const core::S3Instance> next);

  // Closes admission, drains already-admitted queries, joins workers.
  // Idempotent; also run by the destructor.
  void Shutdown();

  // Consistent snapshot of the service counters: the fields are read
  // in dependency order against the workers' release-ordered
  // completion increments, so for any returned snapshot
  // `completed + failed <= submitted` and the certified-epsilon
  // histogram covers at least every completed query — even while
  // workers are mid-flight.
  QueryServiceStats Stats() const;

  // Recent sampled traces and the slow-query log (obs/trace.h).
  const obs::TraceCollector& traces() const { return tracer_; }

  // Null when the cache is disabled.
  const ProximityCache* cache() const { return cache_.get(); }

  // The current snapshot (the generation new queries will run on).
  std::shared_ptr<const core::S3Instance> snapshot() const {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    return snapshot_;
  }

  unsigned worker_count() const {
    return static_cast<unsigned>(workers_.size());
  }

 private:
  struct Task {
    core::QueryRequest query;
    std::promise<Result<QueryResponse>> promise;
    WallTimer timer;  // started at admission
  };

  Status ValidateQuery(const core::S3Instance& snapshot,
                       const core::QueryRequest& query) const;
  Result<QueryFuture> Admit(core::QueryRequest query, bool blocking);
  void WorkerLoop(unsigned worker_index);

  // Registers this service's metric series (histogram handles +
  // callback views over the counters below) with options_.registry.
  void RegisterMetrics();

  // Counter bookkeeping for one completed response: anytime/deadline
  // counters plus the certified-epsilon histogram bucket.
  void RecordOutcome(const core::QueryRequest& query,
                     const core::SearchStats& stats);

  // Per-completion observability: the always-on slow-query check, and
  // — for a sampled query — the QueryTrace record.
  void FinishQueryObs(uint64_t query_id, bool sampled,
                      const core::QueryRequest& query,
                      const QueryResponse& response);

  // Resolves the candidate plan for a query against `snapshot` through
  // the cache, or builds it uncached. The cached plan of the snapshot's
  // generation is a hit; an older one from at or after `chain_start`
  // (the generation where the snapshot's chain of swaps begins) is
  // repaired; anything else means a full build. A repair or a build is
  // inserted unless the cache already holds a newer plan. Sets
  // `cache_hit` on a hit only. `pool` (may be null) is the calling
  // worker's intra-query pool, handed to full builds.
  Result<std::shared_ptr<const core::CandidatePlan>> ResolvePlan(
      const core::S3Instance& snapshot, uint64_t chain_start,
      const core::QueryRequest& query, ThreadPool* pool, bool* cache_hit);

  // Guards snapshot_ and chain_start_; workers copy both out once per
  // dequeued query.
  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const core::S3Instance> snapshot_;
  // Generation of the first snapshot of the current unbroken chain of
  // swaps, each published snapshot the ApplyDelta successor of the one
  // before. Every snapshot this service ever published has its own
  // generation (swaps only go forward), so a cached plan whose
  // generation lies in [chain_start_, g) was built on an ancestor of the
  // generation-g snapshot of this chain.
  uint64_t chain_start_ = 0;
  QueryServiceOptions options_;
  BoundedQueue<Task> queue_;
  std::unique_ptr<ProximityCache> cache_;
  std::vector<std::thread> workers_;
  // Resolved intra_thread_budget (0 replaced by hardware concurrency).
  unsigned intra_budget_ = 1;
  // Workers currently executing a query (not blocked on Pop): the
  // divisor of the per-query thread-budget share.
  std::atomic<unsigned> busy_workers_{0};
  std::atomic<bool> shutdown_{false};

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> anytime_queries_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> eps_hist_[kEpsBuckets] = {};

  // ---- observability. The atomics above stay the single source of
  // truth: the registry exposes them through callback metrics (no
  // double counting, nothing new on the hot path); only the latency
  // histograms below are written per query.
  obs::TraceCollector tracer_;
  std::atomic<uint64_t> trace_ids_{0};
  // Per-worker cumulative busy time (seconds executing queries), for
  // the per-worker utilization series.
  std::unique_ptr<std::atomic<double>[]> worker_busy_seconds_;
  obs::Histogram* h_queue_wait_ = nullptr;
  obs::Histogram* h_exec_ = nullptr;
  obs::Histogram* h_total_ = nullptr;
  // Must be declared after every member its callbacks read (destroyed
  // first: callbacks are unregistered before the state dies).
  obs::CallbackSet callbacks_;
};

}  // namespace s3::server

#endif  // S3_SERVER_QUERY_SERVICE_H_
