#include "server/query_service.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>
#include <vector>

namespace s3::server {

size_t CertifiedEpsilonBucket(double eps) {
  if (!(eps <= 1e-1)) return 5;
  if (eps <= 1e-9) return 0;
  if (eps <= 1e-6) return 1;
  if (eps <= 1e-3) return 2;
  if (eps <= 1e-2) return 3;
  return 4;
}

const char* CertifiedEpsilonBucketLabel(size_t bucket) {
  static const char* kLabels[kEpsBuckets] = {
      "<=1e-9", "<=1e-6", "<=1e-3", "<=1e-2", "<=1e-1", ">1e-1"};
  return bucket < kEpsBuckets ? kLabels[bucket] : "?";
}

std::string FormatStats(const QueryServiceStats& stats) {
  char buf[448];
  int n = 0;
  if (stats.cache_hits + stats.cache_misses == 0) {
    n = std::snprintf(buf, sizeof(buf), "rejected=%llu cache=off",
                      static_cast<unsigned long long>(stats.rejected));
  } else {
    n = std::snprintf(buf, sizeof(buf),
                      "rejected=%llu cache=%llu/%llu (%.1f%% hit)",
                      static_cast<unsigned long long>(stats.rejected),
                      static_cast<unsigned long long>(stats.cache_hits),
                      static_cast<unsigned long long>(stats.cache_hits +
                                                      stats.cache_misses),
                      stats.CacheHitRate() * 100.0);
  }
  auto append = [&](const char* fmt, auto... args) {
    if (n > 0 && static_cast<size_t>(n) < sizeof(buf)) {
      const int wrote = std::snprintf(buf + n, sizeof(buf) - n, fmt, args...);
      if (wrote > 0) n += wrote;
    }
  };
  if (stats.anytime_queries > 0 || stats.deadline_exceeded > 0) {
    append(" anytime=%llu deadline_exceeded=%llu",
           static_cast<unsigned long long>(stats.anytime_queries),
           static_cast<unsigned long long>(stats.deadline_exceeded));
    for (size_t b = 0; b < kEpsBuckets; ++b) {
      if (stats.certified_eps_hist[b] == 0) continue;
      append(" eps[%s]=%llu", CertifiedEpsilonBucketLabel(b),
             static_cast<unsigned long long>(stats.certified_eps_hist[b]));
    }
  }
  return buf;
}

QueryService::QueryService(std::shared_ptr<const core::S3Instance> snapshot,
                           QueryServiceOptions options)
    : snapshot_(std::move(snapshot)),
      options_(options),
      queue_(options.queue_capacity),
      tracer_(options.trace) {
  if (options_.workers < 1) options_.workers = 1;
  intra_budget_ = options_.intra_thread_budget;
  if (intra_budget_ == 0) {  // auto
    intra_budget_ = std::thread::hardware_concurrency();
    if (intra_budget_ == 0) intra_budget_ = 1;
  }
  if (options_.enable_cache) {
    cache_ = std::make_unique<ProximityCache>(
        options_.cache_shards, options_.cache_capacity_per_shard);
  }
  // Value-initialized (zeroed) per-worker busy-time slots; the metric
  // callbacks read them, so allocate before RegisterMetrics().
  worker_busy_seconds_ =
      std::make_unique<std::atomic<double>[]>(options_.workers);
  RegisterMetrics();
  workers_.reserve(options_.workers);
  for (unsigned i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

void QueryService::RegisterMetrics() {
  obs::MetricRegistry* reg = options_.registry != nullptr
                                 ? options_.registry
                                 : &obs::MetricRegistry::Default();
  obs::RegisterProcessMetrics(reg);
  callbacks_.Attach(reg);
  const obs::Labels svc{{"service", options_.obs_label}};
  h_queue_wait_ = reg->GetHistogram(
      "s3_query_queue_seconds", "Admission-to-dequeue wait per query.", svc);
  h_exec_ = reg->GetHistogram(
      "s3_query_exec_seconds",
      "Dequeue-to-completion execution time per query.", svc);
  h_total_ = reg->GetHistogram(
      "s3_query_total_seconds", "Admission-to-completion latency per query.",
      svc);

  // Counter/gauge views over the service's own atomics — the atomics
  // stay the single source of truth (QueryServiceStats reads the same
  // memory), the registry only renders them.
  auto view = [&](const char* name, const char* help,
                  const std::atomic<uint64_t>& src) {
    callbacks_.Add(name, help, obs::MetricKind::kCounter, svc, [&src] {
      return static_cast<double>(src.load(std::memory_order_relaxed));
    });
  };
  view("s3_queries_submitted_total", "Queries admitted into the queue.",
       submitted_);
  view("s3_queries_rejected_total",
       "Queue-full Unavailable refusals (load shed).", rejected_);
  view("s3_queries_completed_total", "Queries answered with a result.",
       completed_);
  view("s3_queries_failed_total", "Queries answered with an error status.",
       failed_);
  view("s3_anytime_queries_total", "Completed kAnytime-mode queries.",
       anytime_queries_);
  view("s3_deadline_exceeded_total",
       "Completed queries whose search deadline expired.",
       deadline_exceeded_);
  for (size_t b = 0; b < kEpsBuckets; ++b) {
    obs::Labels labels = svc;
    labels.emplace_back("bucket", CertifiedEpsilonBucketLabel(b));
    callbacks_.Add("s3_query_certified_eps_total",
                   "Achieved certified-epsilon histogram over completed "
                   "queries (exact answers land in the leftmost bucket).",
                   obs::MetricKind::kCounter, std::move(labels),
                   [this, b] {
                     return static_cast<double>(
                         eps_hist_[b].load(std::memory_order_relaxed));
                   });
  }
  callbacks_.Add("s3_query_queue_depth",
                 "Admitted tasks waiting for a worker.",
                 obs::MetricKind::kGauge, svc, [this] {
                   return static_cast<double>(queue_.size());
                 });
  callbacks_.Add("s3_query_busy_workers",
                 "Workers currently executing a query.",
                 obs::MetricKind::kGauge, svc, [this] {
                   return static_cast<double>(
                       busy_workers_.load(std::memory_order_relaxed));
                 });
  for (unsigned i = 0; i < options_.workers; ++i) {
    obs::Labels labels = svc;
    labels.emplace_back("worker", std::to_string(i));
    callbacks_.Add("s3_worker_busy_seconds_total",
                   "Cumulative seconds this worker spent executing queries.",
                   obs::MetricKind::kCounter, std::move(labels), [this, i] {
                     return worker_busy_seconds_[i].load(
                         std::memory_order_relaxed);
                   });
  }
  if (cache_ != nullptr) {
    auto cache_view = [&](const char* name, const char* help,
                          obs::MetricKind kind,
                          uint64_t ProximityCacheStats::*field) {
      callbacks_.Add(name, help, kind, svc, [this, field] {
        return static_cast<double>(cache_->Stats().*field);
      });
    };
    cache_view("s3_plan_cache_hits_total",
               "Plans served from the proximity cache.",
               obs::MetricKind::kCounter, &ProximityCacheStats::hits);
    cache_view("s3_plan_cache_misses_total",
               "Plan lookups that missed (plan built).",
               obs::MetricKind::kCounter, &ProximityCacheStats::misses);
    cache_view("s3_plan_cache_insertions_total",
               "Plans inserted into the cache.", obs::MetricKind::kCounter,
               &ProximityCacheStats::insertions);
    cache_view("s3_plan_cache_evictions_total",
               "Plans evicted by LRU capacity pressure.",
               obs::MetricKind::kCounter, &ProximityCacheStats::evictions);
    cache_view("s3_plan_cache_purged_total",
               "Stale-generation plans purged after snapshot swaps.",
               obs::MetricKind::kCounter, &ProximityCacheStats::purged);
    callbacks_.Add("s3_plan_cache_entries", "Plans currently cached.",
                   obs::MetricKind::kGauge, svc, [this] {
                     return static_cast<double>(cache_->Stats().entries);
                   });
  }
  callbacks_.Add("s3_traces_sampled_total",
                 "Queries selected for detailed tracing.",
                 obs::MetricKind::kCounter, svc,
                 [this] { return static_cast<double>(tracer_.sampled_total()); });
  callbacks_.Add("s3_slow_queries_total",
                 "Completions at or above the slow-query threshold.",
                 obs::MetricKind::kCounter, svc,
                 [this] { return static_cast<double>(tracer_.slow_total()); });
}

QueryService::~QueryService() { Shutdown(); }

Status QueryService::ValidateQuery(const core::S3Instance& snapshot,
                                   const core::QueryRequest& query) const {
  if (!snapshot.finalized()) {
    return Status::FailedPrecondition("snapshot not finalized");
  }
  // Per-request overrides are untrusted caller input like everything
  // else: a NaN deadline or an epsilon outside kAnytime must fail at
  // admission, not surface from a worker mid-search.
  S3_RETURN_IF_ERROR(query.options.Validate());
  if (query.seeker >= snapshot.UserCount()) {
    return Status::InvalidArgument("unknown seeker");
  }
  if (query.keywords.empty()) {
    return Status::InvalidArgument("empty keyword set");
  }
  if (query.keywords.size() > 64) {
    return Status::InvalidArgument("queries are limited to 64 keywords");
  }
  // Keyword *values* are untrusted caller input too: an out-of-range id
  // must not reach plan construction or index lookups. (Ids stay valid
  // across snapshot swaps because vocabularies only grow.)
  const size_t n_keywords = snapshot.vocabulary().size();
  for (KeywordId k : query.keywords) {
    if (k >= n_keywords) {
      return Status::InvalidArgument("unknown keyword id");
    }
  }
  return Status::OK();
}

Status QueryService::SwapSnapshot(
    std::shared_ptr<const core::S3Instance> next) {
  if (shutdown_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("service is shut down");
  }
  if (next == nullptr || !next->finalized()) {
    return Status::InvalidArgument("snapshot must be finalized");
  }
  const uint64_t generation = next->generation();
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    // Generations must grow monotonically: the cache keys plans by
    // generation number, so publishing an unrelated snapshot that
    // reuses a number (e.g. a freshly built generation-0 instance)
    // would let stale plans — with row ids of a different instance —
    // hit against it. It also serializes concurrent swappers: the
    // loser of a race surfaces here instead of silently discarding
    // the winner's delta. Serving an unrelated instance means a new
    // QueryService.
    if (generation <= snapshot_->generation()) {
      return Status::InvalidArgument(
          "snapshot generation must exceed the current generation " +
          std::to_string(snapshot_->generation()) +
          " (got " + std::to_string(generation) + ")");
    }
    // Generation numbers are only comparable within one ApplyDelta
    // lineage: an unrelated instance may have smaller id spaces than
    // the one queries were validated against.
    if (next->lineage() != snapshot_->lineage()) {
      return Status::InvalidArgument(
          "snapshot belongs to a different lineage; serve an unrelated "
          "instance with a new QueryService");
    }
    snapshot_ = std::move(next);
  }
  // Stale-generation plans can never be looked up again (keys carry
  // the generation); reclaim their memory without touching
  // current-generation entries.
  if (cache_ != nullptr) cache_->PurgeGenerationsBelow(generation);
  return Status::OK();
}

Result<QueryFuture> QueryService::Admit(core::QueryRequest query,
                                        bool blocking) {
  if (shutdown_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("service is shut down");
  }
  {
    auto snap = snapshot();
    S3_RETURN_IF_ERROR(ValidateQuery(*snap, query));
  }

  Task task;
  task.query = std::move(query);
  QueryFuture future = task.promise.get_future();
  // Count the admission *before* publishing the task: a fast worker
  // may complete it the instant it is queued, and completed > submitted
  // must never be observable. Undone on refusal.
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const bool admitted =
      blocking ? queue_.Push(std::move(task)) : queue_.TryPush(std::move(task));
  if (!admitted) {
    submitted_.fetch_sub(1, std::memory_order_relaxed);
    if (queue_.closed()) {
      // Shutdown refusal, not load shedding — don't count it as an
      // admission-control rejection.
      return Status::FailedPrecondition("service is shut down");
    }
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("admission queue full");
  }
  return future;
}

Result<QueryFuture> QueryService::Submit(core::QueryRequest query) {
  return Admit(std::move(query), /*blocking=*/false);
}

Result<QueryFuture> QueryService::SubmitBlocking(core::QueryRequest query) {
  return Admit(std::move(query), /*blocking=*/true);
}

void QueryService::RecordOutcome(const core::QueryRequest& query,
                                 const core::SearchStats& stats) {
  if (query.options.mode == core::QueryMode::kAnytime) {
    anytime_queries_.fetch_add(1, std::memory_order_relaxed);
  }
  if (stats.deadline_exceeded) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  }
  eps_hist_[CertifiedEpsilonBucket(stats.certified_epsilon)].fetch_add(
      1, std::memory_order_relaxed);
}

Result<std::shared_ptr<const core::CandidatePlan>> QueryService::ResolvePlan(
    const core::S3Instance& snapshot, const core::QueryRequest& query,
    ThreadPool* pool, bool* cache_hit) {
  *cache_hit = false;
  // Plans are built over the canonical (sorted) keyword order — the
  // cache key's, and S3kSearcher::Search's — so every permutation of a
  // multiset gets the same plan, cached or not.
  PlanCacheKey key =
      MakePlanKey(query.keywords, options_.search.use_semantics,
                  options_.search.score.eta, snapshot.generation());
  if (cache_ != nullptr) {
    if (auto plan = cache_->Lookup(key)) {
      *cache_hit = true;
      return plan;
    }
  }
  // Concurrent misses on the same key may build twice; last insert
  // wins and both plans are equivalent, so no cross-worker build lock
  // is needed.
  auto built = core::BuildCandidatePlan(snapshot, key.keywords,
                                        key.use_semantics, key.eta, pool);
  if (!built.ok()) return built.status();
  auto plan =
      std::make_shared<const core::CandidatePlan>(std::move(*built));
  if (cache_ != nullptr) cache_->Insert(key, plan);
  return plan;
}

void QueryService::WorkerLoop(unsigned worker_index) {
  // The pooled searcher: one per worker, reused for every query the
  // worker answers (scratch state persists across queries) and rebuilt
  // only when a SwapSnapshot publishes a new generation. The worker's
  // shared_ptr keeps its generation alive until it rebinds.
  std::shared_ptr<const core::S3Instance> bound;
  std::optional<core::S3kSearcher> searcher;
  // Each worker's searcher resolves `threads = 0` to the service-wide
  // intra-query budget; the per-query thread *limit* below then divides
  // that budget among the workers actually busy right now.
  core::S3kOptions search_opts = options_.search;
  if (search_opts.threads == 0) search_opts.threads = intra_budget_;

  while (auto popped = queue_.Pop()) {
    // Busy-worker accounting brackets the whole task (the guard
    // decrements on every exit path, error continues included): the
    // instantaneous busy count is the divisor of each query's share of
    // the machine's thread budget.
    const unsigned busy =
        busy_workers_.fetch_add(1, std::memory_order_relaxed) + 1;
    struct BusyGuard {
      std::atomic<unsigned>& counter;
      std::atomic<double>& busy_seconds;
      WallTimer timer;  // started at dequeue
      ~BusyGuard() {
        // Per-worker utilization accounting covers every exit path
        // (error continues included), like the busy count itself.
        busy_seconds.fetch_add(timer.ElapsedSeconds(),
                               std::memory_order_relaxed);
        counter.fetch_sub(1, std::memory_order_relaxed);
      }
    } busy_guard{busy_workers_, worker_busy_seconds_[worker_index]};

    Task& task = *popped;
    QueryResponse r;
    r.queue_seconds = task.timer.ElapsedSeconds();
    h_queue_wait_->Observe(r.queue_seconds);
    // Trace sampling is decided before the query runs: a sampled query
    // carries the engine-side trace flag (per-iteration records) and
    // gets a QueryTrace built at completion; a sampled-out query pays
    // one relaxed fetch_add here and allocates nothing. The flag never
    // affects the result (engine tracing is read-only).
    const uint64_t query_id = trace_ids_.fetch_add(1, std::memory_order_relaxed);
    const bool sampled = tracer_.ShouldSample();
    if (sampled) task.query.options.trace = true;

    // Bind one snapshot for the whole query: snapshot, plan and
    // searcher all come from this generation, even if a swap lands
    // mid-query.
    auto current = snapshot();
    if (current != bound) {
      searcher.reset();
      bound = std::move(current);
      searcher.emplace(*bound, search_opts);
    }
    // This query's share of the intra-query thread budget. An idle
    // service hands a solo query the whole budget; a loaded one clamps
    // every query toward 1 (results are bit-for-bit identical at any
    // limit, so the clamp is purely a scheduling decision).
    searcher->set_thread_limit(std::max(1u, intra_budget_ / busy));

    auto plan = ResolvePlan(*bound, task.query, searcher->intra_pool(),
                            &r.cache_hit);
    if (!plan.ok()) {
      failed_.fetch_add(1, std::memory_order_release);
      task.promise.set_value(plan.status());
      continue;
    }
    // The query was validated at admission against a snapshot of this
    // lineage no newer than `bound` (user ids only grow within a
    // lineage), so validation cannot fail here.
    auto entries = searcher->SearchWithPlan(task.query, **plan, &r.stats);
    if (!entries.ok()) {
      failed_.fetch_add(1, std::memory_order_release);
      task.promise.set_value(entries.status());
      continue;
    }
    r.generation = bound->generation();
    r.entries = std::move(*entries);
    r.certified_epsilon = r.stats.certified_epsilon;
    r.deadline_exceeded = r.stats.deadline_exceeded;
    RecordOutcome(task.query, r.stats);
    r.total_seconds = task.timer.ElapsedSeconds();
    h_exec_->Observe(r.total_seconds - r.queue_seconds);
    h_total_->Observe(r.total_seconds);
    FinishQueryObs(query_id, sampled, task.query, r);
    // Release-ordered so a Stats() snapshot that sees this completion
    // also sees the RecordOutcome increments and the admission that
    // preceded it (see Stats()).
    completed_.fetch_add(1, std::memory_order_release);
    task.promise.set_value(std::move(r));
  }
}

void QueryService::FinishQueryObs(uint64_t query_id, bool sampled,
                                  const core::QueryRequest& query,
                                  const QueryResponse& response) {
  const auto label = [&] {
    return "seeker=" + std::to_string(query.seeker) + " kw=" +
           std::to_string(query.keywords.size()) +
           (query.options.mode == core::QueryMode::kAnytime ? " anytime"
                                                            : "");
  };
  // Always-on slow-log check: the entry is materialized only past the
  // threshold, so the fast path pays one comparison.
  tracer_.NoteCompletion(response.total_seconds, [&] {
    obs::SlowQueryEntry entry;
    entry.id = query_id;
    entry.label = label();
    entry.generation = response.generation;
    entry.cache_hit = response.cache_hit;
    entry.deadline_exceeded = response.deadline_exceeded;
    entry.certified_epsilon = response.certified_epsilon;
    entry.queue_seconds = response.queue_seconds;
    entry.exec_seconds = response.total_seconds - response.queue_seconds;
    entry.total_seconds = response.total_seconds;
    return entry;
  });
  if (!sampled) return;
  obs::QueryTrace trace;
  trace.id = query_id;
  trace.label = label();
  trace.generation = response.generation;
  trace.cache_hit = response.cache_hit;
  trace.deadline_exceeded = response.deadline_exceeded;
  trace.certified_epsilon = response.certified_epsilon;
  trace.total_seconds = response.total_seconds;
  // Span tree from the response's phase scalars. Plan resolution and
  // search are not separately clocked on the serving path (that would
  // cost a timer read per query); the search span carries the engine's
  // per-iteration records, which is where the time goes.
  obs::TraceSpan queue_span{"queue-wait", 0.0, response.queue_seconds, 0};
  const double exec = response.total_seconds - response.queue_seconds;
  obs::TraceSpan exec_span{"execute", response.queue_seconds, exec, 0};
  obs::TraceSpan plan_span{response.cache_hit ? "plan-cache-hit"
                                              : "plan-build",
                           response.queue_seconds, 0.0, 1};
  obs::TraceSpan search_span{"search", response.queue_seconds, exec, 1};
  trace.spans = {queue_span, exec_span, plan_span, search_span};
  trace.iterations = response.stats.iteration_trace;
  tracer_.Record(std::move(trace));
}

void QueryService::Shutdown() {
  bool expected = false;
  if (!shutdown_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    // Already shut down (or shutting down); joining is single-shot
    // because only the winning caller reaches the joins below.
    return;
  }
  queue_.Close();  // workers drain admitted tasks, then Pop() ends
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

QueryServiceStats QueryService::Stats() const {
  // Dependency-ordered snapshot. Workers increment with release at
  // the consistency boundaries (completed_/failed_ after RecordOutcome
  // and after the queue pop), and admission increments submitted_
  // before the queue push.
  // Reading the *later* event of each pair with acquire, then its
  // prerequisites, makes every returned snapshot obey:
  //   completed + failed <= submitted      (admission precedes work)
  //   sum(certified_eps_hist) >= completed  (outcome precedes count)
  // A relaxed field-by-field read — the previous implementation —
  // could see a completion without its admission and report
  // completed > submitted mid-load.
  QueryServiceStats out;
  out.completed = completed_.load(std::memory_order_acquire);
  out.failed = failed_.load(std::memory_order_acquire);
  out.anytime_queries = anytime_queries_.load(std::memory_order_relaxed);
  out.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  for (size_t b = 0; b < kEpsBuckets; ++b) {
    out.certified_eps_hist[b] = eps_hist_[b].load(std::memory_order_relaxed);
  }
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.submitted = submitted_.load(std::memory_order_relaxed);
  if (cache_ != nullptr) {
    const ProximityCacheStats cache = cache_->Stats();
    out.cache_hits = cache.hits;
    out.cache_misses = cache.misses;
  }
  return out;
}

}  // namespace s3::server
