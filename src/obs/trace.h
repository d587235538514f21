// Per-query tracing: span timelines (queue-wait → plan → search →
// merge → reply) with the engine's per-iteration bound-refinement
// records attached, a sampling policy (1-in-N detailed traces, plus
// every completion checked against a slow-query threshold), a ring
// buffer of recent sampled traces, and a slow-query log.
//
// Cost model: the scalar span timings already exist on the serving
// path (QueryResponse carries queue/total seconds), so the always-on
// part of tracing is a handful of comparisons. A QueryTrace object —
// the only thing that allocates — is built ONLY when ShouldSample()
// said yes before the query ran; sampled-out queries allocate nothing.
// Slow-log entries are built at completion from the scalars, so
// "always log if slow" needs no upfront allocation either.
#ifndef S3_OBS_TRACE_H_
#define S3_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace s3::obs {

// One engine iteration of one query, recorded by
// S3kSearcher::SearchWithPlan when the request's trace flag is set.
// Mirrors the quantities the paper's bound-refinement loop actually
// steers by: how wide the propagation frontier is, and how far apart
// the k-th lower bound and the residual upper bound still are.
struct IterationTraceRecord {
  uint32_t iteration = 0;        // 1-based engine iteration
  uint32_t frontier_size = 0;    // nonzero rows of the frontier
  uint32_t alive_candidates = 0; // undecided candidates
  double kth_lower = 0.0;        // k-th best certified lower bound
  double remaining_upper = 0.0;  // best upper bound among undecided
};

// One timed phase of a query. Spans form a tree by depth: depth-0
// spans partition the query's wall time, deeper spans nest inside the
// preceding shallower one (enough structure for a text renderer
// without parent pointers).
struct TraceSpan {
  std::string name;
  double start_seconds = 0.0;     // offset from query admission
  double duration_seconds = 0.0;
  int depth = 0;
};

// A sampled query's full story.
struct QueryTrace {
  uint64_t id = 0;            // service-assigned, monotonic
  std::string label;          // seeker/keyword summary for humans
  uint64_t generation = 0;    // snapshot generation served
  bool cache_hit = false;
  bool deadline_exceeded = false;
  double certified_epsilon = 0.0;
  double total_seconds = 0.0;
  std::vector<TraceSpan> spans;
  std::vector<IterationTraceRecord> iterations;
};

struct SlowQueryEntry {
  uint64_t id = 0;
  std::string label;
  uint64_t generation = 0;
  bool cache_hit = false;
  bool deadline_exceeded = false;
  double certified_epsilon = 0.0;
  double queue_seconds = 0.0;
  double exec_seconds = 0.0;
  double total_seconds = 0.0;
};

struct TraceOptions {
  // Detailed (allocation-bearing) traces are taken for 1 query in
  // `sample_every`; 0 disables sampling entirely, 1 traces everything.
  uint32_t sample_every = 64;
  // Completions at or above this land in the slow-query log
  // regardless of sampling; <= 0 disables the slow log.
  double slow_query_seconds = 0.250;
  size_t ring_capacity = 64;      // recent sampled traces retained
  size_t slow_log_capacity = 128; // recent slow queries retained
};

// Human-oriented renderers (shared by s3_shell :trace and tests).
std::string FormatTrace(const QueryTrace& trace);
std::string FormatSlowEntry(const SlowQueryEntry& entry);

// Owns the sampling decision, the ring of recent traces, and the
// slow-query log. One collector per QueryService; thread-safe.
class TraceCollector {
 public:
  explicit TraceCollector(TraceOptions options = {});

  const TraceOptions& options() const { return options_; }

  // Pre-execution sampling decision. Cheap (one relaxed fetch_add);
  // callers build a QueryTrace only on true.
  bool ShouldSample();

  // Stores a completed sampled trace in the ring.
  void Record(QueryTrace&& trace);

  // Always-on completion hook: checks the slow threshold and, if
  // crossed, materializes `entry()` into the slow log. The entry is
  // built lazily by the caller-supplied scalars so the fast path pays
  // only the comparison.
  template <typename EntryFn>
  void NoteCompletion(double total_seconds, EntryFn&& entry) {
    if (options_.slow_query_seconds <= 0.0 ||
        total_seconds < options_.slow_query_seconds) {
      return;
    }
    slow_queries_.fetch_add(1, std::memory_order_relaxed);
    AppendSlow(entry());
  }

  std::vector<QueryTrace> RecentTraces() const;
  std::vector<SlowQueryEntry> SlowLog() const;
  uint64_t sampled_total() const {
    return sampled_.load(std::memory_order_relaxed);
  }
  uint64_t slow_total() const {
    return slow_queries_.load(std::memory_order_relaxed);
  }

 private:
  void AppendSlow(SlowQueryEntry entry);

  const TraceOptions options_;
  std::atomic<uint64_t> ticket_{0};
  std::atomic<uint64_t> sampled_{0};
  std::atomic<uint64_t> slow_queries_{0};
  mutable std::mutex mu_;
  std::deque<QueryTrace> ring_;
  std::deque<SlowQueryEntry> slow_log_;
};

}  // namespace s3::obs

#endif  // S3_OBS_TRACE_H_
