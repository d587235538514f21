// In-memory span log for the traced benchmark run.
//
// The benchmark records a span around every public call it makes into
// the system (QueryService::Submit, SwapSnapshot, SnapshotManager::
// LogAndApply, RecoverAndServe, BuildCandidatePlan, ApplyDelta, ...).
// Spans the program times itself and returns (QueryResponse queue /
// exec time, SearchStats::elapsed_seconds) are added as child spans of
// the request that carried them. Each recording thread owns one
// SpanLog, so recording takes no lock; logs are merged and written out
// when the run ends.
#ifndef S3PERF_SPANS_H_
#define S3PERF_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace s3perf {

using Clock = std::chrono::steady_clock;

inline int64_t Nanos(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

struct Span {
  const char* name;    // "<layer>.<call>", a string literal
  uint64_t trace_id;   // spans of one request/update share it
  int32_t parent;      // index into the same log; -1 for a root
  int64_t start_ns;
  int64_t end_ns;
};

class SpanLog {
 public:
  explicit SpanLog(std::string thread_name) : thread_(std::move(thread_name)) {}

  // Records [start, end) and returns its index (for children).
  int32_t Add(const char* name, uint64_t trace_id, int32_t parent,
              int64_t start_ns, int64_t end_ns) {
    spans_.push_back({name, trace_id, parent, start_ns, end_ns});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::string& thread() const { return thread_; }

 private:
  std::string thread_;
  std::vector<Span> spans_;
};

// Self time of every span: its duration minus the part of it that its
// children cover (children may overlap each other; the union counts).
inline std::vector<int64_t> SelfTimes(const SpanLog& log) {
  const std::vector<Span>& s = log.spans();
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(s.size());
  for (const Span& c : s) {
    if (c.parent >= 0) kids[c.parent].push_back({c.start_ns, c.end_ns});
  }
  std::vector<int64_t> self(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::clamp(lo, s[i].start_ns, s[i].end_ns);
      hi = std::clamp(hi, s[i].start_ns, s[i].end_ns);
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (s[i].end_ns - s[i].start_ns) - covered;
  }
  return self;
}

// Per span name: call count, total duration and total self time (ns).
struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

inline std::map<std::string, SpanTotals> Summarize(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanTotals> out;
  for (const SpanLog* log : logs) {
    const std::vector<int64_t> self = SelfTimes(*log);
    for (size_t i = 0; i < log->spans().size(); ++i) {
      const Span& sp = log->spans()[i];
      SpanTotals& t = out[sp.name];
      ++t.count;
      t.total_ns += sp.end_ns - sp.start_ns;
      t.self_ns += self[i];
    }
  }
  return out;
}

// One JSON object per line; times in microseconds from `origin_ns`.
inline bool WriteSpans(const std::string& path,
                       const std::vector<const SpanLog*>& logs,
                       int64_t origin_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanLog* log : logs) {
    const std::vector<int64_t> self = SelfTimes(*log);
    for (size_t i = 0; i < log->spans().size(); ++i) {
      const Span& sp = log->spans()[i];
      std::fprintf(f,
                   "{\"thread\":\"%s\",\"id\":%zu,\"parent\":%d,"
                   "\"trace\":%llu,\"name\":\"%s\",\"start_us\":%.3f,"
                   "\"dur_us\":%.3f,\"self_us\":%.3f}\n",
                   log->thread().c_str(), i, sp.parent,
                   static_cast<unsigned long long>(sp.trace_id), sp.name,
                   (sp.start_ns - origin_ns) / 1e3,
                   (sp.end_ns - sp.start_ns) / 1e3, self[i] / 1e3);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace s3perf

#endif  // S3PERF_SPANS_H_
