#include "obs/trace.h"

#include <cstdio>

namespace s3::obs {

namespace {

std::string Seconds(double s) {
  char buf[32];
  if (s >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.3fs", s);
  } else if (s >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.3fms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fus", s * 1e6);
  }
  return buf;
}

}  // namespace

std::string FormatTrace(const QueryTrace& trace) {
  std::string out;
  char head[256];
  std::snprintf(head, sizeof(head),
                "trace #%llu [%s] gen=%llu total=%s%s%s",
                static_cast<unsigned long long>(trace.id),
                trace.label.c_str(),
                static_cast<unsigned long long>(trace.generation),
                Seconds(trace.total_seconds).c_str(),
                trace.cache_hit ? " cache-hit" : "",
                trace.deadline_exceeded ? " DEADLINE" : "");
  out += head;
  if (trace.certified_epsilon > 0.0) {
    char eps[48];
    std::snprintf(eps, sizeof(eps), " eps=%.2e", trace.certified_epsilon);
    out += eps;
  }
  out += "\n";
  for (const TraceSpan& span : trace.spans) {
    out.append(2 + static_cast<size_t>(span.depth) * 2, ' ');
    out += span.name + " +" + Seconds(span.start_seconds) + " (" +
           Seconds(span.duration_seconds) + ")\n";
  }
  for (const IterationTraceRecord& it : trace.iterations) {
    char line[192];
    std::snprintf(line, sizeof(line),
                  "    iter %2u: frontier=%u alive=%u kth_lower=%.6g "
                  "remaining_upper=%.6g\n",
                  it.iteration, it.frontier_size, it.alive_candidates,
                  it.kth_lower, it.remaining_upper);
    out += line;
  }
  return out;
}

std::string FormatSlowEntry(const SlowQueryEntry& entry) {
  char line[320];
  std::snprintf(line, sizeof(line),
                "slow #%llu [%s] gen=%llu queue=%s exec=%s total=%s%s%s",
                static_cast<unsigned long long>(entry.id),
                entry.label.c_str(),
                static_cast<unsigned long long>(entry.generation),
                Seconds(entry.queue_seconds).c_str(),
                Seconds(entry.exec_seconds).c_str(),
                Seconds(entry.total_seconds).c_str(),
                entry.cache_hit ? " cache-hit" : "",
                entry.deadline_exceeded ? " DEADLINE" : "");
  std::string out = line;
  if (entry.certified_epsilon > 0.0) {
    char eps[48];
    std::snprintf(eps, sizeof(eps), " eps=%.2e", entry.certified_epsilon);
    out += eps;
  }
  return out;
}

TraceCollector::TraceCollector(TraceOptions options) : options_(options) {}

bool TraceCollector::ShouldSample() {
  if (options_.sample_every == 0) return false;
  const uint64_t ticket = ticket_.fetch_add(1, std::memory_order_relaxed);
  if (ticket % options_.sample_every != 0) return false;
  sampled_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void TraceCollector::Record(QueryTrace&& trace) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.push_back(std::move(trace));
  while (ring_.size() > options_.ring_capacity) ring_.pop_front();
}

void TraceCollector::AppendSlow(SlowQueryEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  slow_log_.push_back(std::move(entry));
  while (slow_log_.size() > options_.slow_log_capacity) slow_log_.pop_front();
}

std::vector<QueryTrace> TraceCollector::RecentTraces() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {ring_.begin(), ring_.end()};
}

std::vector<SlowQueryEntry> TraceCollector::SlowLog() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {slow_log_.begin(), slow_log_.end()};
}

}  // namespace s3::obs
