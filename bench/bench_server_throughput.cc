// Service-level throughput benchmark: one shared snapshot, a
// QueryService worker pool, and a repeated common-keyword query trace
// (the paper's I1-style hot-keyword traffic). Sweeps worker count ×
// proximity-cache on/off and reports QPS + latency percentiles per
// configuration, writing BENCH_server.json.
//
// Expected shape:
//  - QPS grows with workers (bounded by the machine's core count —
//    on a 1-core runner the sweep mostly measures scheduling overhead);
//  - cache:on beats cache:off at every worker count on this trace,
//    because repeated keyword sets skip candidate construction.
//
// Environment overrides:
//   S3_BENCH_QUERIES   queries-per-workload base; the trace is 8x this
//   S3_BENCH_SCALE     instance scale multiplier (default 1.0)
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "eval/runtime.h"
#include "obs/metrics.h"
#include "server/query_service.h"
#include "workload/microblog_gen.h"
#include "workload/query_gen.h"

namespace {

using namespace s3;

// A hot-query trace: `distinct` common-keyword queries, repeated and
// shuffled to `length` — the dominant-case traffic the proximity cache
// targets (paper I1/I2 common-keyword mixes).
std::vector<core::Query> MakeHotTrace(const core::S3Instance& inst,
                                      const std::vector<KeywordId>& anchors,
                                      size_t distinct, size_t length) {
  workload::WorkloadSpec spec;
  spec.freq = workload::Frequency::kCommon;
  spec.n_keywords = 2;
  spec.k = 10;
  spec.n_queries = distinct;
  spec.seed = 4242;
  workload::QuerySet qs = workload::BuildWorkload(inst, anchors, spec);

  Rng rng(777);
  std::vector<core::Query> trace;
  trace.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    trace.push_back(qs.queries[rng.Uniform(qs.queries.size())]);
  }
  return trace;
}

struct RunResult {
  double seconds = 0.0;
  bench::LatencySummary latency;
  double hit_rate = 0.0;
  server::QueryServiceStats stats;
};

RunResult RunTrace(std::shared_ptr<const core::S3Instance> snapshot,
                   const std::vector<core::Query>& trace, unsigned workers,
                   bool cache_on, size_t k, size_t batch_window = 0,
                   double epsilon = 0.0) {
  server::QueryServiceOptions opts;
  opts.workers = workers;
  opts.queue_capacity = 64;
  opts.enable_cache = cache_on;
  opts.search.k = k;
  opts.batch_window = batch_window;
  server::QueryService service(snapshot, opts);

  core::QueryOptions qopts;
  if (epsilon > 0.0) {
    qopts.mode = core::QueryMode::kAnytime;
    qopts.epsilon_approx = epsilon;
  }

  WallTimer timer;
  std::vector<server::QueryFuture> futures;
  futures.reserve(trace.size());
  for (const core::Query& q : trace) {
    auto submitted = service.SubmitBlocking(
        core::QueryRequest(q.seeker, q.keywords, qopts));
    if (submitted.ok()) futures.push_back(std::move(*submitted));
  }
  size_t failed = 0;
  std::vector<double> latencies;
  latencies.reserve(futures.size());
  for (auto& f : futures) {
    auto resp = f.get();
    if (resp.ok()) {
      latencies.push_back(resp->total_seconds);
    } else {
      ++failed;
    }
  }
  RunResult out;
  out.seconds = timer.ElapsedSeconds();
  out.latency = bench::SummarizeLatency(latencies, out.seconds);
  if (cache_on) out.hit_rate = service.cache()->Stats().HitRate();
  out.stats = service.Stats();
  if (failed > 0) {
    std::fprintf(stderr, "WARNING: %zu queries failed\n", failed);
  }
  return out;
}

}  // namespace

int main() {
  // Starts BENCH_server.json fresh; bench_update_throughput, run
  // *after* this binary, merges its records in. Running the pair in
  // that order therefore never carries over records from earlier runs
  // (renamed configs, different S3_BENCH_SCALE) into a file someone
  // might promote to the committed baseline.
  bench::BenchJsonWriter json("BENCH_server.json");

  std::printf("== server throughput: worker sweep x proximity cache ==\n");
  workload::MicroblogParams p;
  p.seed = 777;
  p.n_users = bench::Scaled(2000);
  p.n_tweets = bench::Scaled(8000);
  p.vocab_size = bench::Scaled(4000);
  p.n_hashtags = bench::Scaled(200);
  workload::GenResult gen = workload::GenerateMicroblog(p);
  std::shared_ptr<const core::S3Instance> snapshot = std::move(gen.instance);

  const size_t trace_len =
      std::max<size_t>(8 * bench::QueriesPerWorkload(), 64);
  const size_t distinct = std::max<size_t>(trace_len / 8, 8);
  auto trace = MakeHotTrace(*snapshot, gen.semantic_anchors, distinct,
                            trace_len);
  std::printf(
      "instance: %s — users=%zu docs=%zu; trace: %zu queries over %zu "
      "distinct keyword sets\n\n",
      gen.name.c_str(), snapshot->UserCount(),
      snapshot->docs().DocumentCount(), trace.size(), distinct);

  eval::TablePrinter table({"workers", "cache", "QPS", "speedup-vs-1w",
                            "p50 ms", "p99 ms", "hit rate"});
  double qps_1w_on = 0.0, qps_1w_off = 0.0;
  for (bool cache_on : {false, true}) {
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
      RunResult r = RunTrace(snapshot, trace, workers, cache_on, 10);
      const double qps = r.latency.qps;
      double& qps_1w = cache_on ? qps_1w_on : qps_1w_off;
      if (workers == 1) qps_1w = qps;
      char qps_s[32], spd[32], p50[32], p99[32], hit[32];
      std::snprintf(qps_s, sizeof(qps_s), "%.1f", qps);
      std::snprintf(spd, sizeof(spd), "%.2fx",
                    qps_1w > 0 ? qps / qps_1w : 0.0);
      std::snprintf(p50, sizeof(p50), "%.2f", r.latency.p50_ms);
      std::snprintf(p99, sizeof(p99), "%.2f", r.latency.p99_ms);
      std::snprintf(hit, sizeof(hit), "%.1f%%", r.hit_rate * 100.0);
      table.AddRow({std::to_string(workers), cache_on ? "on" : "off",
                    qps_s, spd, p50, p99, cache_on ? hit : "-"});
      std::printf("workers=%u cache=%s: %s\n", workers,
                  cache_on ? "on" : "off",
                  server::FormatStats(r.stats).c_str());

      char extra[256];
      std::snprintf(
          extra, sizeof(extra),
          "\"workers\": %u, \"cache\": %s, \"qps\": %.1f, "
          "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"hit_rate\": %.3f",
          workers, cache_on ? "true" : "false", qps, r.latency.p50_ms,
          r.latency.p99_ms, r.hit_rate);
      std::string name = "server_throughput/workers:" +
                         std::to_string(workers) +
                         (cache_on ? "/cache:on" : "/cache:off");
      json.Add(name, r.seconds * 1e9 / trace.size(), extra);
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "expected shape: QPS scales with workers up to the core count; "
      "cache:on wins\non the repeated common-keyword trace (hit rate "
      "-> (1 - distinct/trace) at steady state).\n");

  // Batched execution: same hot trace through a batching service
  // (workers deliberately few, so the queue backs up and same-plan
  // runs form). The counter line now carries batched=N/M (width avg);
  // the BENCH record tracks the amortization across PRs.
  std::printf("\n== batched execution (batch_window sweep, cache on) ==\n");
  for (size_t window : {4u, 8u}) {
    RunResult r = RunTrace(snapshot, trace, /*workers=*/2,
                           /*cache_on=*/true, 10, window);
    std::printf("batch_window=%zu: qps=%.1f %s\n", window, r.latency.qps,
                server::FormatStats(r.stats).c_str());
    char extra[256];
    std::snprintf(extra, sizeof(extra),
                  "\"batch_window\": %zu, \"qps\": %.1f, "
                  "\"batched_queries\": %llu, \"batches\": %llu, "
                  "\"mean_width\": %.2f",
                  window, r.latency.qps,
                  static_cast<unsigned long long>(r.stats.batched_queries),
                  static_cast<unsigned long long>(
                      r.stats.batches_executed),
                  r.stats.MeanBatchWidth());
    json.Add("server_throughput/batch_window:" + std::to_string(window),
             r.seconds * 1e9 / trace.size(), extra);
  }

  // Anytime serving: the same hot trace submitted as kAnytime
  // QueryRequests across an epsilon sweep (eps=0 is the exact path —
  // the latency baseline). The counter line carries the certified-
  // epsilon histogram, so the printed output doubles as a check that
  // achieved certificates stay under the requested slack; the BENCH
  // records track the p99-vs-epsilon trade across PRs.
  std::printf("\n== anytime serving (epsilon sweep, cache on) ==\n");
  for (double eps : {0.0, 0.01, 0.1}) {
    RunResult r = RunTrace(snapshot, trace, /*workers=*/2,
                           /*cache_on=*/true, 10, /*batch_window=*/0, eps);
    std::printf("eps=%.2f: qps=%.1f p50=%.2fms p99=%.2fms %s\n", eps,
                r.latency.qps, r.latency.p50_ms, r.latency.p99_ms,
                server::FormatStats(r.stats).c_str());
    char extra[256];
    std::snprintf(extra, sizeof(extra),
                  "\"epsilon\": %.3f, \"qps\": %.1f, \"p50_ms\": %.3f, "
                  "\"p99_ms\": %.3f",
                  eps, r.latency.qps, r.latency.p50_ms, r.latency.p99_ms);
    json.Add("server_throughput/anytime_eps:" + std::to_string(
                 static_cast<int>(eps * 1000)),
             r.seconds * 1e9 / trace.size(), extra);
  }

  // Every QueryService above registered into the default registry, so
  // it now holds the full serving-metric catalog with real samples.
  // Dump it as Prometheus text: CI diffs the series catalog against
  // the committed baseline (tools/s3_metrics_diff.py, advisory).
  const std::string prom = obs::MetricRegistry::Default().RenderPrometheus();
  if (!prom.empty()) {
    if (std::FILE* f = std::fopen("BENCH_server_metrics.prom", "w")) {
      std::fputs(prom.c_str(), f);
      std::fclose(f);
      std::printf("\nwrote BENCH_server_metrics.prom (%zu bytes)\n",
                  prom.size());
    }
  }
  return 0;
}
