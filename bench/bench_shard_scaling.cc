// Sharded serving benchmark: the common-keyword hot trace of
// bench_server_throughput, driven through a ShardRouter at shard
// counts {1, 2, 4}. Reports QPS and latency percentiles per shard
// count and writes BENCH_shard.json for the (non-blocking) CI
// bench-regression step.
//
// Expected shape:
//  - QPS grows with shard count while cores are available: seekers
//    hash across shards, so routed queries spread over N independent
//    worker pools and N plan caches;
//  - shards=1 approximates the unsharded service (one extra id-map
//    hop), so large regressions of shards=1 vs BENCH_server.json's
//    equivalent worker count indicate router overhead, not engine
//    drift.
//
// Environment overrides:
//   S3_BENCH_QUERIES   queries-per-workload base; the trace is 8x this
//   S3_BENCH_SCALE     instance scale multiplier (default 1.0)
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "eval/runtime.h"
#include "obs/metrics.h"
#include "shard/partitioner.h"
#include "shard/shard_router.h"
#include "workload/microblog_gen.h"
#include "workload/query_gen.h"

namespace {

using namespace s3;

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
  server::QueryServiceStats stats;  // summed over shards
};

RunResult RunTrace(shard::ShardRouter& router,
                   const std::vector<core::Query>& trace,
                   unsigned client_threads) {
  // One latency list per client thread, concatenated after the join.
  std::vector<std::vector<double>> per_client(client_threads);
  std::vector<std::thread> clients;
  clients.reserve(client_threads);
  WallTimer timer;
  for (unsigned t = 0; t < client_threads; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = t; i < trace.size(); i += client_threads) {
        WallTimer per_query;
        auto resp = router.Query(trace[i]);
        if (resp.ok()) per_client[t].push_back(per_query.ElapsedSeconds());
      }
    });
  }
  for (auto& c : clients) c.join();

  RunResult out;
  out.seconds = timer.ElapsedSeconds();
  std::vector<double> latencies;
  for (const auto& l : per_client) {
    latencies.insert(latencies.end(), l.begin(), l.end());
  }
  out.latency = bench::SummarizeLatency(latencies, out.seconds);
  for (uint32_t s = 0; s < router.shard_count(); ++s) {
    const server::QueryServiceStats st = router.service(s).Stats();
    out.stats.rejected += st.rejected;
    out.stats.cache_hits += st.cache_hits;
    out.stats.cache_misses += st.cache_misses;
  }
  return out;
}

}  // namespace

int main() {
  bench::BenchJsonWriter json("BENCH_shard.json");

  std::printf("== sharded serving: shard-count sweep on the hot trace ==\n");
  workload::MicroblogParams p;
  p.seed = 777;
  p.n_users = bench::Scaled(2000);
  p.n_tweets = bench::Scaled(8000);
  p.vocab_size = bench::Scaled(4000);
  p.n_hashtags = bench::Scaled(200);
  workload::GenResult gen = workload::GenerateMicroblog(p);
  std::shared_ptr<const core::S3Instance> full = std::move(gen.instance);

  const size_t trace_len =
      std::max<size_t>(8 * bench::QueriesPerWorkload(), 64);
  const size_t distinct = std::max<size_t>(trace_len / 8, 8);
  auto trace =
      MakeHotTrace(*full, gen.semantic_anchors, distinct, trace_len);
  const unsigned client_threads = 8;
  std::printf(
      "instance: %s — users=%zu docs=%zu; trace: %zu queries over %zu "
      "distinct keyword sets, %u client threads\n\n",
      gen.name.c_str(), full->UserCount(), full->docs().DocumentCount(),
      trace.size(), distinct, client_threads);

  eval::TablePrinter table({"shards", "QPS", "speedup-vs-1", "p50 ms",
                            "p99 ms", "hit rate", "boundary"});
  double qps_1 = 0.0;
  for (uint32_t n_shards : {1u, 2u, 4u}) {
    shard::PartitionOptions popts;
    popts.shard_count = n_shards;
    auto partition = shard::Partition(*full, popts);
    if (!partition.ok()) {
      std::fprintf(stderr, "partition failed: %s\n",
                   partition.status().ToString().c_str());
      return 1;
    }
    const uint64_t boundary = partition->boundary_social_edges;

    shard::ShardRouterOptions ropts;
    ropts.service.workers = 2;  // per shard
    ropts.service.queue_capacity = 256;
    ropts.service.search.k = 10;
    auto router = shard::ShardRouter::Serve(std::move(*partition), ropts);
    if (!router.ok()) {
      std::fprintf(stderr, "router failed: %s\n",
                   router.status().ToString().c_str());
      return 1;
    }

    RunResult r = RunTrace(**router, trace, client_threads);
    const double qps = r.latency.qps;
    if (n_shards == 1) qps_1 = qps;

    char qps_s[32], spd[32], p50[32], p99[32], hit[32], bnd[32];
    std::snprintf(qps_s, sizeof(qps_s), "%.1f", qps);
    std::snprintf(spd, sizeof(spd), "%.2fx", qps_1 > 0 ? qps / qps_1 : 0.0);
    std::snprintf(p50, sizeof(p50), "%.2f", r.latency.p50_ms);
    std::snprintf(p99, sizeof(p99), "%.2f", r.latency.p99_ms);
    std::snprintf(hit, sizeof(hit), "%.1f%%",
                  r.stats.CacheHitRate() * 100.0);
    std::snprintf(bnd, sizeof(bnd), "%llu",
                  static_cast<unsigned long long>(boundary));
    table.AddRow({std::to_string(n_shards), qps_s, spd, p50, p99, hit, bnd});
    std::printf("shards=%u: %s | %s\n", n_shards,
                bench::FormatLatency(r.latency).c_str(),
                server::FormatStats(r.stats).c_str());

    char extra[256];
    std::snprintf(extra, sizeof(extra),
                  "\"shards\": %u, \"qps\": %.1f, \"p50_ms\": %.3f, "
                  "\"p99_ms\": %.3f, \"hit_rate\": %.3f, "
                  "\"boundary_edges\": %llu",
                  n_shards, qps, r.latency.p50_ms, r.latency.p99_ms,
                  r.stats.CacheHitRate(),
                  static_cast<unsigned long long>(boundary));
    json.Add("shard_scaling/shards:" + std::to_string(n_shards),
             r.seconds * 1e9 / trace.size(), extra);
  }
  std::printf("\n%s\n", table.Render().c_str());
  std::printf(
      "expected shape: QPS grows with shards while cores last (per-shard "
      "pools and caches\nare independent); shards=1 tracks the unsharded "
      "service modulo one id-map hop.\n");

  // Per-shard-service metric catalog ({service="shardN"} series) for
  // the CI metrics diff.
  const std::string prom = obs::MetricRegistry::Default().RenderPrometheus();
  if (!prom.empty()) {
    if (std::FILE* f = std::fopen("BENCH_shard_metrics.prom", "w")) {
      std::fputs(prom.c_str(), f);
      std::fclose(f);
      std::printf("wrote BENCH_shard_metrics.prom (%zu bytes)\n",
                  prom.size());
    }
  }
  return 0;
}
