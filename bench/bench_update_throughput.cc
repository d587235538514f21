// Mixed update/query workload benchmark for the live-update pipeline:
// one QueryService serving a hot common-keyword trace while an updater
// thread builds InstanceDeltas (new tweets, tags, social edges),
// applies them copy-on-write (ApplyDelta) and hot-swaps the resulting
// generations into the service (SwapSnapshot). Sweeps the pacing of
// the update stream and reports query QPS, applied updates/sec and
// apply+swap latency per configuration, merging records into
// BENCH_server.json alongside bench_server_throughput.
//
// Expected shape:
//  - queries keep flowing at every update rate (reads never block on
//    writes — the whole point of the snapshot pipeline);
//  - query QPS dips only modestly as the update rate grows: ApplyDelta
//    *recomputes* only the delta's touched rows (everything else is
//    spliced or shared), leaving a linear-but-memcpy-speed copy of the
//    index spines per apply, and one core is spent building snapshots;
//  - apply latency stays flat across generations (structural sharing:
//    each delta re-derives only its own touches, not history — the
//    per-apply copy grows only as fast as the instance itself does).
//
// Environment overrides:
//   S3_BENCH_QUERIES   queries-per-workload base; the trace is 8x this
//   S3_BENCH_SCALE     instance scale multiplier (default 1.0)
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/timer.h"
#include "core/instance_delta.h"
#include "eval/runtime.h"
#include "obs/metrics.h"
#include "server/query_service.h"
#include "server/snapshot_manager.h"
#include "workload/microblog_gen.h"
#include "workload/query_gen.h"

namespace {

using namespace s3;

// A hot-query trace (same construction as bench_server_throughput).
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

// One delta: a burst of tweets (1-2 nodes, keywords sampled from the
// live vocabulary), a few tags and social edges — the paper's
// continuously-arriving microblog traffic.
core::InstanceDelta MakeDelta(std::shared_ptr<const core::S3Instance> snap,
                              Rng& rng, uint64_t serial) {
  core::InstanceDelta delta(std::move(snap));
  const core::S3Instance& base = *delta.base();
  const uint32_t n_users = static_cast<uint32_t>(base.UserCount());
  const uint32_t n_keywords =
      static_cast<uint32_t>(base.vocabulary().size());
  const uint32_t n_nodes = static_cast<uint32_t>(base.docs().NodeCount());

  for (int i = 0; i < 8; ++i) {
    doc::Document d("tweet");
    d.AddKeywords(0, {static_cast<KeywordId>(rng.Uniform(n_keywords)),
                      static_cast<KeywordId>(rng.Uniform(n_keywords))});
    if (rng.Chance(0.4)) {
      uint32_t child = d.AddChild(0, "text");
      d.AddKeywords(child, {delta.InternKeyword(
                               "live" + std::to_string(serial * 100 + i))});
    }
    auto id = delta.AddDocument(
        std::move(d), "live" + std::to_string(serial) + "_" +
                          std::to_string(i),
        static_cast<social::UserId>(rng.Uniform(n_users)));
    if (id.ok() && rng.Chance(0.5)) {
      (void)delta.AddComment(*id, static_cast<doc::NodeId>(
                                      rng.Uniform(n_nodes)));
    }
  }
  for (int t = 0; t < 4; ++t) {
    (void)delta.AddTagOnFragment(
        static_cast<social::UserId>(rng.Uniform(n_users)),
        static_cast<doc::NodeId>(rng.Uniform(n_nodes)),
        static_cast<KeywordId>(rng.Uniform(n_keywords)));
  }
  for (int e = 0; e < 4; ++e) {
    (void)delta.AddSocialEdge(
        static_cast<social::UserId>(rng.Uniform(n_users)),
        static_cast<social::UserId>(rng.Uniform(n_users)),
        0.2 + 0.7 * rng.NextDouble());
  }
  return delta;
}

struct MixedRunResult {
  double seconds = 0.0;
  bench::LatencySummary query_latency;
  size_t updates_applied = 0;
  double update_mean_ms = 0.0;
  double update_p99_ms = 0.0;
  double hit_rate = 0.0;
  uint64_t final_generation = 0;
  // Generation-freshness lag (SnapshotManager::FreshnessLagSeconds),
  // sampled just before each publish — the lag's per-cycle maximum.
  double freshness_mean_ms = 0.0;
  double freshness_p99_ms = 0.0;
};

// Runs the full trace through the service while the updater applies
// deltas paced at `update_interval_ms` (0 = no updates; < 0 = apply
// back-to-back).
MixedRunResult RunMixed(std::shared_ptr<const core::S3Instance> snapshot,
                        const std::vector<core::Query>& trace,
                        unsigned workers, double update_interval_ms,
                        const char* label) {
  server::QueryServiceOptions opts;
  opts.workers = workers;
  opts.queue_capacity = 64;
  opts.enable_cache = true;
  opts.search.k = 10;
  server::QueryService service(snapshot, opts);

  // Updates go through the durable path — WAL append + ApplyDelta +
  // publish inside SnapshotManager::LogAndApply — so the bench
  // exercises (and its freshness numbers come from) the same pipeline
  // a server runs, not a bare in-memory ApplyDelta.
  std::unique_ptr<server::SnapshotManager> manager;
  const std::string wal_dir =
      std::string("bench_update_wal_") + label;
  if (update_interval_ms != 0.0) {
    std::error_code ec;
    std::filesystem::remove_all(wal_dir, ec);
    server::SnapshotManagerOptions sopts;
    sopts.dir = wal_dir;
    auto opened = server::SnapshotManager::Open(sopts);
    if (!opened.ok() || !(*opened)->Initialize(snapshot).ok()) {
      std::fprintf(stderr, "SnapshotManager setup failed in %s\n",
                   wal_dir.c_str());
      return {};
    }
    manager = std::move(*opened);
  }

  std::atomic<bool> stop{false};
  std::vector<double> update_seconds;
  std::vector<double> lag_seconds;
  std::thread updater;
  if (update_interval_ms != 0.0) {
    updater = std::thread([&] {
      Rng rng(4321);
      uint64_t serial = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto cur = manager->current();
        WallTimer t;
        core::InstanceDelta delta = MakeDelta(cur, rng, serial++);
        lag_seconds.push_back(manager->FreshnessLagSeconds());
        auto next = manager->LogAndApply(delta);
        if (!next.ok()) {
          std::fprintf(stderr, "LogAndApply failed: %s\n",
                       next.status().message().c_str());
          return;
        }
        if (!service.SwapSnapshot(*next).ok()) return;
        update_seconds.push_back(t.ElapsedSeconds());
        if (update_interval_ms > 0.0) {
          std::this_thread::sleep_for(std::chrono::microseconds(
              static_cast<long>(update_interval_ms * 1000)));
        }
      }
    });
  }

  WallTimer timer;
  std::vector<server::QueryFuture> futures;
  futures.reserve(trace.size());
  for (const core::Query& q : trace) {
    auto submitted = service.SubmitBlocking(q);
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
  MixedRunResult out;
  out.seconds = timer.ElapsedSeconds();
  stop.store(true, std::memory_order_release);
  if (updater.joinable()) updater.join();

  out.query_latency = bench::SummarizeLatency(latencies, out.seconds);
  out.updates_applied = update_seconds.size();
  out.update_mean_ms = Mean(update_seconds) * 1e3;
  out.update_p99_ms = Quantile(update_seconds, 0.99) * 1e3;
  out.hit_rate = service.cache()->Stats().HitRate();
  out.final_generation = service.snapshot()->generation();
  out.freshness_mean_ms = Mean(lag_seconds) * 1e3;
  out.freshness_p99_ms = Quantile(lag_seconds, 0.99) * 1e3;
  if (failed > 0) {
    std::fprintf(stderr, "WARNING: %zu queries failed\n", failed);
  }
  manager.reset();
  std::error_code ec;
  std::filesystem::remove_all(wal_dir, ec);
  return out;
}

}  // namespace

int main() {
  // merge: bench_server_throughput contributes to the same file.
  bench::BenchJsonWriter json("BENCH_server.json", /*merge=*/true);

  std::printf("== update throughput: live deltas x hot query trace ==\n");
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
      "distinct keyword sets; 8 docs + 4 tags + 4 edges per delta\n\n",
      gen.name.c_str(), snapshot->UserCount(),
      snapshot->docs().DocumentCount(), trace.size(), distinct);

  struct Config {
    const char* label;
    double interval_ms;
  };
  const Config configs[] = {
      {"none", 0.0},        // read-only baseline
      {"paced20ms", 20.0},  // steady update stream
      {"burst", -1.0},      // back-to-back: update-side saturation
  };

  eval::TablePrinter table({"updates", "QPS", "p50 ms", "p99 ms",
                            "upd/s", "apply ms", "lag ms", "gen",
                            "hit rate"});
  for (const Config& cfg : configs) {
    MixedRunResult r = RunMixed(snapshot, trace, /*workers=*/4,
                                cfg.interval_ms, cfg.label);
    const double qps = r.query_latency.qps;
    const double upd_per_sec =
        r.seconds > 0 ? r.updates_applied / r.seconds : 0.0;
    char qps_s[32], p50[32], p99[32], ups[32], apply[32], lag[32], hit[32];
    std::snprintf(qps_s, sizeof(qps_s), "%.1f", qps);
    std::snprintf(p50, sizeof(p50), "%.2f", r.query_latency.p50_ms);
    std::snprintf(p99, sizeof(p99), "%.2f", r.query_latency.p99_ms);
    std::snprintf(ups, sizeof(ups), "%.1f", upd_per_sec);
    std::snprintf(apply, sizeof(apply), "%.2f", r.update_mean_ms);
    std::snprintf(lag, sizeof(lag), "%.2f", r.freshness_mean_ms);
    std::snprintf(hit, sizeof(hit), "%.1f%%", r.hit_rate * 100.0);
    table.AddRow({cfg.label, qps_s, p50, p99, ups, apply,
                  cfg.interval_ms != 0.0 ? lag : "-",
                  std::to_string(r.final_generation), hit});

    char extra[320];
    std::snprintf(
        extra, sizeof(extra),
        "\"qps\": %.1f, \"p99_ms\": %.3f, \"updates_per_sec\": %.1f, "
        "\"apply_mean_ms\": %.3f, \"generations\": %llu, "
        "\"hit_rate\": %.3f, \"freshness_lag_ms\": %.3f, "
        "\"freshness_lag_p99_ms\": %.3f",
        qps, r.query_latency.p99_ms, upd_per_sec, r.update_mean_ms,
        static_cast<unsigned long long>(r.final_generation), r.hit_rate,
        r.freshness_mean_ms, r.freshness_p99_ms);
    json.Add(std::string("update_throughput/upd:") + cfg.label,
             r.seconds * 1e9 / trace.size(), extra);
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "expected shape: QPS at upd:none matches bench_server_throughput's "
      "4-worker\nrow; paced/burst updates trade a bounded slice of QPS "
      "for a continuously\nfresh snapshot (reads never block on "
      "writes), and apply latency stays flat\nacross generations "
      "(copy-on-write pays per delta, not per history).\n");

  // Rewrite the metrics dump bench_server_throughput started: this
  // process registered the same serving families PLUS the
  // SnapshotManager ones (WAL append, apply latency, checkpoints,
  // freshness lag), so running the pair in order leaves the union
  // catalog for the CI metrics diff.
  const std::string prom = obs::MetricRegistry::Default().RenderPrometheus();
  if (!prom.empty()) {
    if (std::FILE* f = std::fopen("BENCH_server_metrics.prom", "w")) {
      std::fputs(prom.c_str(), f);
      std::fclose(f);
      std::printf("rewrote BENCH_server_metrics.prom (%zu bytes)\n",
                  prom.size());
    }
  }
  return 0;
}
