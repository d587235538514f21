// §5.2 claim: the parallelized search reduced query answering time by
// about 2x with 8 concurrent threads. This harness sweeps the worker
// count on the I1 common-keyword workload and merges BM_ParallelSpeedup
// records (ns/op + speedup vs the single-thread run) into
// BENCH_micro.json, so the CI baseline compare covers intra-query
// scaling alongside the microbenchmarks.
//
// Besides the aggregate per-thread-count record, queries are bucketed
// by their number of passing components. The pool runs no job today
// (plans are built serially), so every bucket should read about 1x.
#include <algorithm>
#include <vector>

#include "bench_util.h"

using namespace s3;

namespace {

struct TimedRun {
  std::vector<double> seconds;  // per query, workload order
  std::vector<size_t> comps;    // components_passing per query
};

TimedRun RunTimed(const core::S3Instance& inst,
                  const workload::QuerySet& qs, unsigned threads) {
  core::S3kOptions opts;
  opts.threads = threads;
  opts.k = qs.k;
  core::S3kSearcher searcher(inst, opts);
  TimedRun run;
  for (const auto& q : qs.queries) {
    core::SearchStats st;
    WallTimer t;
    auto result = searcher.Search(q, &st);
    if (!result.ok()) continue;
    run.seconds.push_back(t.ElapsedSeconds());
    run.comps.push_back(st.components_passing);
  }
  return run;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Component-count buckets: 1 / 2-3 / 4-7 / 8+.
constexpr size_t kBuckets = 4;
size_t BucketOf(size_t comps) {
  if (comps <= 1) return 0;
  if (comps <= 3) return 1;
  if (comps <= 7) return 2;
  return 3;
}
const char* kBucketLabel[kBuckets] = {"1", "2-3", "4-7", "8+"};

}  // namespace

int main() {
  std::printf("=== §5.2: parallel speed-up on I1 ===\n");
  workload::GenResult gen = bench::MakeI1();

  workload::WorkloadSpec spec;
  spec.freq = workload::Frequency::kCommon;
  spec.n_keywords = 1;
  spec.k = 10;
  spec.n_queries = bench::QueriesPerWorkload();
  spec.seed = 8100;
  auto qs =
      workload::BuildWorkload(*gen.instance, gen.semantic_anchors, spec);

  // Warmup pass (untimed): faults in the instance's pages, warms the
  // CSR and candidate structures, and gets the CPU off its idle clocks
  // — without it the threads=1 leg (always measured first) eats all
  // the cold-start cost and the speedup column flatters the others.
  (void)RunTimed(*gen.instance, qs, 1);

  bench::BenchJsonWriter writer("BENCH_micro.json", /*merge=*/true);
  eval::TablePrinter table({"threads", "median (ms)", "speed-up"});
  double base_median = 0.0;
  double base_bucket_median[kBuckets] = {};
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    TimedRun run = RunTimed(*gen.instance, qs, threads);
    if (run.seconds.empty()) continue;
    const double median = Median(run.seconds);
    if (threads == 1) base_median = median;
    const double speedup_x = median > 0 ? base_median / median : 0.0;
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx", speedup_x);
    table.AddRow({std::to_string(threads), eval::FormatMillis(median),
                  speedup});
    char extra[96];
    std::snprintf(extra, sizeof(extra),
                  "\"threads\": %u, \"speedup\": %.3f", threads, speedup_x);
    writer.Add("BM_ParallelSpeedup/threads=" + std::to_string(threads),
               median * 1e9, extra);

    // Per-component-count buckets of the same run.
    std::vector<double> bucket_times[kBuckets];
    for (size_t i = 0; i < run.seconds.size(); ++i) {
      bucket_times[BucketOf(run.comps[i])].push_back(run.seconds[i]);
    }
    for (size_t b = 0; b < kBuckets; ++b) {
      if (bucket_times[b].empty()) continue;
      const double bm = Median(bucket_times[b]);
      if (threads == 1) base_bucket_median[b] = bm;
      const double bx = bm > 0 ? base_bucket_median[b] / bm : 0.0;
      char bextra[128];
      std::snprintf(bextra, sizeof(bextra),
                    "\"threads\": %u, \"comps\": \"%s\", \"queries\": %zu, "
                    "\"speedup\": %.3f",
                    threads, kBucketLabel[b], bucket_times[b].size(), bx);
      writer.Add("BM_ParallelSpeedup/threads=" + std::to_string(threads) +
                     "/comps=" + kBucketLabel[b],
                 bm * 1e9, bextra);
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("paper: ~2x with 8 threads (on a 4-core machine).\n");
  return 0;
}
