// Micro-benchmarks (google-benchmark) for the substrate components:
// Porter stemming, RDFS saturation, transition-matrix propagation,
// component candidate construction, and a full S3k query.
//
// Always writes a machine-readable run record: unless --benchmark_out
// is given, results are mirrored to BENCH_micro.json (ns/op per
// benchmark) so successive PRs can track the perf trajectory.
#include <benchmark/benchmark.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/connections.h"
#include "core/s3k.h"
#include "rdf/saturation.h"
#include "text/porter_stemmer.h"
#include "text/tokenizer.h"
#include "workload/microblog_gen.h"
#include "workload/query_gen.h"

namespace {

using namespace s3;

void BM_PorterStem(benchmark::State& state) {
  const char* words[] = {"relational",   "universities", "graduation",
                         "connections",  "hopefulness",  "troubled",
                         "vietnamization", "effective"};
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PorterStem(words[i++ % 8]));
  }
}
BENCHMARK(BM_PorterStem);

void BM_ExtractKeywords(benchmark::State& state) {
  const std::string text =
      "When I got my M.S. @UAlberta in 2012, a degree gave many more "
      "opportunities to graduates searching for universities";
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExtractKeywords(text));
  }
}
BENCHMARK(BM_ExtractKeywords);

void BM_Saturation(benchmark::State& state) {
  const int n_classes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    rdf::TermDictionary dict;
    rdf::TripleStore store;
    rdf::TermId sc = dict.InternUri("rdfs:subClassOf");
    rdf::TermId type = dict.InternUri("rdf:type");
    for (int i = 1; i < n_classes; ++i) {
      store.Add(dict.InternUri("c" + std::to_string(i)), sc,
                dict.InternUri("c" + std::to_string(i / 2)));
    }
    for (int i = 0; i < n_classes; ++i) {
      store.Add(dict.InternUri("e" + std::to_string(i)), type,
                dict.InternUri("c" + std::to_string(i)));
    }
    state.ResumeTiming();
    rdf::SaturationStats stats = rdf::Saturate(dict, store);
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(BM_Saturation)->Arg(64)->Arg(512)->Arg(4096);

struct BenchInstance {
  workload::GenResult gen;
  workload::QuerySet qs;
};

BenchInstance& SharedInstance() {
  static BenchInstance* bi = [] {
    auto* out = new BenchInstance();
    workload::MicroblogParams p;
    p.seed = 777;
    p.n_users = 1500;
    p.n_tweets = 5000;
    p.vocab_size = 2500;
    p.ontology.n_classes = 80;
    p.ontology.n_entities = 600;
    out->gen = workload::GenerateMicroblog(p);
    workload::WorkloadSpec spec;
    spec.freq = workload::Frequency::kCommon;
    spec.n_keywords = 1;
    spec.k = 10;
    spec.n_queries = 64;
    out->qs = workload::BuildWorkload(*out->gen.instance,
                                      out->gen.semantic_anchors, spec);
    return out;
  }();
  return *bi;
}

void BM_MatrixPropagate(benchmark::State& state) {
  auto& bi = SharedInstance();
  const auto& inst = *bi.gen.instance;
  // One seeker lane: the single-query exploration step.
  social::BatchFrontier f, g;
  f.Init(inst.layout().total(), 1);
  g.Init(inst.layout().total(), 1);
  f.Set(inst.RowOfUser(0), 0, 1.0);
  // Warm two steps so the frontier is wide.
  inst.matrix().PropagateBatch(f, g);
  inst.matrix().PropagateBatch(g, f);
  for (auto _ : state) {
    inst.matrix().PropagateBatch(f, g);
    benchmark::DoNotOptimize(g.values.data());
  }
}
BENCHMARK(BM_MatrixPropagate);

void BM_ComponentCandidates(benchmark::State& state) {
  auto& bi = SharedInstance();
  const auto& inst = *bi.gen.instance;
  const auto& q = bi.qs.queries[0];
  core::QueryExtension ext(1);
  for (KeywordId k : inst.ExtendKeyword(q.keywords[0])) ext[0].insert(k);
  const auto& comps = inst.ComponentsWithKeyword(q.keywords[0]);
  size_t i = 0;
  for (auto _ : state) {
    core::ConnectionBuilder builder(inst, 0.5);
    benchmark::DoNotOptimize(
        builder.Build(comps[i++ % comps.size()], ext));
  }
}
BENCHMARK(BM_ComponentCandidates);

void BM_S3kQuery(benchmark::State& state) {
  auto& bi = SharedInstance();
  core::S3kOptions opts;
  opts.k = static_cast<size_t>(state.range(0));
  core::S3kSearcher searcher(*bi.gen.instance, opts);
  size_t i = 0;
  for (auto _ : state) {
    auto r = searcher.Search(bi.qs.queries[i++ % bi.qs.queries.size()]);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_S3kQuery)->Arg(5)->Arg(10)->Arg(20);

// Certified anytime search against the exact baseline: eps is the
// requested certificate in thousandths (0 = exact mode — must match
// BM_S3kQuery/20 since the eps=0 path is bit-for-bit the exact
// search; 10 = 1%, 100 = 10%). The anytime exit stops the iteration
// loop as soon as the remaining mass fits under (1+eps) times the
// k-th lower bound, so larger eps trades certified slack for latency.
void BM_S3kQueryAnytime(benchmark::State& state) {
  auto& bi = SharedInstance();
  core::S3kOptions opts;
  opts.k = static_cast<size_t>(state.range(0));
  const double eps = static_cast<double>(state.range(1)) / 1000.0;
  core::S3kSearcher searcher(*bi.gen.instance, opts);
  core::QueryOptions qopts;
  if (eps > 0.0) {
    qopts.mode = core::QueryMode::kAnytime;
    qopts.epsilon_approx = eps;
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& q = bi.qs.queries[i++ % bi.qs.queries.size()];
    auto r = searcher.Search(
        core::QueryRequest(q.seeker, q.keywords, qopts));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_S3kQueryAnytime)
    ->ArgNames({"k", "eps"})
    ->Args({20, 0})
    ->Args({20, 10})
    ->Args({20, 100});

// The batched hot path: 8 same-plan queries per iteration (the lcm of
// the swept widths, so ns/op is directly comparable across batch
// sizes), answered in ceil(8/batch) SearchBatchWithPlan passes. batch=1
// is the single-seeker engine run through the batch API — the
// amortization baseline; batch>=4 is where the shared candidate build
// and the one-CSR-walk-per-iteration lane streaming pay off.
void BM_S3kQueryBatched(benchmark::State& state) {
  auto& bi = SharedInstance();
  core::S3kOptions opts;
  opts.k = static_cast<size_t>(state.range(0));
  const size_t width = static_cast<size_t>(state.range(1));
  core::S3kSearcher searcher(*bi.gen.instance, opts);
  // One shared plan, exactly like the server's batch drain: a batch is
  // always same-keyword-multiset queries differing only in seeker.
  const auto& q0 = bi.qs.queries[0];
  auto plan = core::BuildCandidatePlan(*bi.gen.instance, q0.keywords,
                                       opts.use_semantics, opts.score.eta);
  if (!plan.ok()) {
    state.SkipWithError("plan build failed");
    return;
  }
  constexpr size_t kQueriesPerIter = 8;
  const size_t n = bi.qs.queries.size();
  std::vector<core::BatchSeeker> batch(width);
  size_t i = 0;
  for (auto _ : state) {
    for (size_t done = 0; done < kQueriesPerIter; done += width) {
      for (size_t s = 0; s < width; ++s) {
        batch[s].seeker = bi.qs.queries[i++ % n].seeker;
      }
      auto r = searcher.SearchBatchWithPlan(batch, *plan);
      benchmark::DoNotOptimize(r);
    }
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * kQueriesPerIter));
}
BENCHMARK(BM_S3kQueryBatched)
    ->ArgNames({"k", "batch"})
    ->Args({20, 1})
    ->Args({20, 4})
    ->Args({20, 8});

// The solo fat query: a controlled component-count sweep for the
// intra-query pool. BM_S3kQuery averages over the whole workload —
// mostly thin plans, and the microblog trace's fattest query is
// dominated by the giant reply component. This instance is built to
// be many-component instead: C disjoint comment-linked document
// clusters (one passing component each, balanced work), every cluster
// holding the query keyword, the seeker socially adjacent to every
// poster. With comps >= 8 and threads >= 2 the pool builds the
// per-component candidates; the exploration loop is serial at every
// thread count. The counter reports the passing-component count.
core::S3Instance& FatInstance(size_t n_clusters) {
  static std::map<size_t, std::unique_ptr<core::S3Instance>>* cache =
      new std::map<size_t, std::unique_ptr<core::S3Instance>>();
  auto it = cache->find(n_clusters);
  if (it != cache->end()) return *it->second;

  auto inst = std::make_unique<core::S3Instance>();
  Rng rng(4200 + n_clusters);
  social::UserId seeker = inst->AddUser("seeker");
  KeywordId kw = inst->InternKeyword("fatkw");
  KeywordId filler = inst->InternKeyword("filler");
  for (size_t c = 0; c < n_clusters; ++c) {
    social::UserId poster = inst->AddUser("poster" + std::to_string(c));
    (void)inst->AddSocialEdge(seeker, poster, 0.2 + 0.7 * rng.NextDouble());
    (void)inst->AddSocialEdge(poster, seeker, 0.2 + 0.7 * rng.NextDouble());
    const size_t n_docs = 30 + rng.Uniform(5);
    doc::NodeId head = doc::kInvalidNode;
    for (size_t i = 0; i < n_docs; ++i) {
      doc::Document d("doc");
      uint32_t par = d.AddChild(0, "par");
      d.AddKeywords(par, {kw});
      if (rng.Chance(0.5)) {
        uint32_t extra = d.AddChild(0, "par");
        d.AddKeywords(extra, {filler});
      }
      doc::DocId id =
          inst->AddDocument(std::move(d),
                            "f" + std::to_string(c) + "_" + std::to_string(i),
                            poster)
              .value();
      if (i == 0) {
        head = inst->docs().RootNode(id);
      } else {
        (void)inst->AddComment(id, head);
      }
    }
  }
  (void)inst->Finalize();
  auto [pos, inserted] = cache->emplace(n_clusters, std::move(inst));
  return *pos->second;
}

void BM_S3kQueryFat(benchmark::State& state) {
  const size_t n_comps = static_cast<size_t>(state.range(0));
  core::S3Instance& inst = FatInstance(n_comps);
  core::S3kOptions opts;
  opts.k = 20;
  opts.threads = static_cast<unsigned>(state.range(1));
  core::S3kSearcher searcher(inst, opts);
  core::Query q{/*seeker=*/0, {inst.vocabulary().Find("fatkw")}};
  core::SearchStats st;
  for (auto _ : state) {
    auto r = searcher.Search(q, &st);
    benchmark::DoNotOptimize(r);
  }
  state.counters["comps"] = static_cast<double>(st.components_passing);
}
BENCHMARK(BM_S3kQueryFat)
    ->ArgNames({"comps", "threads"})
    ->Args({4, 1})
    ->Args({4, 8})
    ->Args({16, 1})
    ->Args({16, 2})
    ->Args({16, 4})
    ->Args({16, 8})
    ->Args({64, 1})
    ->Args({64, 8});

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
