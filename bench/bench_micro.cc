// Micro-benchmarks (google-benchmark) for the substrate components:
// Porter stemming, RDFS saturation, transition-matrix propagation,
// live-update delta application, component candidate construction,
// and a full S3k query.
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

#include "bench_util.h"
#include "common/rng.h"
#include "core/connections.h"
#include "core/instance_delta.h"
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

// One 16-step exploration chain (δ_seeker · T¹..T¹⁶) on I1 (the
// hot-batch instance) or I3 (the cold-solo shape). The chain runs from
// a seed to a filled frontier, so it times the sparse first steps and
// the dense later ones in their real proportion. Each iteration seeds
// the next user of a fixed stride walk over all users, so the time
// averages over seekers.
void BM_MatrixPropagate(benchmark::State& state,
                        const workload::GenResult& (*make)()) {
  const auto& inst = *make().instance;
  const uint32_t users = static_cast<uint32_t>(inst.UserCount());
  social::Frontier f, g;
  f.Init(inst.layout().total());
  g.Init(inst.layout().total());
  uint32_t next_seeker = 0;
  for (auto _ : state) {
    f.Clear();
    f.Set(inst.RowOfUser(next_seeker), 1.0);
    next_seeker = (next_seeker + 7919) % users;
    for (int step = 0; step < 16; ++step) {
      inst.matrix().Propagate(f, g);
      std::swap(f, g);
    }
    benchmark::DoNotOptimize(f.values.data());
  }
}

const workload::GenResult& I1() {
  static const workload::GenResult* gen =
      new workload::GenResult(bench::MakeI1());
  return *gen;
}

const workload::GenResult& I3() {
  static const workload::GenResult* gen =
      new workload::GenResult(bench::MakeI3());
  return *gen;
}

BENCHMARK_CAPTURE(BM_MatrixPropagate, I1, &I1);
BENCHMARK_CAPTURE(BM_MatrixPropagate, I3, &I3);

// One live update on I1: ApplyDelta of a 16-op delta (8 one-keyword
// documents, 4 keyworded tags on random fragments, 4 social edges)
// against the finalized instance, plus releasing the successor, which
// a serving process pays when the generation is retired. The deltas
// are built up front and cycled; each applies to the same base, so
// every iteration times a first-generation successor.
void BM_ApplyDelta(benchmark::State& state,
                   const workload::GenResult& (*make)()) {
  const core::S3Instance& inst = *make().instance;
  // Non-owning: the generated instance outlives the benchmark.
  const std::shared_ptr<const core::S3Instance> base(
      &inst, [](const core::S3Instance*) {});
  const uint32_t users = static_cast<uint32_t>(inst.UserCount());
  const uint32_t nodes = static_cast<uint32_t>(inst.docs().NodeCount());
  const uint32_t vocab = static_cast<uint32_t>(inst.vocabulary().size());
  Rng rng(4242);
  auto user = [&] { return static_cast<social::UserId>(rng.Uniform(users)); };
  std::vector<core::InstanceDelta> deltas;
  for (int d = 0; d < 8; ++d) {
    core::InstanceDelta delta(base);
    for (int i = 0; i < 8; ++i) {
      doc::Document doc("tweet");
      doc.AddKeywords(0, {static_cast<KeywordId>(rng.Uniform(vocab))});
      if (!delta.AddDocument(std::move(doc),
                             "bench" + std::to_string(d * 8 + i), user())
               .ok()) {
        state.SkipWithError("AddDocument refused");
        return;
      }
    }
    for (int t = 0; t < 4; ++t) {
      const auto subject = static_cast<doc::NodeId>(rng.Uniform(nodes));
      const auto kw = static_cast<KeywordId>(rng.Uniform(vocab));
      if (!delta.AddTagOnFragment(user(), subject, kw).ok()) {
        state.SkipWithError("AddTagOnFragment refused");
        return;
      }
    }
    for (int e = 0; e < 4; ++e) {
      const social::UserId from = user();
      const auto to = static_cast<social::UserId>(
          (from + 1 + rng.Uniform(users - 1)) % users);
      if (!delta.AddSocialEdge(from, to, 0.5).ok()) {
        state.SkipWithError("AddSocialEdge refused");
        return;
      }
    }
    deltas.push_back(std::move(delta));
  }
  size_t next = 0;
  for (auto _ : state) {
    auto successor = inst.ApplyDelta(deltas[next]);
    if (!successor.ok()) {
      state.SkipWithError("ApplyDelta failed");
      return;
    }
    benchmark::DoNotOptimize(successor);
    next = (next + 1) % deltas.size();
  }
}
BENCHMARK_CAPTURE(BM_ApplyDelta, I1, &I1);

// One component's candidates, built by a builder that has already
// served other components of the same extension — how a plan build
// uses it (one builder per plan, not per component).
void BM_ComponentCandidates(benchmark::State& state) {
  auto& bi = SharedInstance();
  const auto& inst = *bi.gen.instance;
  const auto& q = bi.qs.queries[0];
  core::QueryExtension ext(1);
  for (KeywordId k : inst.ExtendKeyword(q.keywords[0])) ext[0].insert(k);
  const auto& comps = inst.ComponentsWithKeyword(q.keywords[0]);
  core::ConnectionBuilder builder(inst, 0.5);
  size_t i = 0;
  for (auto _ : state) {
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

// The most frequent keyword by document frequency (ties to the lower
// id): the head of perfbench's hot-batch pool, whose plan is the one a
// trending-topic batch shares.
KeywordId MostFrequentKeyword(const core::S3Instance& inst) {
  KeywordId best = inst.index().Keywords().front();
  for (KeywordId k : inst.index().Keywords()) {
    const size_t df = inst.index().DocumentFrequency(k);
    const size_t best_df = inst.index().DocumentFrequency(best);
    if (df > best_df || (df == best_df && k < best)) best = k;
  }
  return best;
}

// A serial plan build for the most frequent keyword: extension,
// passing components, candidate construction and the candidate index
// (the work a plan-cache miss pays).
void BM_BuildCandidatePlan(benchmark::State& state) {
  auto& bi = SharedInstance();
  const auto& inst = *bi.gen.instance;
  const std::vector<KeywordId> keywords = {MostFrequentKeyword(inst)};
  for (auto _ : state) {
    auto plan = core::BuildCandidatePlan(inst, keywords, true, 0.5);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_BuildCandidatePlan);

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
