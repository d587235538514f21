// Microblog search: a synthetic Twitter-like instance (the paper's I1
// construction) queried with both rare and common keywords.
//
// Demonstrates the workload machinery (generators + query sets) and the
// effect of the social dimension: the same keyword query returns
// different top-k answers for different seekers.
//
//   ./build/examples/microblog_search
#include <cstdio>

#include "common/timer.h"
#include "core/s3k.h"
#include "workload/instance_stats.h"
#include "workload/microblog_gen.h"
#include "workload/query_gen.h"

using namespace s3;

int main() {
  workload::MicroblogParams params;
  params.seed = 2014;
  params.n_users = 800;
  params.n_tweets = 2500;
  params.vocab_size = 1500;
  params.ontology.n_classes = 60;
  params.ontology.n_entities = 500;

  std::printf("Generating synthetic microblog instance...\n");
  WallTimer gen_timer;
  workload::GenResult gen = workload::GenerateMicroblog(params);
  std::printf("done in %.2fs\n\n", gen_timer.ElapsedSeconds());

  workload::InstanceStats stats = workload::ComputeStats(*gen.instance);
  std::printf("%s\n", workload::FormatStats(gen.name, stats).c_str());

  core::S3kOptions opts;
  opts.k = 5;
  core::S3kSearcher searcher(*gen.instance, opts);

  // One rare-keyword and one common-keyword workload.
  for (auto freq : {workload::Frequency::kRare, workload::Frequency::kCommon}) {
    workload::WorkloadSpec spec;
    spec.freq = freq;
    spec.n_keywords = 1;
    spec.k = 5;
    spec.n_queries = 3;
    spec.seed = 99;
    auto qs = workload::BuildWorkload(*gen.instance, gen.semantic_anchors,
                                      spec);
    std::printf("=== workload %s ===\n", qs.label.c_str());
    for (const auto& q : qs.queries) {
      std::printf("seeker %s, keywords:",
                  gen.instance->users()[q.seeker].uri.c_str());
      for (KeywordId k : q.keywords) {
        std::printf(" '%s'", std::string(gen.instance->vocabulary().Spelling(k)).c_str());
      }
      std::printf("\n");
      core::SearchStats st;
      auto result = searcher.Search(q, &st);
      if (!result.ok()) {
        std::printf("  error: %s\n", result.status().ToString().c_str());
        continue;
      }
      for (const auto& r : *result) {
        std::printf("  %-18s [%.3e, %.3e]\n",
                    gen.instance->docs().Uri(r.node).c_str(), r.lower,
                    r.upper);
      }
      std::printf("  %zu candidates, %zu iterations, %.1f ms\n",
                  st.candidates_total, st.iterations,
                  st.elapsed_seconds * 1e3);
    }
    std::printf("\n");
  }

  // Same query, two seekers: the social dimension at work.
  workload::WorkloadSpec spec;
  spec.freq = workload::Frequency::kCommon;
  spec.n_queries = 1;
  spec.seed = 7;
  auto qs = workload::BuildWorkload(*gen.instance, gen.semantic_anchors,
                                    spec);
  core::Query q = qs.queries[0];
  std::printf("=== personalization: same keyword, different seekers ===\n");
  // Per-request options ride on the QueryRequest: here a certified
  // anytime answer — stop as soon as nothing omitted can beat the
  // worst returned tweet by more than 5%.
  core::QueryOptions qopts;
  qopts.mode = core::QueryMode::kAnytime;
  qopts.epsilon_approx = 0.05;
  for (social::UserId seeker : {q.seeker, (q.seeker + 137) %
                                              (uint32_t)gen.instance->UserCount()}) {
    auto result = searcher.Search(
        core::QueryRequest(seeker, q.keywords, qopts));
    std::printf("seeker %s:",
                gen.instance->users()[seeker].uri.c_str());
    if (result.ok()) {
      for (const auto& r : *result) {
        std::printf(" %s", gen.instance->docs().Uri(r.node).c_str());
      }
    }
    std::printf("\n");
  }
  return 0;
}
