// Review search: a Yelp-like instance (the paper's I3 construction)
// queried side by side with the TopkS baseline, showing the
// qualitative differences measured in the paper's Figure 8.
//
//   ./build/examples/review_search
#include <cstdio>

#include "baseline/flatten.h"
#include "baseline/topks.h"
#include "core/s3k.h"
#include "eval/metrics.h"
#include "workload/business_gen.h"
#include "workload/query_gen.h"

using namespace s3;

int main() {
  workload::BusinessParams params;
  params.seed = 88;
  params.n_users = 600;
  params.n_businesses = 120;
  params.ontology.n_classes = 40;
  params.ontology.n_entities = 250;

  std::printf("Generating synthetic business-review instance...\n");
  workload::GenResult gen = workload::GenerateBusinessReviews(params);
  std::printf("users=%zu docs=%zu components=%zu\n\n",
              gen.instance->UserCount(),
              gen.instance->docs().DocumentCount(),
              gen.instance->components().ComponentCount());

  baseline::Flattened flat = baseline::FlattenToUit(*gen.instance);
  std::printf("flattened to %zu UIT items, %zu triples\n\n",
              flat.uit.ItemCount(), flat.uit.TripleCount());

  core::S3kOptions s3k_opts;
  s3k_opts.k = 5;
  core::S3kSearcher s3k(*gen.instance, s3k_opts);
  baseline::TopkSOptions tk_opts;
  tk_opts.k = 5;
  tk_opts.alpha = 0.5;
  baseline::TopkSSearcher topks(flat.uit, tk_opts);

  workload::WorkloadSpec spec;
  spec.freq = workload::Frequency::kCommon;
  spec.n_keywords = 1;
  spec.k = 5;
  spec.n_queries = 5;
  spec.seed = 4242;
  auto qs = workload::BuildWorkload(*gen.instance, gen.semantic_anchors,
                                    spec);

  double sum_inter = 0.0, sum_l1 = 0.0;
  for (const auto& q : qs.queries) {
    std::printf("seeker %s searches '%s'\n",
                gen.instance->users()[q.seeker].uri.c_str(),
                std::string(gen.instance->vocabulary().Spelling(q.keywords[0])).c_str());

    core::SearchStats st;
    auto rs = s3k.Search(core::QueryRequest(q), &st);
    std::printf("  S3k  :");
    std::vector<uint64_t> s3k_items;
    if (rs.ok()) {
      for (const auto& r : *rs) {
        std::printf(" %s", gen.instance->docs().Uri(r.node).c_str());
        auto item = flat.ItemOfNode(*gen.instance, r.node);
        if (item != baseline::kInvalidItem) s3k_items.push_back(item);
      }
    }
    std::printf("\n");

    auto rt = topks.Search(q.seeker, q.keywords);
    std::printf("  TopkS:");
    std::vector<uint64_t> tk_items;
    if (rt.ok()) {
      for (const auto& r : *rt) {
        std::printf(" item#%u", r.item);
        tk_items.push_back(r.item);
      }
    }
    std::printf("\n");

    double inter = eval::IntersectionRatio(s3k_items, tk_items);
    double l1 = eval::SpearmanFootRuleNormalized(s3k_items, tk_items);
    sum_inter += inter;
    sum_l1 += l1;
    std::printf("  intersection=%.0f%%  L1=%.2f\n\n", inter * 100, l1);
  }
  std::printf("averages over %zu queries: intersection=%.1f%%  L1=%.2f\n",
              qs.queries.size(), 100 * sum_inter / qs.queries.size(),
              sum_l1 / qs.queries.size());
  return 0;
}
