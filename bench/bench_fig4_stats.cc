// Figure 4: statistics of the three instances (I1 Twitter-like,
// I2 Vodkaster-like, I3 Yelp-like), plus the §5.1 claim that keyword
// extension grows workloads by ~50%.
#include <cstdio>

#include "bench_util.h"
#include "workload/instance_stats.h"

using namespace s3;

namespace {

// Measures the average workload growth caused by Ext(k) (the paper
// reports ≈ +50% on I1).
double ExtensionGrowth(const workload::GenResult& gen) {
  workload::WorkloadSpec spec;
  spec.freq = workload::Frequency::kCommon;
  spec.n_keywords = 1;
  spec.n_queries = 400;
  auto qs =
      workload::BuildWorkload(*gen.instance, gen.semantic_anchors, spec);
  size_t base = 0, extended = 0;
  for (const auto& q : qs.queries) {
    for (KeywordId k : q.keywords) {
      ++base;
      extended += gen.instance->ExtendKeyword(k).size();
    }
  }
  return base == 0 ? 0.0
                   : (static_cast<double>(extended) / base - 1.0) * 100.0;
}

}  // namespace

int main() {
  std::printf("=== Figure 4: instance statistics ===\n");
  std::printf(
      "(synthetic stand-ins at 1/100 scale; built by bench/bench_util.h)\n\n");
  for (auto* make : {&bench::MakeI1, &bench::MakeI2, &bench::MakeI3}) {
    workload::GenResult gen = make();
    workload::InstanceStats s = workload::ComputeStats(*gen.instance);
    std::printf("%s", workload::FormatStats(gen.name, s).c_str());
    std::printf("Workload growth via Ext(k)     +%.0f%% (paper I1: +50%%)\n\n",
                ExtensionGrowth(gen));
  }
  return 0;
}
