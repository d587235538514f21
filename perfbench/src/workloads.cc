#include "workloads.h"

#include <algorithm>
#include <set>

#include "workload/business_gen.h"
#include "workload/microblog_gen.h"
#include "workload/query_gen.h"

namespace s3perf {

using namespace s3;

namespace {

// name, dataset, scale, workers, search_threads, intra_budget,
// batch_window, outstanding, pool_size, zipf, update_rate_hz,
// checkpoint_every
const std::vector<WorkloadConfig> kWorkloads = {
    // Trending-topic reads: cache + multi-seeker batching, serial engine.
    {"hot-batch", Dataset::kMicroblog, 1.0, 2, 1, 2, 8, 8, 16, 1.0, 0.0, 0},
    // One fat fresh query at a time: plan + engine + intra-query pool.
    {"cold-solo", Dataset::kBusiness, 2.0, 1, 0, 3, 0, 1, 0, 0.0, 0.0, 0},
    // Durable open-loop updates beside a closed-loop reader.
    // Checkpoints every 64 deltas: 3 of a 20 s run's 200 updates carry
    // one (far above the p95 cut) and the restart replays a WAL tail.
    {"ingest-mixed", Dataset::kMicroblog, 1.0, 2, 1, 2, 0, 2, 32, 1.0, 10.0,
     64},
};

uint64_t Mix64(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint32_t Scaled(uint32_t base, double scale) {
  return static_cast<uint32_t>(base * scale);
}

std::vector<KeywordId> Sorted(std::vector<KeywordId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// The `pool_size` most frequent keywords (by document frequency), most
// frequent first, as one-keyword requests: the trending topics. The pool
// does not depend on the seed, which draws only the seekers and the Zipf
// sequence, so a run's cost does not hinge on which keywords it drew.
std::vector<core::QueryRequest> BuildPool(const core::S3Instance& instance,
                                          size_t pool_size) {
  std::vector<std::pair<size_t, KeywordId>> by_df;
  for (KeywordId k : instance.index().Keywords()) {
    by_df.emplace_back(instance.index().DocumentFrequency(k), k);
  }
  std::sort(by_df.begin(), by_df.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<core::QueryRequest> pool;
  for (size_t i = 0; i < std::min(pool_size, by_df.size()); ++i) {
    core::QueryRequest r(0, {by_df[i].second});
    r.options.k = 10;
    pool.push_back(std::move(r));
  }
  return pool;
}

// The paper's qset_{f,l,k} grid, one fresh keyword multiset per request.
std::vector<core::QueryRequest> BuildFreshGrid(
    const core::S3Instance& instance, const std::vector<KeywordId>& anchors,
    uint64_t seed, Rng& rng) {
  std::vector<core::QueryRequest> all;
  uint64_t cell = 0;
  for (auto freq : {workload::Frequency::kRare, workload::Frequency::kCommon}) {
    for (size_t l = 1; l <= 3; ++l) {
      for (size_t k : {5u, 10u, 20u}) {
        workload::WorkloadSpec spec;
        spec.freq = freq;
        spec.n_keywords = l;
        spec.k = k;
        // Cell weights by query length. Extra keywords are drawn from
        // the first keyword's component, so most multi-keyword queries
        // match a handful of candidates and converge in under a
        // millisecond; an even split would put the median on the edge
        // between the two latency modes.
        spec.n_queries = 100 * (l == 1 ? 8 : 1);
        spec.seed = Mix64(seed, 200 + cell++);
        for (const core::Query& q :
             workload::BuildWorkload(instance, anchors, spec).queries) {
          core::QueryRequest r(q.seeker, q.keywords);
          r.options.k = k;
          all.push_back(std::move(r));
        }
      }
    }
  }
  // Fisher-Yates, then keep each keyword multiset's first occurrence.
  for (size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[rng.Uniform(i)]);
  }
  std::vector<core::QueryRequest> fresh;
  std::set<std::vector<KeywordId>> seen;
  for (core::QueryRequest& r : all) {
    if (!seen.insert(Sorted(r.keywords)).second) continue;
    // A fixed share (every 4th request) asks for a certified anytime
    // answer at epsilon 0.1.
    if (fresh.size() % 4 == 3) {
      r.options.mode = core::QueryMode::kAnytime;
      r.options.epsilon_approx = 0.1;
    }
    fresh.push_back(std::move(r));
  }
  return fresh;
}

}  // namespace

const std::vector<WorkloadConfig>& AllWorkloads() { return kWorkloads; }

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

workload::GenResult MakeInstance(const WorkloadConfig& cfg) {
  // The repository's fixed I1/I3 stand-ins (the generator seeds of the
  // figure benches, bench/bench_util.h), scaled by cfg.scale.
  const double s = cfg.scale;
  if (cfg.dataset == Dataset::kMicroblog) {
    workload::MicroblogParams p;
    p.seed = 101;
    p.n_users = Scaled(4000, s);
    p.isolated_user_fraction = 0.12;
    p.n_tweets = Scaled(16000, s);
    p.vocab_size = Scaled(6000, s);
    p.n_hashtags = Scaled(300, s);
    p.ontology.n_classes = Scaled(600, s);
    p.ontology.n_entities = Scaled(1500, s);
    p.ontology.parent_probability = 0.25;
    p.entity_prob = 0.1;
    return workload::GenerateMicroblog(p);
  }
  workload::BusinessParams p;
  p.seed = 103;
  p.n_users = Scaled(3000, s);
  p.isolated_user_fraction = 0.45;
  p.n_businesses = Scaled(900, s);
  p.avg_reviews_per_business = 8.0;
  p.ontology.n_classes = Scaled(500, s);
  p.ontology.n_entities = Scaled(1200, s);
  p.ontology.parent_probability = 0.25;
  p.entity_prob = 0.08;
  return workload::GenerateBusinessReviews(p);
}

RequestStream::RequestStream(const WorkloadConfig& cfg, uint64_t seed,
                             const core::S3Instance& instance,
                             const std::vector<KeywordId>& anchors)
    : rng_(Mix64(seed, 10)), users_(std::max<size_t>(1, instance.UserCount())) {
  if (cfg.pool_size == 0) {
    kind_ = Kind::kFreshList;
    pool_ = BuildFreshGrid(instance, anchors, seed, rng_);
  } else {
    kind_ = Kind::kZipfPool;
    pool_ = BuildPool(instance, cfg.pool_size);
    zipf_ = std::make_unique<ZipfSampler>(std::max<size_t>(1, pool_.size()),
                                          cfg.zipf);
  }
}

core::QueryRequest RequestStream::Next() {
  if (pool_.empty()) return {};
  if (kind_ == Kind::kFreshList) {
    if (next_ == pool_.size()) {
      next_ = 0;
      ++wraps_;
    }
    return pool_[next_++];
  }
  core::QueryRequest r = pool_[zipf_->Sample(rng_)];
  r.seeker = static_cast<social::UserId>(rng_.Uniform(users_));
  return r;
}

uint64_t DeltaSeed(uint64_t seed) { return Mix64(seed, 20); }

core::InstanceDelta MakeDelta(std::shared_ptr<const core::S3Instance> base,
                              Rng& rng, uint64_t serial,
                              uint64_t* rejected_ops) {
  core::InstanceDelta delta(std::move(base));
  const core::S3Instance& b = *delta.base();
  const uint32_t n_users = static_cast<uint32_t>(b.UserCount());
  const uint32_t n_keywords = static_cast<uint32_t>(b.vocabulary().size());
  const uint32_t n_nodes = static_cast<uint32_t>(b.docs().NodeCount());
  auto user = [&] { return static_cast<social::UserId>(rng.Uniform(n_users)); };
  auto keyword = [&] {
    return static_cast<KeywordId>(rng.Uniform(n_keywords));
  };
  auto node = [&] { return static_cast<doc::NodeId>(rng.Uniform(n_nodes)); };

  for (int i = 0; i < 8; ++i) {
    doc::Document d("tweet");
    d.AddKeywords(0, {keyword(), keyword()});
    if (rng.Chance(0.4)) {
      const uint32_t child = d.AddChild(0, "text");
      d.AddKeywords(child, {delta.InternKeyword(
                               "live" + std::to_string(serial * 100 + i))});
    }
    auto id = delta.AddDocument(
        std::move(d),
        "live" + std::to_string(serial) + "_" + std::to_string(i), user());
    if (!id.ok()) {
      ++*rejected_ops;
      continue;
    }
    if (rng.Chance(0.5) && !delta.AddComment(*id, node()).ok()) {
      ++*rejected_ops;
    }
  }
  for (int t = 0; t < 4; ++t) {
    if (!delta.AddTagOnFragment(user(), node(), keyword()).ok()) {
      ++*rejected_ops;
    }
  }
  for (int e = 0; e < 4; ++e) {
    const social::UserId from = user();
    social::UserId to = user();
    if (to == from) to = (to + 1) % n_users;
    if (!delta.AddSocialEdge(from, to, 0.2 + 0.7 * rng.NextDouble()).ok()) {
      ++*rejected_ops;
    }
  }
  return delta;
}

}  // namespace s3perf
