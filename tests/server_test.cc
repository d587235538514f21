// Concurrent-correctness tests for the query-service layer (server/):
// N client threads issuing mixed queries through one QueryService over
// one shared snapshot must produce results identical to the serial
// engine and to the brute-force NaiveSearch oracle — with and without
// the proximity cache. This suite is the TSan target in CI
// (-DS3_SANITIZE=thread): any data race in the searcher pool, the
// bounded queue, or the cache perturbs results or trips the sanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/instance_delta.h"
#include "core/naive_reference.h"
#include "core/s3k.h"
#include "server/proximity_cache.h"
#include "server/query_service.h"
#include "test_fixtures.h"

namespace s3::server {
namespace {

using core::BuildCandidatePlan;
using core::CandidatePlan;
using core::Query;
using core::ResultEntry;
using core::S3Instance;
using core::S3kOptions;
using core::S3kSearcher;
using core::SearchStats;
using s3::testing::ConvergedProx;
using s3::testing::ExactScore;

std::shared_ptr<const S3Instance> MakeSnapshot(uint64_t seed,
                                               std::vector<KeywordId>* kws) {
  s3::testing::RandomInstanceParams p;
  p.seed = seed;
  p.n_users = 10;
  p.n_docs = 14;
  p.n_tags = 10;
  auto ri = s3::testing::BuildRandomInstance(p);
  *kws = ri.keywords;
  return std::shared_ptr<const S3Instance>(std::move(ri.instance));
}

// Mixed workload: 1-3 keywords, random seekers, heavy keyword repeats
// (queries share keyword sets, like the paper's common-keyword mixes).
// Keywords are pre-sorted so the serial searcher sees the same slot
// order as the cache's canonical plans (bit-identical bounds).
std::vector<Query> MakeMixedQueries(const S3Instance& inst,
                                    const std::vector<KeywordId>& kws,
                                    size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Query q;
    q.seeker = static_cast<social::UserId>(rng.Uniform(inst.UserCount()));
    const size_t l = 1 + rng.Uniform(3);
    for (size_t j = 0; j < l; ++j) {
      q.keywords.push_back(kws[rng.Uniform(kws.size())]);
    }
    std::sort(q.keywords.begin(), q.keywords.end());
    out.push_back(std::move(q));
  }
  return out;
}

S3kOptions TestOptions() {
  S3kOptions opts;
  opts.k = 5;
  opts.score.gamma = 1.5;
  opts.max_iterations = 400;
  return opts;
}

// ---- core split: SearchWithPlan == Search -----------------------------

TEST(CandidatePlanTest, SearchWithPlanMatchesSearch) {
  std::vector<KeywordId> kws;
  auto snap = MakeSnapshot(11, &kws);
  S3kOptions opts = TestOptions();
  S3kSearcher searcher(*snap, opts);
  auto queries = MakeMixedQueries(*snap, kws, 12, 77);

  for (const Query& q : queries) {
    auto direct = searcher.Search(q);
    ASSERT_TRUE(direct.ok());
    auto plan = BuildCandidatePlan(*snap, q.keywords, opts.use_semantics,
                                   opts.score.eta);
    ASSERT_TRUE(plan.ok());
    // Reuse the same plan twice: plans are immutable, so repeated
    // searches (and searches from a second searcher) agree exactly.
    for (int round = 0; round < 2; ++round) {
      auto via_plan = searcher.SearchWithPlan(q, *plan);
      ASSERT_TRUE(via_plan.ok());
      ASSERT_EQ(via_plan->size(), direct->size());
      for (size_t i = 0; i < direct->size(); ++i) {
        EXPECT_EQ((*via_plan)[i].node, (*direct)[i].node);
        EXPECT_DOUBLE_EQ((*via_plan)[i].lower, (*direct)[i].lower);
        EXPECT_DOUBLE_EQ((*via_plan)[i].upper, (*direct)[i].upper);
      }
    }
  }
}

TEST(CandidatePlanTest, RejectsBadInput) {
  std::vector<KeywordId> kws;
  auto snap = MakeSnapshot(12, &kws);
  EXPECT_EQ(BuildCandidatePlan(*snap, {}, true, 0.5).status().code(),
            StatusCode::kInvalidArgument);
  std::vector<KeywordId> too_many(65, kws[0]);
  EXPECT_EQ(BuildCandidatePlan(*snap, too_many, true, 0.5).status().code(),
            StatusCode::kInvalidArgument);
  S3Instance unfinalized;
  EXPECT_EQ(
      BuildCandidatePlan(unfinalized, {kws[0]}, true, 0.5).status().code(),
      StatusCode::kFailedPrecondition);
  // A prebuilt plan does not vouch for the seeker.
  auto plan = BuildCandidatePlan(*snap, {kws[0]}, true, 0.5);
  ASSERT_TRUE(plan.ok());
  S3kSearcher searcher(*snap, TestOptions());
  const auto unknown = static_cast<social::UserId>(snap->UserCount());
  EXPECT_EQ(searcher.SearchWithPlan(Query{unknown, {kws[0]}}, *plan)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// The plan's candidate index is read by every engine built over it:
// searchers on N threads searching over the same shared plans must
// each get exactly the serial answers (TSan target: the index must be
// read-only after BuildCandidatePlan).
TEST(CandidatePlanTest, IndexSharedAcrossConcurrentSearchers) {
  std::vector<KeywordId> kws;
  auto snap = MakeSnapshot(17, &kws);
  const S3kOptions opts = TestOptions();
  std::vector<std::shared_ptr<const CandidatePlan>> plans;
  for (std::vector<KeywordId> set :
       {std::vector<KeywordId>{kws[0]}, std::vector<KeywordId>{kws[1]},
        std::vector<KeywordId>{kws[0], kws[3]}}) {
    std::sort(set.begin(), set.end());
    auto plan =
        BuildCandidatePlan(*snap, set, opts.use_semantics, opts.score.eta);
    ASSERT_TRUE(plan.ok());
    plans.push_back(std::make_shared<const CandidatePlan>(std::move(*plan)));
  }
  // Every user as a seeker, with mixed per-request k, over every plan.
  std::vector<core::QueryRequest> requests;
  for (social::UserId u = 0; u < snap->UserCount(); ++u) {
    core::QueryOptions o;
    o.k = 1 + u % 6;
    requests.emplace_back(u, std::vector<KeywordId>{}, o);
  }
  struct Answer {
    std::vector<ResultEntry> entries;
    SearchStats stats;
  };
  S3kSearcher serial(*snap, opts);
  std::vector<std::vector<Answer>> want(plans.size());
  size_t answered = 0;
  for (size_t p = 0; p < plans.size(); ++p) {
    for (const core::QueryRequest& req : requests) {
      Answer a;
      auto r = serial.SearchWithPlan(req, *plans[p], &a.stats);
      ASSERT_TRUE(r.ok());
      a.entries = std::move(*r);
      answered += a.entries.size();
      want[p].push_back(std::move(a));
    }
  }
  ASSERT_GT(answered, 0u);

  auto same = [](const std::vector<ResultEntry>& entries,
                 const SearchStats& stats, const Answer& b) {
    if (entries.size() != b.entries.size()) return false;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].node != b.entries[i].node ||
          entries[i].lower != b.entries[i].lower ||
          entries[i].upper != b.entries[i].upper) {
        return false;
      }
    }
    return stats.iterations == b.stats.iterations &&
           stats.converged == b.stats.converged &&
           stats.candidates_cleaned == b.stats.candidates_cleaned &&
           stats.kth_lower == b.stats.kth_lower &&
           stats.remaining_upper == b.stats.remaining_upper;
  };
  constexpr int kThreads = 4;
  constexpr int kRounds = 5;
  std::atomic<int> mismatches{0};
  std::atomic<int> searches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      S3kSearcher searcher(*snap, opts);
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < plans.size(); ++i) {
          const size_t p = (i + static_cast<size_t>(t + round)) % plans.size();
          for (size_t m = 0; m < requests.size(); ++m) {
            SearchStats stats;
            auto got = searcher.SearchWithPlan(requests[m], *plans[p], &stats);
            searches.fetch_add(1);
            if (!got.ok() || !same(*got, stats, want[p][m])) {
              mismatches.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(searches.load(),
            kThreads * kRounds * 3 * static_cast<int>(requests.size()));
  EXPECT_EQ(mismatches.load(), 0);
}

// ---- proximity cache --------------------------------------------------

TEST(ProximityCacheTest, KeyCanonicalizesKeywordOrder) {
  PlanCacheKey ab = MakePlanKey({2, 1}, true, 0.5);
  PlanCacheKey ba = MakePlanKey({1, 2}, true, 0.5);
  EXPECT_TRUE(ab == ba);
  EXPECT_EQ(PlanCacheKeyHash{}(ab), PlanCacheKeyHash{}(ba));
  // Duplicates are a different multiset; parameters split keys too.
  EXPECT_FALSE(MakePlanKey({1, 1, 2}, true, 0.5) == ab);
  EXPECT_FALSE(MakePlanKey({1, 2}, false, 0.5) == ab);
  EXPECT_FALSE(MakePlanKey({1, 2}, true, 0.25) == ab);
}

TEST(ProximityCacheTest, HitMissAndEvictionCounters) {
  ProximityCache cache(/*shards=*/2, /*capacity_per_shard=*/1);
  auto plan = std::make_shared<const CandidatePlan>();
  PlanCacheKey key = MakePlanKey({1, 2}, true, 0.5);
  EXPECT_EQ(cache.Lookup(key, /*generation=*/0), nullptr);
  cache.Insert(key, plan);
  EXPECT_EQ(cache.Lookup(key, /*generation=*/0), plan);
  ProximityCacheStats s = cache.Stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_DOUBLE_EQ(s.HitRate(), 0.5);
}

// ---- service ----------------------------------------------------------

TEST(QueryServiceTest, ValidatesAtSubmit) {
  std::vector<KeywordId> kws;
  auto snap = MakeSnapshot(13, &kws);
  QueryServiceOptions opts;
  opts.workers = 1;
  opts.search = TestOptions();
  QueryService service(snap, opts);

  Query empty;
  empty.seeker = 0;
  EXPECT_EQ(service.Submit(empty).status().code(),
            StatusCode::kInvalidArgument);

  Query bad_seeker;
  bad_seeker.seeker = snap->UserCount() + 5;
  bad_seeker.keywords = {kws[0]};
  EXPECT_EQ(service.Submit(bad_seeker).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryServiceTest, SubmitAfterShutdownFails) {
  std::vector<KeywordId> kws;
  auto snap = MakeSnapshot(14, &kws);
  QueryServiceOptions opts;
  opts.workers = 2;
  opts.search = TestOptions();
  QueryService service(snap, opts);
  service.Shutdown();
  service.Shutdown();  // idempotent

  Query q;
  q.seeker = 0;
  q.keywords = {kws[0]};
  EXPECT_EQ(service.Submit(std::move(q)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(QueryServiceTest, AdmissionControlAccountsEverySubmission) {
  std::vector<KeywordId> kws;
  auto snap = MakeSnapshot(15, &kws);
  QueryServiceOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 1;  // aggressive shedding
  opts.search = TestOptions();
  QueryService service(snap, opts);

  auto queries = MakeMixedQueries(*snap, kws, 64, 99);
  std::vector<QueryFuture> futures;
  size_t rejected = 0;
  for (const Query& q : queries) {
    auto submitted = service.Submit(q);
    if (submitted.ok()) {
      futures.push_back(std::move(*submitted));
    } else {
      // The only non-blocking refusal is transient overload.
      EXPECT_EQ(submitted.status().code(), StatusCode::kUnavailable);
      ++rejected;
    }
  }
  for (auto& f : futures) {
    auto response = f.get();
    ASSERT_TRUE(response.ok());
    EXPECT_LE(response->entries.size(), opts.search.k);
  }
  QueryServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, futures.size());
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.submitted + stats.rejected, queries.size());
  EXPECT_EQ(stats.completed, futures.size());
  EXPECT_EQ(stats.failed, 0u);

  // The queue-full refusals are visible to operators, not just as
  // Unavailable statuses on the submit path.
  EXPECT_NE(FormatStats(stats).find("rejected=" + std::to_string(rejected)),
            std::string::npos);
}

TEST(QueryServiceTest, StatsSurfaceCacheHitsAndMisses) {
  std::vector<KeywordId> kws;
  auto snap = MakeSnapshot(17, &kws);
  QueryServiceOptions opts;
  opts.workers = 1;
  opts.search = TestOptions();
  QueryService service(snap, opts);

  Query q;
  q.seeker = 0;
  q.keywords = {kws[0]};
  for (int round = 0; round < 3; ++round) {
    auto fut = service.Submit(q);
    ASSERT_TRUE(fut.ok());
    ASSERT_TRUE(fut->get().ok());
  }
  QueryServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_DOUBLE_EQ(stats.CacheHitRate(), 2.0 / 3.0);

  // Cache disabled: the counters stay zero and the rendering says so.
  opts.enable_cache = false;
  QueryService uncached(snap, opts);
  auto fut = uncached.Submit(q);
  ASSERT_TRUE(fut.ok());
  ASSERT_TRUE(fut->get().ok());
  QueryServiceStats cold = uncached.Stats();
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, 0u);
  EXPECT_NE(FormatStats(cold).find("cache=off"),
            std::string::npos);
}

TEST(QueryServiceTest, KeywordPermutationsShareOnePlan) {
  std::vector<KeywordId> kws;
  auto snap = MakeSnapshot(16, &kws);
  ASSERT_GE(kws.size(), 2u);
  QueryServiceOptions opts;
  opts.workers = 1;
  opts.search = TestOptions();
  QueryService service(snap, opts);

  Query ab;
  ab.seeker = 0;
  ab.keywords = {kws[0], kws[1]};
  Query ba;
  ba.seeker = 0;
  ba.keywords = {kws[1], kws[0]};

  auto fa = service.Submit(ab);
  ASSERT_TRUE(fa.ok());
  auto ra = fa->get();
  ASSERT_TRUE(ra.ok());
  auto fb = service.Submit(ba);
  ASSERT_TRUE(fb.ok());
  auto rb = fb->get();
  ASSERT_TRUE(rb.ok());

  // Same canonical key: the second query hits the first one's plan.
  EXPECT_FALSE(ra->cache_hit);
  EXPECT_TRUE(rb->cache_hit);
  ASSERT_EQ(ra->entries.size(), rb->entries.size());
  for (size_t i = 0; i < ra->entries.size(); ++i) {
    EXPECT_EQ(ra->entries[i].node, rb->entries[i].node);
    EXPECT_DOUBLE_EQ(ra->entries[i].lower, rb->entries[i].lower);
  }
  ASSERT_NE(service.cache(), nullptr);
  EXPECT_EQ(service.cache()->Stats().hits, 1u);
}

// The tentpole correctness pin: N client threads of mixed queries
// through the service == serial S3kSearcher == NaiveSearch oracle,
// with the cache both on and off.
class ConcurrentEquivalenceTest : public ::testing::TestWithParam<bool> {};

TEST_P(ConcurrentEquivalenceTest, MatchesSerialAndNaive) {
  const bool cache_on = GetParam();
  std::vector<KeywordId> kws;
  auto snap = MakeSnapshot(21, &kws);
  const S3kOptions search_opts = TestOptions();

  constexpr size_t kClientThreads = 4;
  constexpr size_t kPerThread = 16;
  auto queries = MakeMixedQueries(*snap, kws, kClientThreads * kPerThread,
                                  1234);

  // Serial reference: one searcher, one thread of control.
  std::vector<std::vector<ResultEntry>> serial(queries.size());
  std::vector<bool> serial_converged(queries.size(), false);
  {
    S3kSearcher searcher(*snap, search_opts);
    for (size_t i = 0; i < queries.size(); ++i) {
      SearchStats stats;
      auto r = searcher.Search(queries[i], &stats);
      ASSERT_TRUE(r.ok());
      serial[i] = *r;
      serial_converged[i] = stats.converged;
    }
  }

  QueryServiceOptions opts;
  opts.workers = 4;
  opts.queue_capacity = 32;
  opts.search = search_opts;
  opts.enable_cache = cache_on;
  opts.cache_shards = 4;
  opts.cache_capacity_per_shard = 8;  // small: exercises eviction too
  QueryService service(snap, opts);

  std::vector<std::vector<ResultEntry>> concurrent(queries.size());
  std::vector<std::thread> clients;
  std::atomic<size_t> cache_hits_seen{0};
  for (size_t t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      for (size_t j = 0; j < kPerThread; ++j) {
        const size_t qi = t * kPerThread + j;
        auto submitted = service.SubmitBlocking(queries[qi]);
        ASSERT_TRUE(submitted.ok());
        auto response = submitted->get();
        ASSERT_TRUE(response.ok());
        if (response->cache_hit) cache_hits_seen.fetch_add(1);
        concurrent[qi] = response->entries;
      }
    });
  }
  for (auto& c : clients) c.join();
  service.Shutdown();

  // 1. Identical to the serial engine, node for node, bit for bit.
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(concurrent[i].size(), serial[i].size()) << "query " << i;
    for (size_t r = 0; r < serial[i].size(); ++r) {
      EXPECT_EQ(concurrent[i][r].node, serial[i][r].node)
          << "query " << i << " rank " << r;
      EXPECT_DOUBLE_EQ(concurrent[i][r].lower, serial[i][r].lower);
      EXPECT_DOUBLE_EQ(concurrent[i][r].upper, serial[i][r].upper);
    }
  }

  // 2. Identical (up to ties) to the brute-force NaiveSearch oracle:
  // descending exact-score multisets agree. Spot-check a stride to
  // keep the TSan run fast.
  for (size_t i = 0; i < queries.size(); i += 7) {
    if (!serial_converged[i]) continue;
    const Query& q = queries[i];
    auto prox = ConvergedProx(*snap, q.seeker, search_opts.score.gamma);
    auto oracle = core::NaiveSearchWithProx(*snap, q, search_opts, prox);
    ASSERT_EQ(concurrent[i].size(), oracle.size()) << "query " << i;
    std::vector<double> got, want;
    for (size_t r = 0; r < oracle.size(); ++r) {
      got.push_back(
          ExactScore(*snap, q, search_opts, concurrent[i][r].node, prox));
      want.push_back(oracle[r].lower);
    }
    std::sort(got.rbegin(), got.rend());
    std::sort(want.rbegin(), want.rend());
    for (size_t r = 0; r < want.size(); ++r) {
      EXPECT_NEAR(got[r], want[r], 1e-7) << "query " << i << " rank " << r;
    }
  }

  QueryServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, queries.size());
  EXPECT_EQ(stats.failed, 0u);
  if (cache_on) {
    ASSERT_NE(service.cache(), nullptr);
    // The mixed workload repeats keyword sets, so the cache must get
    // real traffic.
    EXPECT_GT(cache_hits_seen.load(), 0u);
    EXPECT_EQ(service.cache()->Stats().hits, cache_hits_seen.load());
  } else {
    EXPECT_EQ(service.cache(), nullptr);
    EXPECT_EQ(cache_hits_seen.load(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(CacheOnOff, ConcurrentEquivalenceTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "CacheOn" : "CacheOff";
                         });

// Concurrent clients flooding a two-worker service while the main
// thread swaps snapshot generations (TSan target). Every response must
// exactly match the serial answer of the generation it reports: a
// query bound to one generation but planned or searched on another, or
// a data race on the worker path, perturbs some response away from
// every per-generation oracle.
TEST(QueryServiceConcurrentTest, SubmitAndSwapMatchPerGenerationOracle) {
  constexpr size_t kRounds = 2;

  std::vector<KeywordId> kws;
  std::vector<std::shared_ptr<const S3Instance>> gens;
  gens.push_back(MakeSnapshot(14, &kws));
  // Each round rewires the social graph a little; exactness against
  // the wrong generation's oracle then fails.
  for (size_t round = 1; round <= kRounds; ++round) {
    core::InstanceDelta delta(gens.back());
    ASSERT_TRUE(delta
                    .AddSocialEdge(static_cast<social::UserId>(round),
                                   static_cast<social::UserId>(round + 4),
                                   0.6)
                    .ok());
    auto next = gens.back()->ApplyDelta(delta);
    ASSERT_TRUE(next.ok()) << next.status().message();
    gens.push_back(*next);
  }

  const S3kOptions opts = TestOptions();
  std::vector<KeywordId> hot = {kws[1], kws[2]};
  std::sort(hot.begin(), hot.end());
  std::vector<Query> queries;
  for (social::UserId u = 0; u < gens[0]->UserCount(); ++u) {
    queries.push_back(Query{u, hot});
  }

  // expected[g][qi]: serial per-generation results.
  std::vector<std::vector<std::vector<ResultEntry>>> expected(kRounds + 1);
  for (size_t g = 0; g <= kRounds; ++g) {
    S3kSearcher searcher(*gens[g], opts);
    for (const Query& q : queries) {
      auto r = searcher.Search(q);
      ASSERT_TRUE(r.ok());
      expected[g].push_back(*r);
    }
  }

  QueryServiceOptions service_opts;
  service_opts.workers = 2;
  service_opts.queue_capacity = 256;
  service_opts.search = opts;
  QueryService service(gens[0], service_opts);

  std::atomic<size_t> checked{0};
  auto check_response = [&](size_t qi, const QueryResponse& resp) {
    ASSERT_LE(resp.generation, kRounds);
    const std::vector<ResultEntry>& want = expected[resp.generation][qi];
    const std::string what = "generation " + std::to_string(resp.generation) +
                             " query " + std::to_string(qi);
    ASSERT_EQ(resp.entries.size(), want.size()) << what;
    for (size_t r = 0; r < want.size(); ++r) {
      ASSERT_EQ(resp.entries[r].node, want[r].node) << what << " rank " << r;
      ASSERT_EQ(resp.entries[r].lower, want[r].lower) << what << " rank " << r;
      ASSERT_EQ(resp.entries[r].upper, want[r].upper) << what << " rank " << r;
    }
    checked.fetch_add(1);
  };

  for (size_t round = 1; round <= kRounds; ++round) {
    std::vector<std::thread> clients;
    for (int t = 0; t < 3; ++t) {
      clients.emplace_back([&, t] {
        for (size_t pass = 0; pass < 6; ++pass) {
          std::vector<std::pair<size_t, QueryFuture>> inflight;
          for (size_t qi = t; qi < queries.size(); qi += 3) {
            auto submitted = service.SubmitBlocking(queries[qi]);
            ASSERT_TRUE(submitted.ok());
            inflight.emplace_back(qi, std::move(*submitted));
          }
          for (auto& [qi, future] : inflight) {
            auto resp = future.get();
            ASSERT_TRUE(resp.ok()) << resp.status().message();
            check_response(qi, *resp);
          }
        }
      });
    }
    ASSERT_TRUE(service.SwapSnapshot(gens[round]).ok());
    for (auto& t : clients) t.join();

    // Quiesced: everything now answers on the new generation.
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      auto submitted = service.SubmitBlocking(queries[qi]);
      ASSERT_TRUE(submitted.ok());
      auto resp = submitted->get();
      ASSERT_TRUE(resp.ok());
      EXPECT_EQ(resp->generation, round);
      check_response(qi, *resp);
    }
  }

  EXPECT_GT(checked.load(), 0u);
  EXPECT_EQ(service.Stats().failed, 0u);
  EXPECT_EQ(service.snapshot()->generation(), kRounds);
}

}  // namespace
}  // namespace s3::server
