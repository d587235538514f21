// A searcher with an intra-query pool must be *bit-for-bit* the serial
// search at every thread count: same entries, same bounds, same stats
// — across component counts, across the exact / anytime / prebuilt-plan
// paths, and against the NaiveSearch oracle. The pool runs no job
// today (BuildCandidatePlan builds serially and the exploration loop
// is serial), so these tests pin that a pool changes nothing.
// EXPECT_EQ on doubles is deliberate: the pool changes *scheduling*
// only, never a floating-point operation, and tolerance would hide a
// schedule leaking into the plan.
//
// ParallelSearchConcurrentTest is the TSan target: distinct searchers
// over one shared instance running pooled queries concurrently (the
// serving layer's actual shape — N workers, one snapshot).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/naive_reference.h"
#include "core/s3k.h"
#include "test_fixtures.h"

namespace s3::core {
namespace {

using s3::testing::ConvergedProx;
using s3::testing::ExactScore;

// A controlled instance with exactly `n_clusters` passing components:
// each cluster is a comment-linked group of documents (one connected
// component under partOf ∪ commentsOn± ∪ hasSubject±), every cluster
// contains the query keyword, and the seeker has social edges to every
// poster so all clusters are reachable. Cluster sizes are jittered so
// slots carry unequal (but not degenerate) work.
struct ClusteredInstance {
  std::unique_ptr<S3Instance> instance;
  social::UserId seeker = 0;
  KeywordId kw = kInvalidKeyword;
  size_t n_clusters = 0;
};

ClusteredInstance BuildClustered(size_t n_clusters, size_t docs_per_cluster,
                                 uint64_t seed = 11) {
  ClusteredInstance out;
  out.n_clusters = n_clusters;
  out.instance = std::make_unique<S3Instance>();
  S3Instance& inst = *out.instance;
  Rng rng(seed);

  out.seeker = inst.AddUser("seeker");
  out.kw = inst.InternKeyword("topic");
  KeywordId filler = inst.InternKeyword("filler");

  for (size_t c = 0; c < n_clusters; ++c) {
    social::UserId poster =
        inst.AddUser("poster" + std::to_string(c));
    (void)inst.AddSocialEdge(out.seeker, poster,
                             0.2 + 0.7 * rng.NextDouble());
    (void)inst.AddSocialEdge(poster, out.seeker,
                             0.2 + 0.7 * rng.NextDouble());

    const size_t n_docs = docs_per_cluster + rng.Uniform(3);
    doc::NodeId first_root = doc::kInvalidNode;
    for (size_t i = 0; i < n_docs; ++i) {
      doc::Document d("doc");
      uint32_t par = d.AddChild(0, "par");
      d.AddKeywords(par, {out.kw});
      if (rng.Chance(0.5)) {
        uint32_t extra = d.AddChild(0, "par");
        d.AddKeywords(extra, {filler});
      }
      doc::DocId id =
          inst.AddDocument(std::move(d),
                           "d" + std::to_string(c) + "_" + std::to_string(i),
                           poster)
              .value();
      if (i == 0) {
        first_root = inst.docs().RootNode(id);
      } else {
        // Comment-link every later doc onto the cluster head: one
        // component per cluster, never a bridge between clusters.
        (void)inst.AddComment(id, first_root);
      }
    }
  }
  (void)inst.Finalize();
  return out;
}

S3kOptions BaseOptions(unsigned threads) {
  S3kOptions opts;
  opts.k = 5;
  opts.score.gamma = 1.5;
  opts.max_iterations = 400;
  opts.threads = threads;
  return opts;
}

void ExpectBitIdentical(const std::vector<ResultEntry>& got,
                        const SearchStats& got_stats,
                        const std::vector<ResultEntry>& want,
                        const SearchStats& want_stats, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node) << what << " #" << i;
    EXPECT_EQ(got[i].lower, want[i].lower) << what << " #" << i;
    EXPECT_EQ(got[i].upper, want[i].upper) << what << " #" << i;
  }
  EXPECT_EQ(got_stats.iterations, want_stats.iterations) << what;
  EXPECT_EQ(got_stats.converged, want_stats.converged) << what;
  EXPECT_EQ(got_stats.components_discovered,
            want_stats.components_discovered)
      << what;
  EXPECT_EQ(got_stats.candidates_cleaned, want_stats.candidates_cleaned)
      << what;
  EXPECT_EQ(got_stats.kth_lower, want_stats.kth_lower) << what;
  EXPECT_EQ(got_stats.remaining_upper, want_stats.remaining_upper) << what;
  EXPECT_EQ(got_stats.certified_epsilon, want_stats.certified_epsilon)
      << what;
}

// The full parity sweep: threads {2,4,8} × clusters {1,2,16} ×
// {exact, anytime, prebuilt plan} — every cell bit-for-bit the
// threads=1 run.
TEST(ParallelSearchTest, BitForBitParitySweep) {
  for (size_t n_clusters : {size_t{1}, size_t{2}, size_t{16}}) {
    ClusteredInstance ci = BuildClustered(n_clusters, 30, 11 + n_clusters);
    const S3Instance& inst = *ci.instance;

    S3kSearcher serial(inst, BaseOptions(1));

    // Serial references.
    QueryRequest exact_q(ci.seeker, {ci.kw});
    QueryOptions any_opts;
    any_opts.mode = QueryMode::kAnytime;
    any_opts.epsilon_approx = 0.05;
    QueryRequest anytime_q(ci.seeker, {ci.kw}, any_opts);

    SearchStats exact_st, any_st;
    auto exact_ref = serial.Search(exact_q, &exact_st);
    ASSERT_TRUE(exact_ref.ok());
    EXPECT_EQ(exact_st.components_passing, n_clusters);
    auto any_ref = serial.Search(anytime_q, &any_st);
    ASSERT_TRUE(any_ref.ok());

    auto plan = BuildCandidatePlan(inst, {ci.kw}, true, 0.5);
    ASSERT_TRUE(plan.ok());
    std::vector<QueryRequest> plan_qs;
    std::vector<std::vector<ResultEntry>> plan_ref;
    std::vector<SearchStats> plan_st;
    for (size_t k : {size_t{2}, size_t{7}}) {
      QueryOptions o;
      o.k = k;
      plan_qs.emplace_back(ci.seeker, std::vector<KeywordId>{}, o);
      plan_st.emplace_back();
      auto r = serial.SearchWithPlan(plan_qs.back(), *plan, &plan_st.back());
      ASSERT_TRUE(r.ok());
      plan_ref.push_back(std::move(*r));
    }

    for (unsigned threads : {2u, 4u, 8u}) {
      const std::string tag = "clusters=" + std::to_string(n_clusters) +
                              " threads=" + std::to_string(threads);
      S3kSearcher par(inst, BaseOptions(threads));

      SearchStats st;
      auto got = par.Search(exact_q, &st);
      ASSERT_TRUE(got.ok()) << tag;
      ExpectBitIdentical(*got, st, *exact_ref, exact_st, tag + " exact");

      got = par.Search(anytime_q, &st);
      ASSERT_TRUE(got.ok()) << tag;
      ExpectBitIdentical(*got, st, *any_ref, any_st, tag + " anytime");

      for (size_t i = 0; i < plan_qs.size(); ++i) {
        got = par.SearchWithPlan(plan_qs[i], *plan, &st);
        ASSERT_TRUE(got.ok()) << tag;
        ExpectBitIdentical(*got, st, plan_ref[i], plan_st[i],
                           tag + " plan k=" +
                               std::to_string(plan_qs[i].options.k));
      }
    }
  }
}

// The sweep above is vacuous if no plan reaches the pool. Pin that
// the 16-cluster instance has at least the 8 passing components at
// which BuildCandidatePlan hands candidate construction to the pool.
TEST(ParallelSearchTest, FatQueryBuildsPlanOnPool) {
  ClusteredInstance ci = BuildClustered(16, 30, 27);
  S3kSearcher par(*ci.instance, BaseOptions(4));
  SearchStats st;
  auto got = par.Search(QueryRequest(ci.seeker, {ci.kw}), &st);
  ASSERT_TRUE(got.ok());
  EXPECT_GE(st.components_passing, 8u)
      << "the 16-cluster instance builds its plan inline; the parity "
         "sweep is not exercising the pool";
  EXPECT_TRUE(st.converged);
  EXPECT_FALSE(got->empty());
}

// The serving layer sets the limit and then builds the plan on
// intra_pool(), so the limit must reach the pool at once, not at the
// next search.
TEST(ParallelSearchTest, ThreadLimitReachesPoolBeforeAnySearch) {
  ClusteredInstance ci = BuildClustered(2, 4, 3);
  S3kSearcher par(*ci.instance, BaseOptions(4));
  ASSERT_NE(par.intra_pool(), nullptr);
  par.set_thread_limit(1);
  EXPECT_EQ(par.intra_pool()->HelperLimit(), 0u);
  par.set_thread_limit(3);
  EXPECT_EQ(par.intra_pool()->HelperLimit(), 2u);
  par.set_thread_limit(0);
  EXPECT_EQ(par.intra_pool()->HelperLimit(), SIZE_MAX);
}

// threads=0 resolves to hardware_concurrency (>= 1) and stays
// bit-for-bit with serial.
TEST(ParallelSearchTest, AutoThreadsMatchesSerial) {
  ClusteredInstance ci = BuildClustered(4, 6, 5);
  S3kSearcher serial(*ci.instance, BaseOptions(1));
  S3kSearcher auto_par(*ci.instance, BaseOptions(0));
  SearchStats serial_st, auto_st;
  QueryRequest q(ci.seeker, {ci.kw});
  auto want = serial.Search(q, &serial_st);
  auto got = auto_par.Search(q, &auto_st);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  ExpectBitIdentical(*got, auto_st, *want, serial_st, "auto threads");
}

// A thread limit (the serving layer's per-query budget
// share) changes schedules only: limits 1, 2 and "uncapped" all match
// the serial answer bitwise on the same searcher.
TEST(ParallelSearchTest, ThreadLimitIsResultInvisible) {
  ClusteredInstance ci = BuildClustered(16, 30, 9);
  S3kSearcher serial(*ci.instance, BaseOptions(1));
  S3kSearcher par(*ci.instance, BaseOptions(8));
  QueryRequest q(ci.seeker, {ci.kw});
  SearchStats want_st;
  auto want = serial.Search(q, &want_st);
  ASSERT_TRUE(want.ok());
  for (unsigned limit : {1u, 2u, 0u}) {
    par.set_thread_limit(limit);
    SearchStats st;
    auto got = par.Search(q, &st);
    ASSERT_TRUE(got.ok());
    ExpectBitIdentical(*got, st, *want, want_st,
                       "thread_limit=" + std::to_string(limit));
  }
}

// Ground truth, not just internal consistency: the pooled answer on
// the clustered instance agrees with the brute-force oracle (same
// result count, same descending exact-score multiset, and the
// certified intervals bracket the converged scores).
TEST(ParallelSearchTest, PooledSearchMatchesNaiveOracle) {
  ClusteredInstance ci = BuildClustered(16, 30, 27);
  const S3Instance& inst = *ci.instance;
  S3kOptions opts = BaseOptions(4);
  S3kSearcher par(inst, opts);
  SearchStats st;
  Query q{ci.seeker, {ci.kw}};
  auto got = par.Search(QueryRequest(q.seeker, q.keywords), &st);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(st.converged);

  auto prox = ConvergedProx(inst, ci.seeker, opts.score.gamma);
  auto oracle = NaiveSearchWithProx(inst, q, opts, prox);
  ASSERT_EQ(got->size(), oracle.size());
  std::vector<double> got_scores, want_scores;
  for (size_t r = 0; r < oracle.size(); ++r) {
    const double exact = ExactScore(inst, q, opts, (*got)[r].node, prox);
    EXPECT_LE((*got)[r].lower, exact + 1e-7) << "rank " << r;
    EXPECT_GE((*got)[r].upper, exact - 1e-7) << "rank " << r;
    got_scores.push_back(exact);
    want_scores.push_back(oracle[r].lower);
  }
  std::sort(got_scores.rbegin(), got_scores.rend());
  std::sort(want_scores.rbegin(), want_scores.rend());
  for (size_t r = 0; r < want_scores.size(); ++r) {
    EXPECT_NEAR(got_scores[r], want_scores[r], 1e-7) << "rank " << r;
  }
}

// Random instances (the property-test generator) across thread
// counts: no hand-built structure, still bitwise.
TEST(ParallelSearchTest, RandomInstancesStayBitForBit) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    s3::testing::RandomInstanceParams p;
    p.seed = seed;
    p.n_users = 8;
    p.n_docs = 14;
    auto ri = s3::testing::BuildRandomInstance(p);
    const S3Instance& inst = *ri.instance;

    S3kSearcher serial(inst, BaseOptions(1));
    S3kSearcher par(inst, BaseOptions(4));
    for (uint32_t u = 0; u < 4; ++u) {
      QueryRequest q(static_cast<social::UserId>(u),
                     {ri.keywords[seed % ri.keywords.size()]});
      SearchStats want_st, got_st;
      auto want = serial.Search(q, &want_st);
      auto got = par.Search(q, &got_st);
      ASSERT_EQ(want.ok(), got.ok()) << "seed " << seed << " u " << u;
      if (!want.ok()) continue;
      ExpectBitIdentical(*got, got_st, *want, want_st,
                         "seed " + std::to_string(seed) + " seeker " +
                             std::to_string(u));
    }
  }
}

// ---- TSan target -------------------------------------------------------------
//
// The serving shape: distinct searchers (each with its own intra-query
// pool) over ONE shared instance, running pooled queries truly
// concurrently. Any write to shared state from the per-component plan
// tasks is a race TSan will see; the assertions additionally pin that
// concurrency never changes an answer.
TEST(ParallelSearchConcurrentTest, ConcurrentPooledQueriesOverSharedInstance) {
  ClusteredInstance ci = BuildClustered(16, 30, 33);
  const S3Instance& inst = *ci.instance;

  SearchStats ref_st;
  S3kSearcher serial(inst, BaseOptions(1));
  QueryRequest q(ci.seeker, {ci.kw});
  auto ref = serial.Search(q, &ref_st);
  ASSERT_TRUE(ref.ok());

  constexpr size_t kClients = 4;
  constexpr size_t kQueriesEach = 6;
  std::vector<std::thread> clients;
  std::vector<int> mismatches(kClients, 0);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      S3kSearcher searcher(inst, BaseOptions(2));
      for (size_t i = 0; i < kQueriesEach; ++i) {
        SearchStats st;
        auto got = searcher.Search(q, &st);
        if (!got.ok() || got->size() != ref->size()) {
          mismatches[c]++;
          continue;
        }
        for (size_t r = 0; r < ref->size(); ++r) {
          if ((*got)[r].node != (*ref)[r].node ||
              (*got)[r].lower != (*ref)[r].lower ||
              (*got)[r].upper != (*ref)[r].upper) {
            mismatches[c]++;
          }
        }
        if (st.kth_lower != ref_st.kth_lower ||
            st.iterations != ref_st.iterations) {
          mismatches[c]++;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(mismatches[c], 0) << "client " << c;
  }
}

// Prebuilt-plan runs under concurrency: each client answers requests
// of k 3..6 over one shared plan through its own pooled searcher
// against the shared instance.
TEST(ParallelSearchConcurrentTest, ConcurrentPooledPlanSearchers) {
  ClusteredInstance ci = BuildClustered(16, 30, 41);
  const S3Instance& inst = *ci.instance;
  auto plan = BuildCandidatePlan(inst, {ci.kw}, true, 0.5);
  ASSERT_TRUE(plan.ok());

  std::vector<QueryRequest> requests;
  std::vector<std::vector<ResultEntry>> ref;
  std::vector<SearchStats> ref_st(4);
  S3kSearcher serial(inst, BaseOptions(1));
  for (size_t s = 0; s < 4; ++s) {
    QueryOptions o;
    o.k = 3 + s;
    requests.emplace_back(ci.seeker, std::vector<KeywordId>{}, o);
    auto r = serial.SearchWithPlan(requests[s], *plan, &ref_st[s]);
    ASSERT_TRUE(r.ok());
    ref.push_back(std::move(*r));
  }

  constexpr size_t kClients = 3;
  std::vector<std::thread> clients;
  std::vector<int> mismatches(kClients, 0);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      S3kSearcher searcher(inst, BaseOptions(2));
      for (int round = 0; round < 4; ++round) {
        for (size_t s = 0; s < requests.size(); ++s) {
          SearchStats st;
          auto got = searcher.SearchWithPlan(requests[s], *plan, &st);
          if (!got.ok() || got->size() != ref[s].size() ||
              st.kth_lower != ref_st[s].kth_lower) {
            mismatches[c]++;
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(mismatches[c], 0) << "client " << c;
  }
}

}  // namespace
}  // namespace s3::core
