#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "core/naive_reference.h"
#include "core/s3k.h"
#include "test_fixtures.h"
#include "workload/microblog_gen.h"
#include "workload/query_gen.h"

namespace s3::core {
namespace {

using s3::testing::ConvergedProx;
using s3::testing::ExactScore;

// ---- Validation ------------------------------------------------------------

TEST(S3kValidationTest, RejectsBadInput) {
  auto fig = s3::testing::BuildFigure3();
  S3kSearcher searcher(*fig.instance, S3kOptions{});
  Query q;
  q.seeker = 99;
  q.keywords = {fig.k0};
  EXPECT_FALSE(searcher.Search(q).ok());
  q.seeker = fig.u0;
  q.keywords = {};
  EXPECT_FALSE(searcher.Search(q).ok());
}

TEST(S3kValidationTest, RejectsUnfinalizedInstance) {
  S3Instance inst;
  inst.AddUser("u");
  KeywordId k = inst.InternKeyword("x");
  S3kSearcher searcher(inst, S3kOptions{});
  Query q{0, {k}};
  EXPECT_FALSE(searcher.Search(q).ok());
}

// ---- Figure 3 end-to-end -----------------------------------------------------

class Figure3SearchTest : public ::testing::Test {
 protected:
  void SetUp() override { fig_ = s3::testing::BuildFigure3(); }
  s3::testing::Figure3 fig_;
};

TEST_F(Figure3SearchTest, FindsKeywordBearingFragment) {
  S3kOptions opts;
  opts.k = 3;
  S3kSearcher searcher(*fig_.instance, opts);
  SearchStats stats;
  auto result = searcher.Search(Query{fig_.u0, {fig_.k0}}, &stats);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->empty());
  EXPECT_TRUE(stats.converged);
  // Some ancestor-or-self of URI0.0.0 must be the best answer.
  doc::NodeId best = (*result)[0].node;
  EXPECT_TRUE(best == fig_.uri0_0_0 || best == fig_.uri0_0 ||
              best == fig_.uri0);
}

TEST_F(Figure3SearchTest, ResultsHaveNoVerticalNeighbors) {
  S3kOptions opts;
  opts.k = 5;
  S3kSearcher searcher(*fig_.instance, opts);
  auto result = searcher.Search(Query{fig_.u0, {fig_.k1}});
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < result->size(); ++i) {
    for (size_t j = i + 1; j < result->size(); ++j) {
      EXPECT_FALSE(fig_.instance->docs().AreVerticalNeighbors(
          (*result)[i].node, (*result)[j].node));
    }
  }
}

TEST_F(Figure3SearchTest, BoundsBracketExactScore) {
  S3kOptions opts;
  opts.k = 4;
  S3kSearcher searcher(*fig_.instance, opts);
  Query q{fig_.u1, {fig_.k1}};
  auto result = searcher.Search(q);
  ASSERT_TRUE(result.ok());
  auto prox = ConvergedProx(*fig_.instance, fig_.u1, opts.score.gamma);
  for (const ResultEntry& r : *result) {
    double exact = ExactScore(*fig_.instance, q, opts, r.node, prox);
    EXPECT_LE(r.lower, exact + 1e-9) << "node " << r.node;
    EXPECT_GE(r.upper, exact - 1e-9) << "node " << r.node;
  }
}

TEST_F(Figure3SearchTest, TagKeywordReachesTaggedDocument) {
  // k2 exists only as tag a0's keyword on URI0.0.0.
  S3kOptions opts;
  opts.k = 2;
  S3kSearcher searcher(*fig_.instance, opts);
  auto result = searcher.Search(Query{fig_.u2, {fig_.k2}});
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->empty());
  doc::NodeId best = (*result)[0].node;
  EXPECT_TRUE(best == fig_.uri0_0_0 || best == fig_.uri0_0 ||
              best == fig_.uri0);
}

TEST_F(Figure3SearchTest, DeterministicAcrossRuns) {
  S3kOptions opts;
  opts.k = 3;
  S3kSearcher searcher(*fig_.instance, opts);
  auto r1 = searcher.Search(Query{fig_.u0, {fig_.k1}});
  auto r2 = searcher.Search(Query{fig_.u0, {fig_.k1}});
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r1->size(), r2->size());
  for (size_t i = 0; i < r1->size(); ++i) {
    EXPECT_EQ((*r1)[i].node, (*r2)[i].node);
  }
}

TEST_F(Figure3SearchTest, ThreadedSearchMatchesSequential) {
  S3kOptions seq;
  seq.k = 3;
  S3kOptions par = seq;
  par.threads = 4;
  S3kSearcher s1(*fig_.instance, seq);
  S3kSearcher s2(*fig_.instance, par);
  auto r1 = s1.Search(Query{fig_.u1, {fig_.k1}});
  auto r2 = s2.Search(Query{fig_.u1, {fig_.k1}});
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r1->size(), r2->size());
  for (size_t i = 0; i < r1->size(); ++i) {
    EXPECT_EQ((*r1)[i].node, (*r2)[i].node);
  }
}

// ---- Figure 1: semantics in search ------------------------------------------

TEST(Figure1SearchTest, SemanticExtensionChangesAnswers) {
  auto fig = s3::testing::BuildFigure1();
  S3kOptions with_sem;
  with_sem.k = 5;
  S3kOptions no_sem = with_sem;
  no_sem.use_semantics = false;

  // u1 searches "degree": d1 says u2 holds an M.S.; only semantics can
  // surface it (the paper's motivating scenario).
  Query q{fig.u1, {fig.kw_degree}};
  SearchStats st_sem, st_plain;
  auto sem =
      S3kSearcher(*fig.instance, with_sem).Search(q, &st_sem);
  auto plain =
      S3kSearcher(*fig.instance, no_sem).Search(q, &st_plain);
  ASSERT_TRUE(sem.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->empty());
  ASSERT_FALSE(sem->empty());
  EXPECT_GT(st_sem.candidates_total, st_plain.candidates_total);
  // The answer set involves d1 (which contains "m.s.") — either d1
  // itself / its text node, or d0, connected through d1's reply.
  bool d1_family = false;
  for (const ResultEntry& r : *sem) {
    if (fig.instance->docs().DocOf(r.node) == fig.d1 ||
        r.node == fig.d0_root) {
      d1_family = true;
    }
  }
  EXPECT_TRUE(d1_family);
}

// ---- Anytime termination ------------------------------------------------------

TEST(AnytimeTest, BudgetedSearchStillReturns) {
  auto fig = s3::testing::BuildFigure1();
  S3kOptions opts;
  opts.k = 3;
  opts.max_iterations = 1;
  S3kSearcher searcher(*fig.instance, opts);
  SearchStats stats;
  auto result =
      searcher.Search(Query{fig.u1, {fig.kw_university}}, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.iterations, 1u);
}

// ---- Shared plans -----------------------------------------------------------

S3kOptions PlanTestOptions() {
  S3kOptions opts;
  opts.k = 4;
  opts.score.gamma = 1.5;
  opts.max_iterations = 400;
  return opts;
}

// Asserts two answers are bitwise equal: entries, bounds and stats.
void ExpectSameAnswer(const std::vector<ResultEntry>& got,
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
  EXPECT_EQ(got_stats.components_discovered, want_stats.components_discovered)
      << what;
  EXPECT_EQ(got_stats.candidates_cleaned, want_stats.candidates_cleaned)
      << what;
  EXPECT_EQ(got_stats.kth_lower, want_stats.kth_lower) << what;
  EXPECT_EQ(got_stats.remaining_upper, want_stats.remaining_upper) << what;
}

// One searcher answers every user of an instance over one shared plan,
// reusing its scratch from seeker to seeker: each answer matches the
// brute-force oracle (same result count, same descending exact-score
// multiset — answers are unique only up to ties, paper §3.1).
TEST(PlanSearchTest, SharedPlanMatchesNaiveOracle) {
  s3::testing::RandomInstanceParams p;
  p.seed = 3;
  auto ri = s3::testing::BuildRandomInstance(p);
  const S3Instance& inst = *ri.instance;
  S3kOptions opts = PlanTestOptions();

  std::vector<KeywordId> kws = {ri.keywords[1]};
  auto plan =
      BuildCandidatePlan(inst, kws, opts.use_semantics, opts.score.eta);
  ASSERT_TRUE(plan.ok());

  S3kSearcher searcher(inst, opts);
  for (social::UserId u = 0; u < inst.UserCount(); ++u) {
    SearchStats stats;
    auto got = searcher.SearchWithPlan(Query{u, kws}, *plan, &stats);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(stats.converged) << "seeker " << u;
    auto prox = ConvergedProx(inst, u, opts.score.gamma);
    auto oracle = NaiveSearchWithProx(inst, Query{u, kws}, opts, prox);
    ASSERT_EQ(got->size(), oracle.size()) << "seeker " << u;
    std::vector<double> exact_got, want;
    for (size_t r = 0; r < oracle.size(); ++r) {
      const ResultEntry& e = (*got)[r];
      const double exact = ExactScore(inst, Query{u, kws}, opts, e.node, prox);
      // The reported interval brackets the exact score…
      EXPECT_LE(e.lower, exact + 1e-7) << "seeker " << u << " rank " << r;
      EXPECT_GE(e.upper, exact - 1e-7) << "seeker " << u << " rank " << r;
      exact_got.push_back(exact);
      want.push_back(oracle[r].lower);
    }
    std::sort(exact_got.rbegin(), exact_got.rend());
    std::sort(want.rbegin(), want.rend());
    for (size_t r = 0; r < want.size(); ++r) {
      EXPECT_NEAR(exact_got[r], want[r], 1e-7)
          << "seeker " << u << " rank " << r;
    }
  }
}

// A per-request k (QueryOptions::k) is bitwise the answer of a
// searcher configured with that k, on instances where small-k queries
// converge iterations before large-k ones.
TEST(PlanSearchTest, PerRequestKMatchesSearcherK) {
  for (uint64_t seed : {4u, 7u}) {
    s3::testing::RandomInstanceParams p;
    p.seed = seed;
    p.n_users = 10;
    p.n_docs = 12;
    auto ri = s3::testing::BuildRandomInstance(p);
    const S3Instance& inst = *ri.instance;
    S3kOptions opts = PlanTestOptions();

    std::vector<KeywordId> kws = {ri.keywords[0], ri.keywords[3]};
    std::sort(kws.begin(), kws.end());
    auto plan =
        BuildCandidatePlan(inst, kws, opts.use_semantics, opts.score.eta);
    ASSERT_TRUE(plan.ok());

    S3kSearcher shared(inst, opts);
    for (size_t k : {1u, 3u, 8u, 2u}) {
      S3kOptions per_k = opts;
      per_k.k = k;
      S3kSearcher configured(inst, per_k);
      QueryOptions o;
      o.k = k;
      for (social::UserId u = 0; u < inst.UserCount(); ++u) {
        SearchStats got_stats, want_stats;
        auto got =
            shared.SearchWithPlan(QueryRequest(u, kws, o), *plan, &got_stats);
        auto want =
            configured.SearchWithPlan(Query{u, kws}, *plan, &want_stats);
        ASSERT_TRUE(got.ok());
        ASSERT_TRUE(want.ok());
        ExpectSameAnswer(*got, got_stats, *want, want_stats,
                         "seed " + std::to_string(seed) + " k " +
                             std::to_string(k) + " seeker " +
                             std::to_string(u));
      }
    }
  }
}

// An iteration cap cuts searches off mid-exploration. A searcher that
// ran other cut-off searches first (its frontier scratch left holding
// mass) answers bitwise as a fresh searcher does.
TEST(PlanSearchTest, IterationCapCutoffReusesScratch) {
  s3::testing::RandomInstanceParams p;
  p.seed = 6;
  auto ri = s3::testing::BuildRandomInstance(p);
  const S3Instance& inst = *ri.instance;
  S3kOptions opts = PlanTestOptions();
  opts.max_iterations = 2;

  std::vector<KeywordId> kws = {ri.keywords[2]};
  auto plan =
      BuildCandidatePlan(inst, kws, opts.use_semantics, opts.score.eta);
  ASSERT_TRUE(plan.ok());

  S3kSearcher reused(inst, opts);
  size_t cut_off = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (social::UserId u = 0; u < inst.UserCount(); ++u) {
      SearchStats got_stats, want_stats;
      auto got = reused.SearchWithPlan(Query{u, kws}, *plan, &got_stats);
      auto want = S3kSearcher(inst, opts).SearchWithPlan(Query{u, kws}, *plan,
                                                         &want_stats);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(want.ok());
      EXPECT_LE(got_stats.iterations, 2u);
      if (!got_stats.converged) ++cut_off;
      ExpectSameAnswer(*got, got_stats, *want, want_stats,
                       "seeker " + std::to_string(u));
    }
  }
  EXPECT_GT(cut_off, 0u) << "no search was cut off by the cap";
}

// ---- Keyword order -------------------------------------------------------------

// The score multiplies per-keyword sums in plan-slot order, so with three
// or more keywords two orders can differ in the last ulp. Search plans
// over the sorted multiset, so every permutation of a random 3-keyword
// request returns bit-identical entries.
TEST(S3kKeywordOrderTest, PermutationsAreBitIdentical) {
  workload::MicroblogParams p;
  p.seed = 2024;
  p.n_users = 150;
  p.n_tweets = 500;
  p.vocab_size = 120;
  auto gen = workload::GenerateMicroblog(p);
  const S3Instance& inst = *gen.instance;
  workload::WorkloadSpec spec;
  spec.n_keywords = 3;
  spec.n_queries = 40;
  spec.seed = 77;
  auto qs = workload::BuildWorkload(inst, gen.semantic_anchors, spec);
  S3kOptions opts;
  opts.k = spec.k;
  S3kSearcher searcher(inst, opts);

  size_t compared = 0;
  for (size_t qi = 0; qi < qs.queries.size(); ++qi) {
    std::vector<KeywordId> kw = qs.queries[qi].keywords;
    const social::UserId seeker = qs.queries[qi].seeker;
    std::sort(kw.begin(), kw.end());
    auto want = searcher.Search(Query{seeker, kw});
    ASSERT_TRUE(want.ok());
    while (std::next_permutation(kw.begin(), kw.end())) {
      auto got = searcher.Search(Query{seeker, kw});
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->size(), want->size()) << "query " << qi;
      for (size_t r = 0; r < want->size(); ++r) {
        EXPECT_EQ((*got)[r].node, (*want)[r].node) << "query " << qi;
        EXPECT_EQ((*got)[r].lower, (*want)[r].lower) << "query " << qi;
        EXPECT_EQ((*got)[r].upper, (*want)[r].upper) << "query " << qi;
      }
      compared += want->size();
    }
  }
  EXPECT_GT(compared, 0u);
}

// ---- Property test: S3k equals brute force over random instances -------------

struct OracleCase {
  uint64_t seed;
  double gamma;
  double eta;
  size_t k;
  size_t n_query_keywords;
};

class OracleComparisonTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(OracleComparisonTest, MatchesBruteForce) {
  const OracleCase& tc = GetParam();
  s3::testing::RandomInstanceParams p;
  p.seed = tc.seed;
  auto ri = s3::testing::BuildRandomInstance(p);
  const S3Instance& inst = *ri.instance;

  S3kOptions opts;
  opts.score.gamma = tc.gamma;
  opts.score.eta = tc.eta;
  opts.k = tc.k;
  opts.max_iterations = 400;

  Rng rng(tc.seed * 31 + 7);
  for (int trial = 0; trial < 4; ++trial) {
    Query q;
    q.seeker = static_cast<social::UserId>(rng.Uniform(inst.UserCount()));
    for (size_t i = 0; i < tc.n_query_keywords; ++i) {
      q.keywords.push_back(
          ri.keywords[rng.Uniform(ri.keywords.size())]);
    }

    SearchStats stats;
    auto s3k = S3kSearcher(inst, opts).Search(q, &stats);
    ASSERT_TRUE(s3k.ok());
    EXPECT_TRUE(stats.converged) << "seed " << tc.seed;

    auto prox = ConvergedProx(inst, q.seeker, tc.gamma, 120);
    auto oracle = NaiveSearchWithProx(inst, q, opts, prox);

    ASSERT_EQ(s3k->size(), oracle.size())
        << "seed " << tc.seed << " trial " << trial;
    // Query answers are unique only up to ties (paper §3.1), so we
    // compare the descending score multisets, not node identities.
    std::vector<double> s3k_scores, oracle_scores;
    for (size_t r = 0; r < oracle.size(); ++r) {
      double s3k_exact = ExactScore(inst, q, opts, (*s3k)[r].node, prox);
      s3k_scores.push_back(s3k_exact);
      oracle_scores.push_back(oracle[r].lower);
      // Reported interval brackets the exact score.
      EXPECT_LE((*s3k)[r].lower, s3k_exact + 1e-7);
      EXPECT_GE((*s3k)[r].upper, s3k_exact - 1e-7);
    }
    std::sort(s3k_scores.rbegin(), s3k_scores.rend());
    std::sort(oracle_scores.rbegin(), oracle_scores.rend());
    for (size_t r = 0; r < oracle_scores.size(); ++r) {
      EXPECT_NEAR(s3k_scores[r], oracle_scores[r], 1e-7)
          << "rank " << r << " seed " << tc.seed << " trial " << trial;
    }
    // No two results are vertical neighbors (Def. 3.2).
    for (size_t i = 0; i < s3k->size(); ++i) {
      for (size_t j = i + 1; j < s3k->size(); ++j) {
        EXPECT_FALSE(inst.docs().AreVerticalNeighbors((*s3k)[i].node,
                                                      (*s3k)[j].node));
      }
    }
    q.keywords.clear();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, OracleComparisonTest,
    ::testing::Values(OracleCase{1, 1.5, 0.5, 3, 1},
                      OracleCase{2, 1.5, 0.5, 3, 1},
                      OracleCase{3, 2.0, 0.5, 5, 1},
                      OracleCase{4, 1.25, 0.7, 3, 2},
                      OracleCase{5, 1.5, 0.3, 4, 2},
                      OracleCase{6, 3.0, 0.5, 2, 1},
                      OracleCase{7, 1.5, 0.5, 8, 1},
                      OracleCase{8, 1.1, 0.9, 3, 1},
                      OracleCase{9, 2.0, 0.5, 3, 2},
                      OracleCase{10, 1.5, 0.5, 1, 1}));

}  // namespace
}  // namespace s3::core
