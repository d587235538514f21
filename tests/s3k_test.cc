#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

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
