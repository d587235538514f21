#include <gtest/gtest.h>

#include <cmath>

#include "core/naive_reference.h"
#include "core/score.h"
#include "test_fixtures.h"

namespace s3::core {
namespace {

// ---- Constants -------------------------------------------------------------

TEST(ScoreConstantsTest, CGamma) {
  EXPECT_DOUBLE_EQ(CGamma(2.0), 0.5);
  EXPECT_NEAR(CGamma(1.5), 1.0 / 3.0, 1e-12);
}

TEST(ScoreConstantsTest, TailBoundGeometric) {
  // B>n = γ^-(n+1): the exact tail of Cγ Σ_{m>n} γ^-m with unit path
  // mass per length.
  const double gamma = 1.5;
  for (size_t n = 0; n < 10; ++n) {
    double expected = 0.0;
    for (size_t m = n + 1; m < 200; ++m) {
      expected += CGamma(gamma) * std::pow(gamma, -double(m));
    }
    EXPECT_NEAR(TailBound(gamma, n), expected, 1e-9) << n;
  }
}

TEST(ScoreConstantsTest, UndiscoveredBoundDominatesTail) {
  for (size_t n = 1; n < 8; ++n) {
    EXPECT_GT(UndiscoveredBound(1.5, n), TailBound(1.5, n));
  }
}

// ---- Candidate scoring -------------------------------------------------------

Candidate MakeCandidate(
    std::vector<std::vector<std::pair<uint32_t, float>>> sources) {
  Candidate c;
  c.node = 0;
  c.sources = std::move(sources);
  for (auto& per_kw : c.sources) {
    double w = 0;
    for (auto& [s, v] : per_kw) w += v;
    c.static_weight.push_back(w);
  }
  c.cap = 1.0;
  for (double w : c.static_weight) c.cap *= w;
  return c;
}

TEST(CandidateScoreTest, ProductOfKeywordSums) {
  Candidate c = MakeCandidate({{{0, 1.0f}, {1, 0.5f}}, {{2, 2.0f}}});
  std::vector<double> prox = {0.5, 1.0, 0.25};
  // (1*0.5 + 0.5*1.0) * (2*0.25) = 1.0 * 0.5
  EXPECT_NEAR(CandidateScore(c, prox), 0.5, 1e-12);
}

TEST(CandidateScoreTest, ZeroProxKeywordZeroesScore) {
  Candidate c = MakeCandidate({{{0, 1.0f}}, {{1, 1.0f}}});
  std::vector<double> prox = {1.0, 0.0};
  EXPECT_DOUBLE_EQ(CandidateScore(c, prox), 0.0);
}

TEST(CandidateScoreTest, BoundsSandwichScore) {
  Candidate c = MakeCandidate({{{0, 1.0f}, {1, 0.5f}}, {{1, 2.0f}}});
  std::vector<double> partial = {0.2, 0.1};
  const std::vector<double> colmax = {0.5, 0.4};
  double tail = 0.05;
  // The most the unexplored paths can add: at most colmax[r]·tail per
  // row and at most tail in total (the column-max tail, score.h).
  std::vector<double> final_prox = {0.2 + 0.5 * tail, 0.1 + 0.4 * tail};
  double lower = CandidateLowerBound(c, partial);
  double upper = CandidateUpperBound(c, partial, colmax, tail);
  double truth = CandidateScore(c, final_prox);
  EXPECT_LE(lower, truth + 1e-12);
  EXPECT_GE(upper, truth - 1e-12);
  // Tight: c is 0.7 and 0.8 here, below both W (1.5, 2) and w_max.
  EXPECT_NEAR(upper, (0.25 + 0.7 * tail) * (0.2 + 0.8 * tail), 1e-9);
}

TEST(CandidateScoreTest, UpperBoundClampsProxAtOne) {
  Candidate c = MakeCandidate({{{0, 1.0f}}});
  std::vector<double> partial = {0.9};
  EXPECT_NEAR(CandidateUpperBound(c, partial, {1.0}, 0.5), 1.0, 1e-12);
}

TEST(CandidateScoreTest, TailCoefficientTakesTheSmallestCap) {
  const std::vector<double> colmax = {0.25, 0.75, 1.0};
  auto coef = [&](std::vector<std::pair<uint32_t, float>> src) {
    return TailCoefficient(src, colmax) / kTailMargin;
  };
  // Σ w·colmax = 0.5 + 1 is below w_max = 2 and W = 3.
  EXPECT_NEAR(coef({{0, 2.0f}, {2, 1.0f}}), 1.5, 1e-12);
  // w_max = 1 is below Σ w·colmax = 1.75 and W = 2.
  EXPECT_NEAR(coef({{1, 1.0f}, {2, 1.0f}}), 1.0, 1e-12);
  // A row listed twice voids the w_max cap: Σ w·colmax = 1.5.
  EXPECT_NEAR(coef({{1, 1.0f}, {1, 1.0f}}), 1.5, 1e-12);
  // Never above W, margin included.
  EXPECT_EQ(TailCoefficient({{2, 1.0f}}, colmax), 1.0);
  EXPECT_EQ(TailCoefficient({}, colmax), 0.0);
}

// ---- Feasibility properties on a real instance -----------------------------
//
// These are the paper's §3.3 conditions, checked numerically on the
// Figure 3 fixture via the naive path enumerator.

class FeasibilityTest : public ::testing::Test {
 protected:
  void SetUp() override { fig_ = s3::testing::BuildFigure3(); }
  s3::testing::Figure3 fig_;
};

TEST_F(FeasibilityTest, ProxIsMonotoneInPathLength) {
  // prox≤n grows with n (adding paths only increases proximity).
  const double gamma = 1.5;
  std::vector<double> prev(fig_.instance->layout().total(), 0.0);
  for (size_t len = 1; len <= 6; ++len) {
    auto prox = NaiveProx(*fig_.instance, fig_.u0, len, gamma);
    for (size_t row = 0; row < prox.size(); ++row) {
      EXPECT_GE(prox[row], prev[row] - 1e-12) << "row " << row;
    }
    prev = std::move(prox);
  }
}

TEST_F(FeasibilityTest, ProxBoundedByOne) {
  auto prox = NaiveProx(*fig_.instance, fig_.u0, 8, 1.25);
  for (double p : prox) {
    EXPECT_LE(p, 1.0 + 1e-9);
    EXPECT_GE(p, 0.0);
  }
}

TEST_F(FeasibilityTest, LongPathAttenuation) {
  // prox≤(n+1) − prox≤n ≤ B>n for every node: the tail bound really
  // bounds what longer paths can add.
  const double gamma = 1.5;
  for (size_t n = 1; n <= 5; ++n) {
    auto shorter = NaiveProx(*fig_.instance, fig_.u0, n, gamma);
    auto longer = NaiveProx(*fig_.instance, fig_.u0, n + 1, gamma);
    const double bound = TailBound(gamma, n);
    for (size_t row = 0; row < shorter.size(); ++row) {
      EXPECT_LE(longer[row] - shorter[row], bound + 1e-12)
          << "n=" << n << " row=" << row;
    }
  }
}

TEST_F(FeasibilityTest, SeekerSelfProximityIncludesEmptyPath) {
  const double gamma = 2.0;
  auto prox = NaiveProx(*fig_.instance, fig_.u0, 0, gamma);
  EXPECT_NEAR(prox[fig_.instance->RowOfUser(fig_.u0)], CGamma(gamma),
              1e-12);
}

TEST_F(FeasibilityTest, MatrixMatchesNaiveEnumeration) {
  // The transition-matrix power iteration and the explicit DFS must
  // compute the same prox≤n — two independent implementations of §2.5.
  const double gamma = 1.5;
  const size_t max_len = 6;
  auto naive = NaiveProx(*fig_.instance, fig_.u0, max_len, gamma);

  auto prox =
      s3::testing::ConvergedProx(*fig_.instance, fig_.u0, gamma, max_len);
  for (size_t row = 0; row < prox.size(); ++row) {
    EXPECT_NEAR(prox[row], naive[row], 1e-9) << "row " << row;
  }
}

TEST_F(FeasibilityTest, BestPathProxNeverExceedsAllPathsProx) {
  const double gamma = 1.5;
  auto all = NaiveProx(*fig_.instance, fig_.u0, 7, gamma);
  auto best = NaiveBestPathProx(*fig_.instance, fig_.u0, 7, gamma);
  for (size_t row = 0; row < all.size(); ++row) {
    EXPECT_LE(best[row], all[row] + 1e-9) << "row " << row;
  }
}

}  // namespace
}  // namespace s3::core
