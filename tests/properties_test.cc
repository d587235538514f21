// Property-style sweeps (TEST_P) over random instances: the score
// feasibility properties of §3.3 and the structural invariants of the
// engine must hold for every seed and parameterization, not just the
// hand-built fixtures.
#include <gtest/gtest.h>

#include <cmath>

#include "core/naive_reference.h"
#include "core/s3k.h"
#include "test_fixtures.h"

namespace s3::core {
namespace {

struct SweepCase {
  uint64_t seed;
  double gamma;
};

class RandomInstanceSweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  void SetUp() override {
    s3::testing::RandomInstanceParams p;
    p.seed = GetParam().seed;
    p.n_users = 8;
    p.n_docs = 10;
    p.n_tags = 8;
    ri_ = s3::testing::BuildRandomInstance(p);
  }
  s3::testing::RandomInstance ri_;
};

TEST_P(RandomInstanceSweep, MatrixRowsSubStochastic) {
  const auto& m = ri_.instance->matrix();
  for (uint32_t row = 0; row < m.rows(); ++row) {
    double sum = s3::testing::SumOfRow(m, row);
    EXPECT_GE(sum, -1e-12);
    EXPECT_LE(sum, 1.0 + 1e-9) << "row " << row;
    if (!m.Row(row).empty()) {
      EXPECT_NEAR(sum, 1.0, 1e-9) << "row " << row;
    }
  }
}

TEST_P(RandomInstanceSweep, PropagateMatchesRowReference) {
  // A 5-step chain from every user must equal the Row() reference bit
  // for bit.
  const auto& m = ri_.instance->matrix();
  const s3::testing::ReferenceRows rows = s3::testing::RowsOf(m);
  social::Frontier in, out;
  in.Init(m.rows());
  out.Init(m.rows());
  std::vector<double> ref, next;
  for (social::UserId u = 0; u < ri_.instance->UserCount(); ++u) {
    in.Clear();
    in.Set(ri_.instance->RowOfUser(u), 1.0);
    ref.assign(m.rows(), 0.0);
    ref[ri_.instance->RowOfUser(u)] = 1.0;
    for (int step = 0; step < 5; ++step) {
      m.Propagate(in, out);
      std::swap(in, out);
      s3::testing::ReferenceStep(rows, ref, next);
      ref.swap(next);
      for (size_t row = 0; row < m.rows(); ++row) {
        ASSERT_EQ(in.values[row], ref[row])
            << "step " << step << " user " << u << " row " << row;
      }
    }
  }
}

TEST_P(RandomInstanceSweep, ProxMonotoneAndBounded) {
  const double gamma = GetParam().gamma;
  std::vector<double> prev(ri_.instance->layout().total(), 0.0);
  for (size_t len = 1; len <= 5; ++len) {
    auto prox = NaiveProx(*ri_.instance, 0, len, gamma);
    for (size_t row = 0; row < prox.size(); ++row) {
      EXPECT_GE(prox[row], prev[row] - 1e-12);
      EXPECT_LE(prox[row], 1.0 + 1e-9);
    }
    prev = std::move(prox);
  }
}

TEST_P(RandomInstanceSweep, AttenuationBoundHolds) {
  const double gamma = GetParam().gamma;
  for (size_t n = 1; n <= 4; ++n) {
    auto shorter = NaiveProx(*ri_.instance, 0, n, gamma);
    auto longer = NaiveProx(*ri_.instance, 0, n + 1, gamma);
    const double bound = TailBound(gamma, n);
    for (size_t row = 0; row < shorter.size(); ++row) {
      EXPECT_LE(longer[row] - shorter[row], bound + 1e-12)
          << "n=" << n << " row=" << row;
    }
  }
}

TEST_P(RandomInstanceSweep, MatrixEqualsPathEnumeration) {
  const double gamma = GetParam().gamma;
  const size_t max_len = 5;
  auto naive = NaiveProx(*ri_.instance, 0, max_len, gamma);
  auto prox = s3::testing::ConvergedProx(*ri_.instance, 0, gamma, max_len);
  for (size_t row = 0; row < prox.size(); ++row) {
    EXPECT_NEAR(prox[row], naive[row], 1e-9) << "row " << row;
  }
}

TEST_P(RandomInstanceSweep, SearchBoundsBracketTruth) {
  const double gamma = GetParam().gamma;
  S3kOptions opts;
  opts.score.gamma = gamma;
  opts.k = 5;
  opts.max_iterations = 300;
  S3kSearcher searcher(*ri_.instance, opts);

  const auto prox =
      s3::testing::ConvergedProx(*ri_.instance, 1 % 8, gamma, 1500);
  Query q{1 % 8, {ri_.keywords[GetParam().seed % ri_.keywords.size()]}};
  SearchStats st;
  auto result = searcher.Search(q, &st);
  ASSERT_TRUE(result.ok());
  for (const ResultEntry& r : *result) {
    const double truth =
        s3::testing::ExactScore(*ri_.instance, q, opts, r.node, prox);
    EXPECT_LE(r.lower, truth + 1e-7);
    EXPECT_GE(r.upper, truth - 1e-7);
  }
}

TEST_P(RandomInstanceSweep, CandidateUniverseRespectsComponents) {
  // Every candidate's component must contain every query keyword (or
  // a member of its extension) — the GetDocuments pruning invariant.
  S3kOptions opts;
  opts.k = 3;
  S3kSearcher searcher(*ri_.instance, opts);
  Query q{0, {ri_.keywords[0]}};
  SearchStats st;
  auto result = searcher.Search(q, &st);
  ASSERT_TRUE(result.ok());
  std::unordered_set<KeywordId> accepted;
  for (KeywordId k : ri_.instance->ExtendKeyword(q.keywords[0])) {
    accepted.insert(k);
  }
  for (doc::NodeId n : st.candidate_nodes) {
    social::ComponentId c =
        ri_.instance->components().Of(social::EntityId::Fragment(n));
    bool found = false;
    for (KeywordId k : accepted) {
      for (social::ComponentId ck :
           ri_.instance->ComponentsWithKeyword(k)) {
        if (ck == c) {
          found = true;
          break;
        }
      }
      if (found) break;
    }
    EXPECT_TRUE(found) << "candidate " << n << " in component " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomInstanceSweep,
    ::testing::Values(SweepCase{11, 1.5}, SweepCase{12, 1.5},
                      SweepCase{13, 2.0}, SweepCase{14, 1.25},
                      SweepCase{15, 3.0}, SweepCase{16, 1.1},
                      SweepCase{17, 1.5}, SweepCase{18, 2.5},
                      SweepCase{19, 1.75}, SweepCase{20, 1.5}));

// ---- Tie handling -------------------------------------------------------------

TEST(TieBreakTest, SymmetricTwinsResolveWithoutDivergence) {
  // Two identical documents posted by the same user: equal scores.
  // The search must terminate and return both (any order).
  S3Instance inst;
  auto u = inst.AddUser("u");
  KeywordId kw = inst.InternKeyword("x");
  for (int i = 0; i < 2; ++i) {
    doc::Document d("doc");
    d.AddKeywords(0, {kw});
    (void)inst.AddDocument(std::move(d), "d" + std::to_string(i), u)
        .value();
  }
  ASSERT_TRUE(inst.Finalize().ok());
  S3kOptions opts;
  opts.k = 2;
  S3kSearcher searcher(inst, opts);
  SearchStats st;
  auto result = searcher.Search(Query{u, {kw}}, &st);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  EXPECT_TRUE(st.converged);
  EXPECT_NEAR((*result)[0].lower, (*result)[1].lower, 1e-9);
}

TEST(TieBreakTest, AncestorDescendantTieExcludesOne) {
  // A single-child chain where the keyword sits in the leaf: the leaf
  // (η⁰) beats the root (η¹), and only one of the two vertical
  // neighbors may be returned.
  S3Instance inst;
  auto u = inst.AddUser("u");
  KeywordId kw = inst.InternKeyword("x");
  doc::Document d("doc");
  uint32_t child = d.AddChild(0, "c");
  d.AddKeywords(child, {kw});
  (void)inst.AddDocument(std::move(d), "d0", u).value();
  ASSERT_TRUE(inst.Finalize().ok());
  S3kOptions opts;
  opts.k = 2;
  S3kSearcher searcher(inst, opts);
  auto result = searcher.Search(Query{u, {kw}});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
}

}  // namespace
}  // namespace s3::core
