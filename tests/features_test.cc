// Tests for the extensibility features: RDF-imported social edges
// (paper §2.2), time-budget anytime termination (§4.1), and the
// thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/thread_pool.h"
#include "core/s3_instance.h"
#include "core/s3k.h"
#include "test_fixtures.h"

namespace s3 {
namespace {

// ---- RDF-imported social edges ----------------------------------------------

class RdfSocialTest : public ::testing::Test {
 protected:
  core::S3Instance inst_;
  social::UserId a_ = 0, b_ = 0;

  void SetUp() override {
    a_ = inst_.AddUser("user:a");
    b_ = inst_.AddUser("user:b");
  }

  size_t SocialEdgeCount() {
    return inst_.edges().CountLabel(social::EdgeLabel::kSocial);
  }
};

TEST_F(RdfSocialTest, SubPropertyAssertionBecomesEdge) {
  // workedWith ≺sp S3:social (the paper's §2.2 example).
  inst_.DeclareSubProperty("workedWith", "S3:social");
  inst_.rdf_graph().Add(inst_.terms().InternUri("user:a"),
                        inst_.terms().InternUri("workedWith"),
                        inst_.terms().InternUri("user:b"));
  ASSERT_TRUE(inst_.Finalize().ok());
  EXPECT_EQ(inst_.rdf_social_edges(), 1u);
  EXPECT_EQ(SocialEdgeCount(), 1u);
  const auto& e = inst_.edges().edges()[0];
  EXPECT_EQ(e.source, social::EntityId::User(a_));
  EXPECT_EQ(e.target, social::EntityId::User(b_));
  EXPECT_DOUBLE_EQ(e.weight, 1.0);
}

TEST_F(RdfSocialTest, TransitiveSubPropertyChainImports) {
  inst_.DeclareSubProperty("closeColleague", "colleague");
  inst_.DeclareSubProperty("colleague", "S3:social");
  inst_.rdf_graph().Add(inst_.terms().InternUri("user:a"),
                        inst_.terms().InternUri("closeColleague"),
                        inst_.terms().InternUri("user:b"));
  ASSERT_TRUE(inst_.Finalize().ok());
  EXPECT_EQ(inst_.rdf_social_edges(), 1u);
}

TEST_F(RdfSocialTest, WeightedAssertionKeepsWeight) {
  // Weighted triples do not saturate, but they must still import.
  inst_.DeclareSubProperty("similarTo", "S3:social");
  inst_.rdf_graph().Add(inst_.terms().InternUri("user:a"),
                        inst_.terms().InternUri("similarTo"),
                        inst_.terms().InternUri("user:b"), 0.4);
  ASSERT_TRUE(inst_.Finalize().ok());
  ASSERT_EQ(inst_.rdf_social_edges(), 1u);
  EXPECT_DOUBLE_EQ(inst_.edges().edges()[0].weight, 0.4);
}

TEST_F(RdfSocialTest, NonUserEndpointsIgnored) {
  inst_.DeclareSubProperty("workedWith", "S3:social");
  inst_.rdf_graph().Add(inst_.terms().InternUri("user:a"),
                        inst_.terms().InternUri("workedWith"),
                        inst_.terms().InternUri("company:acme"));
  ASSERT_TRUE(inst_.Finalize().ok());
  EXPECT_EQ(inst_.rdf_social_edges(), 0u);
}

TEST_F(RdfSocialTest, UnrelatedPropertiesIgnored) {
  inst_.rdf_graph().Add(inst_.terms().InternUri("user:a"),
                        inst_.terms().InternUri("knowsAbout"),
                        inst_.terms().InternUri("user:b"));
  ASSERT_TRUE(inst_.Finalize().ok());
  EXPECT_EQ(inst_.rdf_social_edges(), 0u);
}

TEST_F(RdfSocialTest, ImportedEdgeAffectsSearch) {
  // b posts a document; a is connected to b only through RDF.
  KeywordId kw = inst_.InternKeyword("topic");
  doc::Document d("doc");
  d.AddKeywords(0, {kw});
  (void)inst_.AddDocument(std::move(d), "d0", b_).value();
  inst_.DeclareSubProperty("workedWith", "S3:social");
  inst_.rdf_graph().Add(inst_.terms().InternUri("user:a"),
                        inst_.terms().InternUri("workedWith"),
                        inst_.terms().InternUri("user:b"));
  ASSERT_TRUE(inst_.Finalize().ok());

  core::S3kOptions opts;
  opts.k = 1;
  core::S3kSearcher searcher(inst_, opts);
  auto result = searcher.Search(core::Query{a_, {kw}});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_GT((*result)[0].lower, 0.0);
}

// ---- Time budget ---------------------------------------------------------------

TEST(TimeBudgetTest, TinyBudgetStillReturns) {
  auto fig = testing::BuildFigure1();
  core::S3kOptions opts;
  opts.k = 3;
  core::S3kSearcher searcher(*fig.instance, opts);
  core::QueryOptions o;
  o.deadline_seconds = 1e-9;  // expire after the first iteration
  core::SearchStats st;
  auto result = searcher.Search(
      core::QueryRequest(fig.u1, {fig.kw_university}, o), &st);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(st.iterations, 2u);
}

TEST(TimeBudgetTest, GenerousBudgetConverges) {
  auto fig = testing::BuildFigure1();
  core::S3kOptions opts;
  opts.k = 3;
  core::S3kSearcher searcher(*fig.instance, opts);
  core::QueryOptions o;
  o.deadline_seconds = 30.0;
  core::SearchStats st;
  auto result = searcher.Search(
      core::QueryRequest(fig.u1, {fig.kw_university}, o), &st);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(st.converged);
}

// ---- ThreadPool ---------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllIterations) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i) { hits[i]++; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(10, [&](size_t) { total++; });
  }
  EXPECT_EQ(total.load(), 500);
}

TEST(ThreadPoolTest, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.ParallelFor(0, [&](size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolTest, SingleWorkerFloor) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.WorkerCount(), 1u);
  std::atomic<int> n{0};
  pool.ParallelFor(7, [&](size_t) { n++; });
  EXPECT_EQ(n.load(), 7);
}

TEST(ThreadPoolTest, ConcurrentSum) {
  ThreadPool pool(4);
  std::atomic<int64_t> sum{0};
  const size_t n = 10000;
  pool.ParallelFor(n, [&](size_t i) { sum += static_cast<int64_t>(i); });
  EXPECT_EQ(sum.load(), static_cast<int64_t>(n * (n - 1) / 2));
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(1000,
                       [&](size_t i) {
                         if (i == 137) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ExceptionDrainsAndPoolStaysUsable) {
  ThreadPool pool(4);
  // Every iteration throws: exactly one exception must surface, the
  // rest are swallowed, and the pool must be reusable afterwards.
  for (int round = 0; round < 5; ++round) {
    try {
      pool.ParallelFor(100, [&](size_t i) {
        throw std::invalid_argument("iter " + std::to_string(i));
      });
      FAIL() << "ParallelFor should have rethrown";
    } catch (const std::invalid_argument&) {
    }
    std::atomic<int> ok{0};
    pool.ParallelFor(64, [&](size_t) { ok++; });
    EXPECT_EQ(ok.load(), 64);
  }
}

TEST(ThreadPoolTest, HelperLimitCapsConcurrencyButRunsEverything) {
  ThreadPool pool(7);
  pool.SetHelperLimit(1);  // caller + at most one helper
  std::atomic<int> live{0};
  std::atomic<int> peak{0};
  std::atomic<int> done{0};
  pool.ParallelFor(500, [&](size_t) {
    int now = ++live;
    int prev = peak.load();
    while (now > prev && !peak.compare_exchange_weak(prev, now)) {
    }
    done++;
    --live;
  });
  EXPECT_EQ(done.load(), 500);
  EXPECT_LE(peak.load(), 2);
  // Lifting the limit restores full fan-out on the same pool.
  pool.SetHelperLimit(SIZE_MAX);
  done = 0;
  pool.ParallelFor(500, [&](size_t) { done++; });
  EXPECT_EQ(done.load(), 500);
}

}  // namespace
}  // namespace s3
