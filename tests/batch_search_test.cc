// Batched multi-seeker search (S3kSearcher::SearchBatchWithPlan) must
// be *bit-for-bit* what per-query SearchWithPlan produces for every
// member — same entries, same bounds, same stats — at every batch
// width, for mixed per-member k, and across mid-batch seeker dropout
// (one member converging iterations before another). The sweep also
// pins the batched path to the NaiveSearch oracle so the equivalence
// is not just internal consistency.
//
// EXPECT_EQ on doubles is deliberate: the batched engine streams all
// seeker lanes through one CSR walk, and the whole design contract is
// that each lane runs the exact single-seeker operation sequence —
// tolerance here would hide a broken contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/rng.h"
#include "core/naive_reference.h"
#include "core/s3k.h"
#include "test_fixtures.h"

namespace s3::core {
namespace {

using s3::testing::ConvergedProx;
using s3::testing::ExactScore;

S3kOptions TestOptions() {
  S3kOptions opts;
  opts.k = 4;
  opts.score.gamma = 1.5;
  opts.max_iterations = 400;
  return opts;
}

// Asserts one batched member result is bitwise what SearchWithPlan
// returned for the same seeker/k.
void ExpectBitIdentical(const BatchQueryResult& batched,
                        const std::vector<ResultEntry>& entries,
                        const SearchStats& stats, const char* what) {
  ASSERT_EQ(batched.entries.size(), entries.size()) << what;
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(batched.entries[i].node, entries[i].node) << what << " #" << i;
    EXPECT_EQ(batched.entries[i].lower, entries[i].lower) << what << " #" << i;
    EXPECT_EQ(batched.entries[i].upper, entries[i].upper) << what << " #" << i;
  }
  EXPECT_EQ(batched.stats.iterations, stats.iterations) << what;
  EXPECT_EQ(batched.stats.converged, stats.converged) << what;
  EXPECT_EQ(batched.stats.components_discovered, stats.components_discovered)
      << what;
  EXPECT_EQ(batched.stats.candidates_cleaned, stats.candidates_cleaned)
      << what;
  EXPECT_EQ(batched.stats.kth_lower, stats.kth_lower) << what;
  EXPECT_EQ(batched.stats.remaining_upper, stats.remaining_upper) << what;
}

TEST(BatchSearchTest, RejectsBadBatches) {
  auto fig = s3::testing::BuildFigure3();
  S3kSearcher searcher(*fig.instance, TestOptions());
  auto plan = BuildCandidatePlan(*fig.instance, {fig.k0}, true, 0.5);
  ASSERT_TRUE(plan.ok());

  EXPECT_FALSE(searcher.SearchBatchWithPlan({}, *plan).ok());
  EXPECT_FALSE(
      searcher.SearchBatchWithPlan({BatchSeeker{99, 0}}, *plan).ok());
  std::vector<BatchSeeker> too_many(S3kSearcher::kMaxBatch + 1,
                                    BatchSeeker{fig.u0, 0});
  EXPECT_FALSE(searcher.SearchBatchWithPlan(too_many, *plan).ok());
}

// Widths 1, 2 and 8 over several random instances: every member of
// every batch is bitwise the per-query answer. Width 8 exceeds the
// 6-user default instance, so repeated seekers ride along too.
TEST(BatchSearchTest, WidthSweepBitForBitMatchesPerQuery) {
  for (uint64_t seed : {1u, 2u, 5u}) {
    s3::testing::RandomInstanceParams p;
    p.seed = seed;
    auto ri = s3::testing::BuildRandomInstance(p);
    const S3Instance& inst = *ri.instance;
    S3kOptions opts = TestOptions();

    std::vector<KeywordId> kws = {ri.keywords[0], ri.keywords[2]};
    std::sort(kws.begin(), kws.end());
    auto plan =
        BuildCandidatePlan(inst, kws, opts.use_semantics, opts.score.eta);
    ASSERT_TRUE(plan.ok());

    S3kSearcher searcher(inst, opts);
    for (size_t width : {1u, 2u, 8u}) {
      std::vector<BatchSeeker> batch(width);
      for (size_t s = 0; s < width; ++s) {
        batch[s].seeker =
            static_cast<social::UserId>(s % inst.UserCount());
      }
      auto batched = searcher.SearchBatchWithPlan(batch, *plan);
      ASSERT_TRUE(batched.ok()) << "seed " << seed << " width " << width;
      ASSERT_EQ(batched->size(), width);

      for (size_t s = 0; s < width; ++s) {
        SearchStats stats;
        auto single = searcher.SearchWithPlan(
            Query{batch[s].seeker, kws}, *plan, &stats);
        ASSERT_TRUE(single.ok());
        ExpectBitIdentical((*batched)[s], *single, stats, "member");
      }
    }
  }
}

// Batched results match the brute-force oracle: same result count and
// the same descending exact-score multiset (answers are unique only up
// to ties, paper §3.1) — so batching agrees with the ground truth, not
// merely with the incremental engine.
TEST(BatchSearchTest, MatchesNaiveOracle) {
  s3::testing::RandomInstanceParams p;
  p.seed = 3;
  auto ri = s3::testing::BuildRandomInstance(p);
  const S3Instance& inst = *ri.instance;
  S3kOptions opts = TestOptions();

  std::vector<KeywordId> kws = {ri.keywords[1]};
  auto plan =
      BuildCandidatePlan(inst, kws, opts.use_semantics, opts.score.eta);
  ASSERT_TRUE(plan.ok());

  const size_t width = 6;
  std::vector<BatchSeeker> batch(width);
  for (size_t s = 0; s < width; ++s) {
    batch[s].seeker = static_cast<social::UserId>(s % inst.UserCount());
  }
  S3kSearcher searcher(inst, opts);
  auto batched = searcher.SearchBatchWithPlan(batch, *plan);
  ASSERT_TRUE(batched.ok());

  for (size_t s = 0; s < width; ++s) {
    EXPECT_TRUE((*batched)[s].stats.converged) << "member " << s;
    auto prox = ConvergedProx(inst, batch[s].seeker, opts.score.gamma);
    auto oracle =
        NaiveSearchWithProx(inst, Query{batch[s].seeker, kws}, opts, prox);
    ASSERT_EQ((*batched)[s].entries.size(), oracle.size()) << "member " << s;
    std::vector<double> got, want;
    for (size_t r = 0; r < oracle.size(); ++r) {
      const ResultEntry& e = (*batched)[s].entries[r];
      const double exact =
          ExactScore(inst, Query{batch[s].seeker, kws}, opts, e.node, prox);
      // The reported interval brackets the exact score…
      EXPECT_LE(e.lower, exact + 1e-7) << "member " << s << " rank " << r;
      EXPECT_GE(e.upper, exact - 1e-7) << "member " << s << " rank " << r;
      got.push_back(exact);
      want.push_back(oracle[r].lower);
    }
    std::sort(got.rbegin(), got.rend());
    std::sort(want.rbegin(), want.rend());
    for (size_t r = 0; r < want.size(); ++r) {
      EXPECT_NEAR(got[r], want[r], 1e-7) << "member " << s << " rank " << r;
    }
  }
}

// Mixed per-member k in one batch: each member is bitwise the answer
// of a searcher configured with that k.
TEST(BatchSearchTest, MixedKBatchMatchesPerK) {
  s3::testing::RandomInstanceParams p;
  p.seed = 4;
  auto ri = s3::testing::BuildRandomInstance(p);
  const S3Instance& inst = *ri.instance;
  S3kOptions opts = TestOptions();

  std::vector<KeywordId> kws = {ri.keywords[0]};
  auto plan =
      BuildCandidatePlan(inst, kws, opts.use_semantics, opts.score.eta);
  ASSERT_TRUE(plan.ok());

  const size_t mixed_k[] = {1, 3, 8, 2};
  std::vector<BatchSeeker> batch;
  for (size_t s = 0; s < 4; ++s) {
    batch.push_back(BatchSeeker{
        static_cast<social::UserId>(s % inst.UserCount()), mixed_k[s]});
  }
  S3kSearcher batcher(inst, opts);
  auto batched = batcher.SearchBatchWithPlan(batch, *plan);
  ASSERT_TRUE(batched.ok());

  for (size_t s = 0; s < batch.size(); ++s) {
    S3kOptions per_k = opts;
    per_k.k = mixed_k[s];
    S3kSearcher single(inst, per_k);
    SearchStats stats;
    auto result =
        single.SearchWithPlan(Query{batch[s].seeker, kws}, *plan, &stats);
    ASSERT_TRUE(result.ok());
    ExpectBitIdentical((*batched)[s], *result, stats, "mixed-k member");
  }
}

// Seeker dropout: members of one batch converge at different
// iterations (asserted, not assumed), and the early finisher leaving
// the batch must not perturb the survivors — everyone still matches
// the per-query run bitwise. k=1 members converge fast; k=8 members
// keep iterating after the k=1 lanes dropped out.
TEST(BatchSearchTest, SeekerDropoutMidBatchIsInert) {
  s3::testing::RandomInstanceParams p;
  p.seed = 7;
  p.n_users = 10;
  p.n_docs = 12;
  auto ri = s3::testing::BuildRandomInstance(p);
  const S3Instance& inst = *ri.instance;
  S3kOptions opts = TestOptions();

  std::vector<KeywordId> kws = {ri.keywords[0], ri.keywords[3]};
  std::sort(kws.begin(), kws.end());
  auto plan =
      BuildCandidatePlan(inst, kws, opts.use_semantics, opts.score.eta);
  ASSERT_TRUE(plan.ok());

  std::vector<BatchSeeker> batch;
  for (size_t s = 0; s < 8; ++s) {
    batch.push_back(BatchSeeker{
        static_cast<social::UserId>(s % inst.UserCount()),
        s % 2 == 0 ? size_t{1} : size_t{8}});
  }
  S3kSearcher searcher(inst, opts);
  auto batched = searcher.SearchBatchWithPlan(batch, *plan);
  ASSERT_TRUE(batched.ok());

  std::set<size_t> distinct_iters;
  for (size_t s = 0; s < batch.size(); ++s) {
    distinct_iters.insert((*batched)[s].stats.iterations);
    S3kOptions per_k = opts;
    per_k.k = batch[s].k;
    S3kSearcher single(inst, per_k);
    SearchStats stats;
    auto result =
        single.SearchWithPlan(Query{batch[s].seeker, kws}, *plan, &stats);
    ASSERT_TRUE(result.ok());
    ExpectBitIdentical((*batched)[s], *result, stats, "dropout member");
  }
  // The premise of the test: somebody actually dropped out mid-batch.
  EXPECT_GT(distinct_iters.size(), 1u)
      << "all members converged together; dropout path not exercised";
}

// The anytime path batches too: a hard iteration cap cuts every member
// off mid-exploration, and the partial (non-converged) answers are
// still bitwise the per-query partial answers.
TEST(BatchSearchTest, AnytimeCutoffBitForBit) {
  s3::testing::RandomInstanceParams p;
  p.seed = 6;
  auto ri = s3::testing::BuildRandomInstance(p);
  const S3Instance& inst = *ri.instance;
  S3kOptions opts = TestOptions();
  opts.max_iterations = 2;

  std::vector<KeywordId> kws = {ri.keywords[2]};
  auto plan =
      BuildCandidatePlan(inst, kws, opts.use_semantics, opts.score.eta);
  ASSERT_TRUE(plan.ok());

  std::vector<BatchSeeker> batch(4);
  for (size_t s = 0; s < batch.size(); ++s) {
    batch[s].seeker = static_cast<social::UserId>(s % inst.UserCount());
  }
  S3kSearcher searcher(inst, opts);
  auto batched = searcher.SearchBatchWithPlan(batch, *plan);
  ASSERT_TRUE(batched.ok());
  for (size_t s = 0; s < batch.size(); ++s) {
    SearchStats stats;
    auto single =
        searcher.SearchWithPlan(Query{batch[s].seeker, kws}, *plan, &stats);
    ASSERT_TRUE(single.ok());
    ExpectBitIdentical((*batched)[s], *single, stats, "anytime member");
  }
}

}  // namespace
}  // namespace s3::core
