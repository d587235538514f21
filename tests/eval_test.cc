#include <gtest/gtest.h>

#include <algorithm>

#include "eval/metrics.h"
#include "eval/runtime.h"

namespace s3::eval {
namespace {

// ---- Spearman foot rule ----------------------------------------------------

TEST(FootRuleTest, IdenticalListsAreZero) {
  std::vector<uint64_t> l = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(SpearmanFootRule(l, l), 0.0);
  EXPECT_DOUBLE_EQ(SpearmanFootRuleNormalized(l, l), 0.0);
}

TEST(FootRuleTest, DisjointListsAreMaximal) {
  std::vector<uint64_t> a = {1, 2, 3};
  std::vector<uint64_t> b = {4, 5, 6};
  // 2k(k+1) − Σ ranks both lists = k(k+1) = 12 for k=3.
  EXPECT_DOUBLE_EQ(SpearmanFootRule(a, b), 12.0);
  EXPECT_DOUBLE_EQ(SpearmanFootRuleNormalized(a, b), 1.0);
}

TEST(FootRuleTest, SwapCosts) {
  std::vector<uint64_t> a = {1, 2};
  std::vector<uint64_t> b = {2, 1};
  // Common items with rank displacement 1 each: L1 = 0 + 2 - 0 = 2.
  EXPECT_DOUBLE_EQ(SpearmanFootRule(a, b), 2.0);
}

TEST(FootRuleTest, Symmetric) {
  std::vector<uint64_t> a = {1, 2, 3, 7};
  std::vector<uint64_t> b = {3, 9, 1, 5};
  EXPECT_DOUBLE_EQ(SpearmanFootRule(a, b), SpearmanFootRule(b, a));
}

TEST(FootRuleTest, NormalizedInUnitInterval) {
  std::vector<uint64_t> a = {1, 2, 3, 4};
  std::vector<uint64_t> b = {2, 4, 6, 8};
  double v = SpearmanFootRuleNormalized(a, b);
  EXPECT_GE(v, 0.0);
  EXPECT_LE(v, 1.0);
}

TEST(FootRuleTest, EmptyLists) {
  EXPECT_DOUBLE_EQ(SpearmanFootRule({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(SpearmanFootRuleNormalized({}, {}), 0.0);
}

// ---- Intersection ratio ---------------------------------------------------

TEST(IntersectionTest, Full) {
  std::vector<uint64_t> a = {1, 2, 3};
  EXPECT_DOUBLE_EQ(IntersectionRatio(a, a), 1.0);
}

TEST(IntersectionTest, Partial) {
  EXPECT_DOUBLE_EQ(IntersectionRatio({1, 2, 3, 4}, {3, 4, 5, 6}), 0.5);
}

TEST(IntersectionTest, UnequalLengthsUseMax) {
  EXPECT_DOUBLE_EQ(IntersectionRatio({1, 2, 3, 4}, {1}), 0.25);
}

TEST(IntersectionTest, Empty) {
  EXPECT_DOUBLE_EQ(IntersectionRatio({}, {}), 0.0);
}

// ---- UnreachableFraction -----------------------------------------------------

TEST(UnreachableTest, AllReachable) {
  EXPECT_DOUBLE_EQ(UnreachableFraction({1, 2}, {1, 2, 3}), 0.0);
}

TEST(UnreachableTest, NoneReachable) {
  EXPECT_DOUBLE_EQ(UnreachableFraction({1, 2}, {}), 1.0);
}

TEST(UnreachableTest, Half) {
  EXPECT_DOUBLE_EQ(UnreachableFraction({1, 2, 3, 4}, {1, 2}), 0.5);
}

TEST(UnreachableTest, EmptyUniverse) {
  EXPECT_DOUBLE_EQ(UnreachableFraction({}, {1}), 0.0);
}

// ---- RuntimeSeries / TablePrinter ---------------------------------------------

TEST(RuntimeSeriesTest, MedianAndQuartiles) {
  RuntimeSeries s;
  for (double v : {0.5, 0.1, 0.3, 0.9, 0.7}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.MedianSeconds(), 0.5);
  auto q = s.Quartiles();
  EXPECT_DOUBLE_EQ(q.min, 0.1);
  EXPECT_DOUBLE_EQ(q.max, 0.9);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"workload", "median"});
  t.AddRow({"+,1,5", "0.123"});
  t.AddRow({"-,5,10", "0.001"});
  std::string out = t.Render();
  EXPECT_NE(out.find("workload"), std::string::npos);
  EXPECT_NE(out.find("+,1,5"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  // Three content lines + header + rule.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(FormattersTest, Seconds) { EXPECT_EQ(FormatSeconds(0.1234), "0.123"); }

TEST(FormattersTest, Percent) { EXPECT_EQ(FormatPercent(0.123), "12.3%"); }

}  // namespace
}  // namespace s3::eval
