// Edge-case coverage across the engine: degenerate queries, isolated
// seekers, deep/wide documents, saturation diamonds, TopkS budgets.
#include <gtest/gtest.h>

#include "baseline/topks.h"
#include "baseline/uit.h"
#include "core/s3k.h"
#include "rdf/saturation.h"
#include "rdf/vocab.h"
#include "test_fixtures.h"

namespace s3 {
namespace {

using core::Query;
using core::S3Instance;
using core::S3kOptions;
using core::S3kSearcher;
using core::SearchStats;

// ---- degenerate queries -----------------------------------------------------

class DegenerateQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    u_ = inst_.AddUser("u");
    v_ = inst_.AddUser("v");
    kw_ = inst_.InternKeyword("alpha");
    other_ = inst_.InternKeyword("never-used");
    doc::Document d("doc");
    d.AddKeywords(0, {kw_});
    (void)inst_.AddDocument(std::move(d), "d0", v_).value();
    (void)inst_.AddSocialEdge(u_, v_, 0.5);
    ASSERT_TRUE(inst_.Finalize().ok());
  }
  S3Instance inst_;
  social::UserId u_ = 0, v_ = 0;
  KeywordId kw_ = 0, other_ = 0;
};

TEST_F(DegenerateQueryTest, AbsentKeywordGivesNoResults) {
  S3kSearcher searcher(inst_, S3kOptions{});
  SearchStats st;
  auto r = searcher.Search(Query{u_, {other_}}, &st);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  EXPECT_TRUE(st.converged);
  EXPECT_EQ(st.components_passing, 0u);
}

TEST_F(DegenerateQueryTest, DuplicateKeywordSquaresScore) {
  // {k, k} requires the same keyword twice: score becomes the square
  // of the single-keyword score (the model multiplies per keyword).
  S3kOptions opts;
  opts.k = 1;
  S3kSearcher searcher(inst_, opts);
  auto one = searcher.Search(Query{u_, {kw_}});
  auto two = searcher.Search(Query{u_, {kw_, kw_}});
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(two.ok());
  ASSERT_EQ(one->size(), 1u);
  ASSERT_EQ(two->size(), 1u);
  EXPECT_NEAR((*two)[0].lower, (*one)[0].lower * (*one)[0].lower, 1e-9);
}

TEST_F(DegenerateQueryTest, KLargerThanMatchesReturnsAll) {
  S3kOptions opts;
  opts.k = 50;
  S3kSearcher searcher(inst_, opts);
  SearchStats st;
  auto r = searcher.Search(Query{u_, {kw_}}, &st);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);  // only one document exists
  EXPECT_TRUE(st.converged);
}

TEST_F(DegenerateQueryTest, SeekerIsPosterScoresOwnContent) {
  S3kSearcher searcher(inst_, S3kOptions{});
  auto r = searcher.Search(Query{v_, {kw_}});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_GT((*r)[0].lower, 0.0);
}

TEST(IsolatedSeekerTest, NoEdgesMeansOnlySelfPaths) {
  // The seeker has no outgoing edges: no document is reachable, every
  // prox is 0, and the search terminates with zero-score results
  // filtered out.
  S3Instance inst;
  auto loner = inst.AddUser("loner");
  auto author = inst.AddUser("author");
  KeywordId kw = inst.InternKeyword("alpha");
  doc::Document d("doc");
  d.AddKeywords(0, {kw});
  (void)inst.AddDocument(std::move(d), "d0", author).value();
  ASSERT_TRUE(inst.Finalize().ok());

  S3kSearcher searcher(inst, S3kOptions{});
  SearchStats st;
  auto r = searcher.Search(Query{loner, {kw}}, &st);
  ASSERT_TRUE(r.ok());
  // The candidate exists but its only source is unreachable: either
  // dropped or returned with a zero interval.
  for (const auto& e : *r) {
    EXPECT_LE(e.upper, 1e-9);
  }
  EXPECT_TRUE(st.converged);
}

// ---- deep and wide documents ---------------------------------------------

TEST(DeepDocumentTest, ChainOfFiftyLevels) {
  S3Instance inst;
  auto u = inst.AddUser("u");
  KeywordId kw = inst.InternKeyword("needle");
  doc::Document d("root");
  uint32_t cur = 0;
  for (int i = 0; i < 50; ++i) cur = d.AddChild(cur, "level");
  d.AddKeywords(cur, {kw});
  auto id = inst.AddDocument(std::move(d), "deep", u).value();
  // pos length from root to leaf is 50.
  const doc::NodeId root = inst.docs().RootNode(id);
  const doc::NodeId leaf = inst.docs().GlobalId(id, 50);
  EXPECT_EQ(inst.docs().PosLength(root, leaf), 50u);
  // The seeker's own tag on the leaf gives the keyword a source the
  // seeker reaches (itself); the contains connection alone would not,
  // since the seeker reaches only the root.
  ASSERT_TRUE(inst.AddTagOnFragment(u, leaf, kw).ok());
  ASSERT_TRUE(inst.Finalize().ok());

  // The leaf dominates the root: the seeker source weighs η^0 at the
  // leaf vs η^50 at the root.
  S3kOptions opts;
  opts.k = 1;
  S3kSearcher searcher(inst, opts);
  const Query q{u, {kw}};
  auto r = searcher.Search(q);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].node, leaf);
  const auto prox = s3::testing::ConvergedProx(inst, u, opts.score.gamma);
  EXPECT_GE(s3::testing::ExactScore(inst, q, opts, (*r)[0].node, prox),
            s3::testing::ExactScore(inst, q, opts, root, prox));
}

TEST(WideDocumentTest, ManySiblingsDeweyOrder) {
  S3Instance inst;
  auto u = inst.AddUser("u");
  doc::Document d("root");
  for (int i = 0; i < 200; ++i) d.AddChild(0, "c");
  auto id = inst.AddDocument(std::move(d), "wide", u).value();
  ASSERT_TRUE(inst.Finalize().ok());
  EXPECT_EQ(inst.docs().Uri(inst.docs().GlobalId(id, 1)), "wide.1");
  EXPECT_EQ(inst.docs().Uri(inst.docs().GlobalId(id, 200)), "wide.200");
  EXPECT_EQ(inst.docs().FindByUri("wide.200").value(),
            inst.docs().GlobalId(id, 200));
  // Siblings are never vertical neighbors.
  EXPECT_FALSE(inst.docs().AreVerticalNeighbors(
      inst.docs().GlobalId(id, 1), inst.docs().GlobalId(id, 200)));
}

// ---- saturation diamonds / mixed schemas ------------------------------------

TEST(SaturationDiamondTest, DiamondClosesOnce) {
  rdf::TermDictionary dict;
  rdf::TripleStore store;
  rdf::TermId sc = dict.InternUri(rdf::vocab::kSubClassOf);
  rdf::TermId type = dict.InternUri(rdf::vocab::kType);
  // b ≺ a, c ≺ a, d ≺ b, d ≺ c (diamond)
  store.Add(dict.InternUri("b"), sc, dict.InternUri("a"));
  store.Add(dict.InternUri("c"), sc, dict.InternUri("a"));
  store.Add(dict.InternUri("d"), sc, dict.InternUri("b"));
  store.Add(dict.InternUri("d"), sc, dict.InternUri("c"));
  store.Add(dict.InternUri("x"), type, dict.InternUri("d"));
  rdf::Saturate(dict, store);
  EXPECT_TRUE(store.Contains(dict.InternUri("d"), sc, dict.InternUri("a")));
  EXPECT_TRUE(
      store.Contains(dict.InternUri("x"), type, dict.InternUri("a")));
  // d ≺ a must exist exactly once (set semantics).
  size_t count = 0;
  for (const auto& t : store.triples()) {
    if (t.subject == dict.InternUri("d") && t.property == sc &&
        t.object == dict.InternUri("a")) {
      ++count;
    }
  }
  EXPECT_EQ(count, 1u);
}

TEST(SaturationMixedTest, DomainRangeOnSameProperty) {
  rdf::TermDictionary dict;
  rdf::TripleStore store;
  rdf::TermId dom = dict.InternUri(rdf::vocab::kDomain);
  rdf::TermId rng = dict.InternUri(rdf::vocab::kRange);
  rdf::TermId type = dict.InternUri(rdf::vocab::kType);
  store.Add(dict.InternUri("teaches"), dom, dict.InternUri("Teacher"));
  store.Add(dict.InternUri("teaches"), rng, dict.InternUri("Student"));
  store.Add(dict.InternUri("ann"), dict.InternUri("teaches"),
            dict.InternUri("bob"));
  rdf::Saturate(dict, store);
  EXPECT_TRUE(
      store.Contains(dict.InternUri("ann"), type, dict.InternUri("Teacher")));
  EXPECT_TRUE(
      store.Contains(dict.InternUri("bob"), type, dict.InternUri("Student")));
}

// ---- TopkS budgets and blending ---------------------------------------------

TEST(TopkSBudgetTest, SettledUserBudgetRespected) {
  baseline::UitInstance uit;
  uit.SetUserCount(20);
  for (int i = 0; i + 1 < 20; ++i) uit.AddUserLink(i, i + 1, 0.9);
  std::vector<baseline::ItemId> items;
  for (int i = 1; i < 20; ++i) {
    auto it = uit.AddItem();
    uit.AddTriple(i, it, 1);
    items.push_back(it);
  }
  baseline::TopkSOptions opts;
  opts.alpha = 1.0;
  opts.k = 5;
  opts.max_settled_users = 3;
  baseline::TopkSSearcher searcher(uit, opts);
  baseline::TopkSStats st;
  auto r = searcher.Search(0, {1}, &st);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(st.settled_users, 3u);
}

TEST(TopkSBlendTest, AlphaInterpolatesExactly) {
  baseline::UitInstance uit;
  uit.SetUserCount(2);
  auto item = uit.AddItem();
  uit.AddUserLink(0, 1, 0.5);
  uit.AddTriple(1, item, 7);     // social side: σ = 0.5
  uit.AddItemTerm(item, 7, 4);   // text side: tf/maxtf = 1
  for (double alpha : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    baseline::TopkSOptions opts;
    opts.alpha = alpha;
    opts.k = 1;
    baseline::TopkSSearcher searcher(uit, opts);
    auto r = searcher.Search(0, {7});
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->size(), 1u);
    EXPECT_NEAR((*r)[0].score, alpha * 0.5 + (1 - alpha) * 1.0, 1e-9)
        << "alpha " << alpha;
  }
}

TEST(TopkSTextTest, TfNormalizationPerKeyword) {
  baseline::UitInstance uit;
  uit.SetUserCount(1);
  auto i1 = uit.AddItem();
  auto i2 = uit.AddItem();
  uit.AddItemTerm(i1, 3, 10);  // maxtf
  uit.AddItemTerm(i2, 3, 5);
  baseline::TopkSOptions opts;
  opts.alpha = 0.0;
  opts.k = 2;
  baseline::TopkSSearcher searcher(uit, opts);
  auto r = searcher.Search(0, {3});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].item, i1);
  EXPECT_NEAR((*r)[0].score, 1.0, 1e-9);
  EXPECT_NEAR((*r)[1].score, 0.5, 1e-9);
}

// ---- comments on mid-tree fragments -----------------------------------------

TEST(MidFragmentCommentTest, CommentOnInnerNodePropagatesUpOnly) {
  // d0: root -> a -> b ; comment c targets a.
  // Connections reach a and the root, but never the sibling-free
  // subtree below unrelated branches.
  S3Instance inst;
  auto u = inst.AddUser("u");
  KeywordId kw = inst.InternKeyword("alpha");
  doc::Document d("root");
  uint32_t a = d.AddChild(0, "a");
  uint32_t b = d.AddChild(a, "b");
  (void)b;
  uint32_t other = d.AddChild(0, "other");
  (void)other;
  auto d0 = inst.AddDocument(std::move(d), "d0", u).value();
  doc::NodeId a_node = inst.docs().GlobalId(d0, a);
  doc::NodeId other_node = inst.docs().GlobalId(d0, other);

  doc::Document cd("comment");
  cd.AddKeywords(0, {kw});
  auto c = inst.AddDocument(std::move(cd), "c", u).value();
  ASSERT_TRUE(inst.AddComment(c, a_node).ok());
  ASSERT_TRUE(inst.Finalize().ok());

  S3kOptions opts;
  opts.k = 10;
  S3kSearcher searcher(inst, opts);
  SearchStats st;
  auto r = searcher.Search(Query{u, {kw}}, &st);
  ASSERT_TRUE(r.ok());
  // Candidates: comment root, a, d0 root — but not `other` or `b`.
  for (doc::NodeId n : st.candidate_nodes) {
    EXPECT_NE(n, other_node);
    EXPECT_NE(n, inst.docs().GlobalId(d0, b));
  }
  bool has_a = false;
  for (doc::NodeId n : st.candidate_nodes) {
    if (n == a_node) has_a = true;
  }
  EXPECT_TRUE(has_a);
}

// ---- multi-keyword static weights --------------------------------------------

TEST(MultiKeywordScoreTest, ProductOverKeywords) {
  // One doc containing both keywords at different depths; verify the
  // candidate cap = (η^p1 ...)(η^p2 ...) structure via search bounds.
  S3Instance inst;
  auto u = inst.AddUser("u");
  KeywordId k1 = inst.InternKeyword("one");
  KeywordId k2 = inst.InternKeyword("two");
  doc::Document d("root");
  uint32_t c1 = d.AddChild(0, "c");      // depth 1
  uint32_t c2 = d.AddChild(c1, "cc");    // depth 2
  d.AddKeywords(c1, {k1});
  d.AddKeywords(c2, {k2});
  (void)inst.AddDocument(std::move(d), "d0", u).value();
  ASSERT_TRUE(inst.Finalize().ok());

  S3kOptions opts;
  opts.k = 1;
  opts.score.eta = 0.5;
  S3kSearcher searcher(inst, opts);
  auto both = searcher.Search(Query{u, {k1, k2}});
  ASSERT_TRUE(both.ok());
  ASSERT_EQ(both->size(), 1u);
  // Root candidate: W(root,k1)=η¹, W(root,k2)=η² — the only node whose
  // subtree covers both... c1 also covers both (k1 at depth 0 under
  // c1? no: k1 IS c1): c1 covers k1 (η⁰) and k2 (η¹) and wins.
  auto r1 = searcher.Search(Query{u, {k1}});
  auto r2 = searcher.Search(Query{u, {k2}});
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  // The two-keyword score is bounded by the product of bests.
  EXPECT_LE((*both)[0].upper,
            (*r1)[0].upper * (*r2)[0].upper + 1e-9);
}

}  // namespace
}  // namespace s3
