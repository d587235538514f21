#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "social/components.h"
#include "social/edge_store.h"
#include "social/entity.h"
#include "social/transition_matrix.h"
#include "test_fixtures.h"

namespace s3::social {
namespace {

// ---- EntityId / EntityLayout ---------------------------------------------

TEST(EntityTest, PackingRoundTrip) {
  EntityId u = EntityId::User(42);
  EXPECT_EQ(u.kind(), EntityKind::kUser);
  EXPECT_EQ(u.index(), 42u);
  EntityId f = EntityId::Fragment(7);
  EXPECT_EQ(f.kind(), EntityKind::kFragment);
  EntityId t = EntityId::Tag(3);
  EXPECT_EQ(t.kind(), EntityKind::kTag);
  EXPECT_NE(u, f);
  EXPECT_EQ(u, EntityId::User(42));
}

TEST(EntityTest, InvalidByDefault) {
  EntityId e;
  EXPECT_FALSE(e.valid());
}

TEST(EntityLayoutTest, RowsArePartitioned) {
  EntityLayout layout(10, 20, 5);
  EXPECT_EQ(layout.total(), 35u);
  EXPECT_EQ(layout.Row(EntityId::User(3)), 3u);
  EXPECT_EQ(layout.Row(EntityId::Fragment(0)), 10u);
  EXPECT_EQ(layout.Row(EntityId::Tag(4)), 34u);
}

TEST(EntityLayoutTest, RowRoundTrip) {
  EntityLayout layout(3, 4, 2);
  for (uint32_t row = 0; row < layout.total(); ++row) {
    EXPECT_EQ(layout.Row(layout.Entity(row)), row);
  }
}

// ---- EdgeStore -------------------------------------------------------------

TEST(EdgeStoreTest, AddAndOutEdges) {
  EdgeStore es;
  es.Add(EntityId::User(0), EntityId::User(1), EdgeLabel::kSocial, 0.5);
  es.Add(EntityId::Tag(0), EntityId::User(0), EdgeLabel::kHasAuthor, 1.0);
  es.Add(EntityId::User(0), EntityId::Tag(0), EdgeLabel::kHasAuthorInv,
         0.25);
  const EntityLayout layout(2, 0, 1);  // rows: u0, u1, t0

  // Every row: each list holds edge-log indices in log order.
  const OutAdjacency adj = IndexOutEdges(layout, es);
  ASSERT_EQ(adj.keys(), 3u);
  ASSERT_EQ(adj[0].size(), 2u);
  EXPECT_EQ(adj[0][0], 0u);
  EXPECT_EQ(adj[0][1], 2u);
  EXPECT_TRUE(adj[1].empty());
  ASSERT_EQ(adj[2].size(), 1u);
  EXPECT_EQ(adj[2][0], 1u);
  EXPECT_DOUBLE_EQ(OutWeight(es, adj[0]), 0.75);
  EXPECT_DOUBLE_EQ(OutWeight(es, adj[1]), 0.0);

  // Only the wanted rows are indexed.
  const OutAdjacency some = IndexOutEdges(layout, es, {0, 0, 1});
  EXPECT_TRUE(some[0].empty());
  ASSERT_EQ(some[2].size(), 1u);
  EXPECT_EQ(some[2][0], 1u);
}

TEST(EdgeStoreTest, CopySharesFullChunks) {
  EdgeStore base;
  const uint32_t n = EdgeStore::kChunkSize + 10;
  for (uint32_t i = 0; i < n; ++i) {
    base.Add(EntityId::User(i % 5), EntityId::User((i + 1) % 5),
             EdgeLabel::kSocial, 0.5);
  }
  EdgeStore next = base;
  EXPECT_EQ(next.SharedChunks(base), 2u);  // nothing appended yet
  next.Add(EntityId::User(0), EntityId::User(2), EdgeLabel::kSocial, 1.0);
  // The full chunk stays shared; the tail was cloned before the append,
  // so the base's log is unchanged.
  EXPECT_EQ(next.SharedChunks(base), 1u);
  EXPECT_EQ(base.size(), n);
  EXPECT_EQ(next.size(), n + 1);
  EXPECT_EQ(next.edge(n).target, EntityId::User(2));
  EXPECT_EQ(next.edge(n - 1).target, base.edge(n - 1).target);
}

TEST(EdgeStoreTest, AddWithInverseCreatesTwin) {
  EdgeStore es;
  es.AddWithInverse(EntityId::Tag(0), EntityId::User(1),
                    EdgeLabel::kHasAuthor);
  EXPECT_EQ(es.size(), 2u);
  const NetEdge& inv = es.edges()[1];
  EXPECT_EQ(inv.label, EdgeLabel::kHasAuthorInv);
  EXPECT_EQ(inv.source, EntityId::User(1));
  EXPECT_EQ(inv.target, EntityId::Tag(0));
}

TEST(EdgeStoreTest, InverseLabelIsInvolution) {
  for (EdgeLabel l : {EdgeLabel::kPostedBy, EdgeLabel::kCommentsOn,
                      EdgeLabel::kHasSubject, EdgeLabel::kHasAuthor}) {
    EXPECT_EQ(InverseLabel(InverseLabel(l)), l);
    EXPECT_NE(InverseLabel(l), l);
  }
  EXPECT_EQ(InverseLabel(EdgeLabel::kSocial), EdgeLabel::kSocial);
}

TEST(EdgeStoreTest, CountLabel) {
  EdgeStore es;
  es.Add(EntityId::User(0), EntityId::User(1), EdgeLabel::kSocial, 1.0);
  es.Add(EntityId::User(1), EntityId::User(0), EdgeLabel::kSocial, 1.0);
  es.AddWithInverse(EntityId::Fragment(0), EntityId::User(0),
                    EdgeLabel::kPostedBy);
  EXPECT_EQ(es.CountLabel(EdgeLabel::kSocial), 2u);
  EXPECT_EQ(es.CountLabel(EdgeLabel::kPostedBy), 1u);
  EXPECT_EQ(es.CountLabel(EdgeLabel::kPostedByInv), 1u);
}

// ---- TransitionMatrix on the Figure 3 fixture -----------------------------

class Figure3MatrixTest : public ::testing::Test {
 protected:
  void SetUp() override { fig_ = s3::testing::BuildFigure3(); }
  s3::testing::Figure3 fig_;

  uint32_t Row(EntityId e) { return fig_.instance->layout().Row(e); }

  // Paper §2.5: a row holds, per column, the summed weights of the
  // edges leaving the row's entity or (for a fragment) one of its
  // vertical neighbors, all over the same D(n), the sum of those
  // weights. Checks that D(n) is `d` and the row is the sums over it.
  void ExpectRowIsSumsOver(EntityId n, double d) {
    std::vector<EntityId> from = {n};
    if (n.kind() == EntityKind::kFragment) {
      const doc::DocumentStore& docs = fig_.instance->docs();
      for (doc::NodeId v : docs.VerticalNeighbors(n.index())) {
        from.push_back(EntityId::Fragment(v));
      }
    }
    std::map<uint32_t, double> sums;
    double total = 0.0;
    for (const NetEdge& e : fig_.instance->edges().edges()) {
      if (std::find(from.begin(), from.end(), e.source) == from.end()) {
        continue;
      }
      sums[Row(e.target)] += e.weight;
      total += e.weight;
    }
    EXPECT_NEAR(total, d, 1e-12);
    const auto row = fig_.instance->matrix().Row(Row(n));
    ASSERT_EQ(row.size(), sums.size());
    for (const auto& [col, v] : row) {
      ASSERT_EQ(sums.count(col), 1u) << "column " << col;
      EXPECT_NEAR(v, sums[col] / d, 1e-12) << "column " << col;
    }
  }
};

TEST_F(Figure3MatrixTest, Example23FirstEdgeNormalization) {
  // Edges leaving u0: -> URI0 (1.0), -> u3 (0.3). Normalized weight of
  // the posted edge: 1 / 1.3 ≈ 0.77 (paper Example 2.3).
  const auto& m = fig_.instance->matrix();
  uint32_t u0_row = Row(EntityId::User(fig_.u0));
  ExpectRowIsSumsOver(EntityId::User(fig_.u0), 1.3);
  double w_to_uri0 = 0.0;
  for (const auto& [col, v] : m.Row(u0_row)) {
    if (col == Row(EntityId::Fragment(fig_.uri0))) w_to_uri0 = v;
  }
  EXPECT_NEAR(w_to_uri0, 1.0 / 1.3, 1e-12);
}

TEST_F(Figure3MatrixTest, Example23SecondEdgeNormalization) {
  // A path entering URI0 may exit via any fragment of URI0; the four
  // outgoing weight-1 edges give each a normalized weight of 1/4.
  const auto& m = fig_.instance->matrix();
  uint32_t uri0_row = Row(EntityId::Fragment(fig_.uri0));
  ExpectRowIsSumsOver(EntityId::Fragment(fig_.uri0), 4.0);
  double w_to_a0 = 0.0;
  for (const auto& [col, v] : m.Row(uri0_row)) {
    if (col == Row(EntityId::Tag(fig_.a0))) w_to_a0 = v;
  }
  EXPECT_NEAR(w_to_a0, 0.25, 1e-12);
}

TEST_F(Figure3MatrixTest, RowsAreSubStochastic) {
  const auto& m = fig_.instance->matrix();
  for (uint32_t row = 0; row < m.rows(); ++row) {
    double sum = s3::testing::SumOfRow(m, row);
    EXPECT_LE(sum, 1.0 + 1e-9) << "row " << row;
    EXPECT_GE(sum, 0.0);
  }
}

TEST_F(Figure3MatrixTest, NonEmptyRowsSumToOne) {
  const auto& m = fig_.instance->matrix();
  for (uint32_t row = 0; row < m.rows(); ++row) {
    if (!m.Row(row).empty()) {
      EXPECT_NEAR(s3::testing::SumOfRow(m, row), 1.0, 1e-9) << "row " << row;
    }
  }
}

TEST_F(Figure3MatrixTest, FrontierMassNeverExceedsOne) {
  const auto& m = fig_.instance->matrix();
  Frontier f, g;
  f.Init(m.rows());
  g.Init(m.rows());
  f.Set(Row(EntityId::User(fig_.u0)), 1.0);
  for (int step = 0; step < 12; ++step) {
    m.Propagate(f, g);
    std::swap(f, g);
    double mass = 0.0;
    for (uint32_t row : f.nonzero) mass += f.values[row];
    EXPECT_LE(mass, 1.0 + 1e-9) << "step " << step;
  }
}

TEST_F(Figure3MatrixTest, VerticalNeighborhoodBlocksSiblingHops) {
  // No social path may pass from URI0.1 to URI0.0.0 "sideways": the
  // matrix row of URI0.1 must not lead to a0 (reachable only via
  // URI0.0.0's hasSubject‾ edge)... it can, because URI0.1's vertical
  // neighborhood includes URI0 and hence NOT URI0.0.0.
  const auto& m = fig_.instance->matrix();
  uint32_t row = Row(EntityId::Fragment(fig_.uri0_1));
  for (const auto& [col, v] : m.Row(row)) {
    EXPECT_NE(col, Row(EntityId::Tag(fig_.a0)))
        << "sibling subtree leaked into the neighborhood";
    (void)v;
  }
}

TEST_F(Figure3MatrixTest, RootNeighborhoodSeesAllFragmentEdges) {
  // Entering at the root URI0, the path may exit through URI0.0.0's
  // tag edge (a0 is a column of URI0's row).
  const auto& m = fig_.instance->matrix();
  uint32_t row = Row(EntityId::Fragment(fig_.uri0));
  bool found = false;
  for (const auto& [col, v] : m.Row(row)) {
    if (col == Row(EntityId::Tag(fig_.a0)) && v > 0) found = true;
  }
  EXPECT_TRUE(found);
}

// ---- Frontier ---------------------------------------------------------------

TEST(FrontierTest, SetTracksNonzeros) {
  Frontier f;
  f.Init(10);
  f.Set(7, 0.25);
  f.Set(3, 0.5);
  f.Set(3, 0.125);  // overwriting a nonzero row: still one entry
  EXPECT_EQ(f.nonzero, (std::vector<uint32_t>{3, 7}));
  EXPECT_DOUBLE_EQ(f.values[3], 0.125);
  f.Clear();
  EXPECT_TRUE(f.nonzero.empty());
  EXPECT_DOUBLE_EQ(f.values[3], 0.0);
  EXPECT_DOUBLE_EQ(f.values[7], 0.0);
}

// ---- ComponentIndex ------------------------------------------------------------

class Figure3ComponentTest : public Figure3MatrixTest {};

TEST_F(Figure3ComponentTest, DocCommentTagFormOneComponent) {
  const auto& comps = fig_.instance->components();
  ComponentId c_uri0 = comps.Of(EntityId::Fragment(fig_.uri0));
  // All fragments of URI0, URI1 (a comment on URI0.1), and both tags
  // are one component.
  EXPECT_EQ(comps.Of(EntityId::Fragment(fig_.uri0_0_0)), c_uri0);
  EXPECT_EQ(comps.Of(EntityId::Fragment(fig_.uri1)), c_uri0);
  EXPECT_EQ(comps.Of(EntityId::Tag(fig_.a0)), c_uri0);
  EXPECT_EQ(comps.Of(EntityId::Tag(fig_.a1)), c_uri0);
}

TEST_F(Figure3ComponentTest, UsersHaveNoComponent) {
  const auto& comps = fig_.instance->components();
  EXPECT_EQ(comps.OfRow(Row(EntityId::User(fig_.u0))),
            kInvalidComponent);
}

TEST(ComponentTest, SeparateDocsSeparateComponents) {
  s3::testing::RandomInstanceParams p;
  p.seed = 99;
  p.n_docs = 5;
  p.comment_prob = 0.0;  // no comments -> one component per doc
  p.n_tags = 0;
  auto ri = s3::testing::BuildRandomInstance(p);
  EXPECT_EQ(ri.instance->components().ComponentCount(), 5u);
}

TEST(ComponentTest, MembersArePartition) {
  auto ri = s3::testing::BuildRandomInstance({});
  const auto& comps = ri.instance->components();
  const auto& layout = ri.instance->layout();
  size_t total_members = 0;
  for (ComponentId c = 0; c < comps.ComponentCount(); ++c) {
    total_members += comps.Members(c).size();
    for (uint32_t row : comps.Members(c)) {
      EXPECT_EQ(comps.OfRow(row), c);
    }
  }
  EXPECT_EQ(total_members, layout.n_fragments() + layout.n_tags());
}

}  // namespace
}  // namespace s3::social
