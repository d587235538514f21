#include <gtest/gtest.h>

#include <algorithm>

#include "core/s3_instance.h"
#include "test_fixtures.h"

namespace s3::core {
namespace {

using social::EntityId;

TEST(S3InstanceTest, AddUserAssignsSequentialIds) {
  S3Instance inst;
  EXPECT_EQ(inst.AddUser("a"), 0u);
  EXPECT_EQ(inst.AddUser("b"), 1u);
  EXPECT_EQ(inst.UserCount(), 2u);
  EXPECT_EQ(inst.users()[1].uri, "b");
}

TEST(S3InstanceTest, SocialEdgeValidation) {
  S3Instance inst;
  inst.AddUser("a");
  inst.AddUser("b");
  EXPECT_TRUE(inst.AddSocialEdge(0, 1, 0.5).ok());
  EXPECT_FALSE(inst.AddSocialEdge(0, 9, 0.5).ok());
  EXPECT_FALSE(inst.AddSocialEdge(0, 1, 0.0).ok());
  EXPECT_FALSE(inst.AddSocialEdge(0, 1, 1.5).ok());
}

TEST(S3InstanceTest, AddDocumentCreatesPostedByEdges) {
  S3Instance inst;
  inst.AddUser("a");
  doc::Document d("doc");
  doc::DocId id = inst.AddDocument(std::move(d), "d0", 0).value();
  EXPECT_EQ(id, 0u);
  // postedBy + inverse
  EXPECT_EQ(inst.edges().CountLabel(social::EdgeLabel::kPostedBy), 1u);
  EXPECT_EQ(inst.edges().CountLabel(social::EdgeLabel::kPostedByInv), 1u);
}

TEST(S3InstanceTest, AddDocumentUnknownPosterFails) {
  S3Instance inst;
  doc::Document d("doc");
  EXPECT_FALSE(inst.AddDocument(std::move(d), "d0", 3).ok());
}

TEST(S3InstanceTest, CommentSelfRejected) {
  S3Instance inst;
  inst.AddUser("a");
  doc::Document d("doc");
  doc::DocId id = inst.AddDocument(std::move(d), "d0", 0).value();
  EXPECT_FALSE(inst.AddComment(id, inst.docs().RootNode(id)).ok());
}

TEST(S3InstanceTest, CommentWiring) {
  S3Instance inst;
  inst.AddUser("a");
  doc::Document d0("doc");
  doc::DocId i0 = inst.AddDocument(std::move(d0), "d0", 0).value();
  doc::Document d1("doc");
  doc::DocId i1 = inst.AddDocument(std::move(d1), "d1", 0).value();
  doc::NodeId target = inst.docs().RootNode(i0);
  ASSERT_TRUE(inst.AddComment(i1, target).ok());
  // The comments-on table is built by Finalize.
  ASSERT_TRUE(inst.Finalize().ok());
  ASSERT_EQ(inst.CommentsOnFragment(target).size(), 1u);
  EXPECT_EQ(inst.CommentsOnFragment(target)[0], inst.docs().RootNode(i1));
  // d0 comments on nothing: its only possible target, d1, has no
  // commenter.
  EXPECT_TRUE(inst.CommentsOnFragment(inst.docs().RootNode(i1)).empty());
}

TEST(S3InstanceTest, TagWiring) {
  S3Instance inst;
  inst.AddUser("a");
  doc::Document d("doc");
  doc::DocId id = inst.AddDocument(std::move(d), "d0", 0).value();
  doc::NodeId root = inst.docs().RootNode(id);
  KeywordId kw = inst.InternKeyword("x");
  social::TagId t = inst.AddTagOnFragment(0, root, kw).value();
  EXPECT_EQ(inst.TagCount(), 1u);
  EXPECT_FALSE(inst.tags()[t].IsEndorsement());
  // Higher-level tag on the tag (requirement R4).
  social::TagId t2 =
      inst.AddTagOnTag(0, t, kInvalidKeyword).value();
  EXPECT_TRUE(inst.tags()[t2].IsEndorsement());
  // The tags-on table is built by Finalize.
  ASSERT_TRUE(inst.Finalize().ok());
  ASSERT_EQ(inst.TagsOn(EntityId::Fragment(root)).size(), 1u);
  EXPECT_EQ(inst.TagsOn(EntityId::Fragment(root))[0], t);
  ASSERT_EQ(inst.TagsOn(EntityId::Tag(t)).size(), 1u);
  EXPECT_EQ(inst.TagsOn(EntityId::Tag(t))[0], t2);
  EXPECT_TRUE(inst.TagsOn(EntityId::Tag(t2)).empty());
  EXPECT_TRUE(inst.TagsOn(EntityId::User(0)).empty());
}

TEST(S3InstanceTest, UninternedKeywordIdsRejected) {
  // The keyword directories are indexed by KeywordId, so the population
  // API refuses ids the vocabulary has not interned.
  S3Instance inst;
  inst.AddUser("a");
  const KeywordId kw = inst.InternKeyword("x");
  doc::Document unknown("doc");
  unknown.AddKeywords(0, {kw + 1});
  EXPECT_EQ(inst.AddDocument(std::move(unknown), "d0", 0).status().code(),
            StatusCode::kInvalidArgument);
  doc::Document marker("doc");
  marker.AddKeywords(0, {kInvalidKeyword});
  EXPECT_EQ(inst.AddDocument(std::move(marker), "d0", 0).status().code(),
            StatusCode::kInvalidArgument);
  doc::Document good("doc");
  good.AddKeywords(0, {kw});
  const doc::DocId id = inst.AddDocument(std::move(good), "d0", 0).value();
  const doc::NodeId root = inst.docs().RootNode(id);
  EXPECT_EQ(inst.AddTagOnFragment(0, root, kw + 1).status().code(),
            StatusCode::kInvalidArgument);
  const social::TagId t = inst.AddTagOnFragment(0, root, kInvalidKeyword)
                              .value();  // endorsement
  EXPECT_EQ(inst.AddTagOnTag(0, t, kw + 7).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(inst.Finalize().ok());
  EXPECT_EQ(inst.TagCount(), 1u);
  EXPECT_EQ(inst.index().Postings(kw).size(), 1u);
}

TEST(S3InstanceTest, MutationAfterFinalizeRejected) {
  S3Instance inst;
  inst.AddUser("a");
  inst.AddUser("b");
  ASSERT_TRUE(inst.Finalize().ok());
  EXPECT_FALSE(inst.AddSocialEdge(0, 1, 0.5).ok());
  doc::Document d("doc");
  EXPECT_FALSE(inst.AddDocument(std::move(d), "d0", 0).ok());
  EXPECT_FALSE(inst.Finalize().ok());  // double finalize
}

TEST(S3InstanceTest, InternTextPipeline) {
  S3Instance inst;
  auto kws = inst.InternText("Universities and the degrees");
  // "and"/"the" are stop words; the rest are stemmed and interned.
  ASSERT_EQ(kws.size(), 2u);
  EXPECT_EQ(inst.vocabulary().Spelling(kws[0]), "univers");
  EXPECT_EQ(inst.vocabulary().Spelling(kws[1]), "degre");
}

TEST(S3InstanceTest, UserTypeTriplesAdded) {
  S3Instance inst;
  inst.AddUser("u:alice");
  ASSERT_TRUE(inst.Finalize().ok());
  const auto& t = inst.terms();
  rdf::TermId alice = t.Find("u:alice", rdf::TermKind::kUri);
  rdf::TermId type = t.Find("rdf:type", rdf::TermKind::kUri);
  rdf::TermId user_class = t.Find("S3:user", rdf::TermKind::kUri);
  ASSERT_NE(alice, rdf::kInvalidTerm);
  EXPECT_TRUE(inst.rdf_graph().Contains(alice, type, user_class));
}

// ---- ExtendKeyword ---------------------------------------------------------

TEST(S3InstanceTest, ExtendKeywordThroughOntology) {
  S3Instance inst;
  KeywordId degree = inst.InternKeyword("degree");
  KeywordId ms = inst.InternKeyword("m.s.");
  inst.DeclareSubClass("m.s.", "degree");
  ASSERT_TRUE(inst.Finalize().ok());
  auto ext = inst.ExtendKeyword(degree);
  EXPECT_EQ(ext[0], degree);
  EXPECT_NE(std::find(ext.begin(), ext.end(), ms), ext.end());
}

TEST(S3InstanceTest, ExtendKeywordNoOntologyIsSingleton) {
  S3Instance inst;
  KeywordId k = inst.InternKeyword("plainword");
  ASSERT_TRUE(inst.Finalize().ok());
  auto ext = inst.ExtendKeyword(k);
  ASSERT_EQ(ext.size(), 1u);
  EXPECT_EQ(ext[0], k);
}

TEST(S3InstanceTest, ExtendKeywordTransitive) {
  S3Instance inst;
  KeywordId grad = inst.InternKeyword("graduate");
  KeywordId ms = inst.InternKeyword("m.s.");
  inst.DeclareSubClass("m.s.", "degree");
  inst.DeclareSubClass("degree", "graduate");
  ASSERT_TRUE(inst.Finalize().ok());
  auto ext = inst.ExtendKeyword(grad);
  // Saturation closes ≺sc, so m.s. is in Ext(graduate).
  EXPECT_NE(std::find(ext.begin(), ext.end(), ms), ext.end());
}

// ---- Figure 3 end-to-end wiring ------------------------------------------

TEST(Figure3InstanceTest, Populations) {
  auto fig = s3::testing::BuildFigure3();
  EXPECT_EQ(fig.instance->UserCount(), 4u);
  EXPECT_EQ(fig.instance->docs().DocumentCount(), 2u);
  EXPECT_EQ(fig.instance->docs().NodeCount(), 5u);
  EXPECT_EQ(fig.instance->TagCount(), 2u);
}

TEST(Figure3InstanceTest, ComponentsWithKeywordDirectory) {
  auto fig = s3::testing::BuildFigure3();
  const auto& inst = *fig.instance;
  social::ComponentId c =
      inst.components().Of(EntityId::Fragment(fig.uri0));
  // k0 is in URI0.0.0, k1 in URI0.1 and URI1, k2 is a tag keyword.
  for (KeywordId k : {fig.k0, fig.k1, fig.k2}) {
    const auto& comps = inst.ComponentsWithKeyword(k);
    ASSERT_EQ(comps.size(), 1u) << "keyword " << k;
    EXPECT_EQ(comps[0], c);
  }
}

TEST(Figure3InstanceTest, RowMappingsConsistent) {
  auto fig = s3::testing::BuildFigure3();
  const auto& inst = *fig.instance;
  const auto& layout = inst.layout();
  EXPECT_EQ(layout.Entity(inst.RowOfUser(fig.u2)),
            EntityId::User(fig.u2));
  EXPECT_EQ(layout.Entity(inst.RowOfFragment(fig.uri0_1)),
            EntityId::Fragment(fig.uri0_1));
  EXPECT_EQ(layout.Entity(inst.RowOfTag(fig.a0)), EntityId::Tag(fig.a0));
}

}  // namespace
}  // namespace s3::core
