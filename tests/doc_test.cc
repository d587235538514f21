#include <gtest/gtest.h>

#include <algorithm>

#include "doc/document.h"
#include "doc/document_store.h"
#include "doc/inverted_index.h"

namespace s3::doc {
namespace {

// ---- Document ----------------------------------------------------------------

TEST(DocumentTest, RootOnly) {
  Document d("article");
  EXPECT_EQ(d.NodeCount(), 1u);
  EXPECT_EQ(d.node(0).name, "article");
  EXPECT_EQ(d.node(0).parent, UINT32_MAX);
}

TEST(DocumentTest, ChildrenInDocumentOrder) {
  Document d("r");
  uint32_t a = d.AddChild(0, "a");
  uint32_t b = d.AddChild(0, "b");
  uint32_t aa = d.AddChild(a, "aa");
  EXPECT_EQ(d.node(0).children, (std::vector<uint32_t>{a, b}));
  EXPECT_EQ(d.node(a).children, (std::vector<uint32_t>{aa}));
  EXPECT_EQ(d.node(aa).parent, a);
}

TEST(DocumentTest, KeywordsAccumulate) {
  Document d("r");
  d.AddKeywords(0, {1, 2});
  d.AddKeywords(0, {3});
  EXPECT_EQ(d.node(0).keywords.size(), 3u);
}

// ---- DocumentStore --------------------------------------------------------------

class StoreTest : public ::testing::Test {
 protected:
  DocumentStore store_;

  DocId AddSimpleDoc(const std::string& uri) {
    Document d("r");
    uint32_t a = d.AddChild(0, "a");
    d.AddChild(a, "aa");
    d.AddChild(0, "b");
    return store_.AddDocument(std::move(d), uri).value();
  }
};

TEST_F(StoreTest, GlobalIdsAndUris) {
  DocId d = AddSimpleDoc("d0");
  EXPECT_EQ(store_.DocumentCount(), 1u);
  EXPECT_EQ(store_.NodeCount(), 4u);
  NodeId root = store_.RootNode(d);
  EXPECT_EQ(store_.Uri(root), "d0");
  // Child URIs carry the Dewey path, like the paper's d0.3.2.
  EXPECT_EQ(store_.Uri(store_.GlobalId(d, 1)), "d0.1");
  EXPECT_EQ(store_.Uri(store_.GlobalId(d, 2)), "d0.1.1");
  EXPECT_EQ(store_.Uri(store_.GlobalId(d, 3)), "d0.2");
}

TEST_F(StoreTest, FindByUri) {
  AddSimpleDoc("d0");
  EXPECT_TRUE(store_.FindByUri("d0.1.1").ok());
  EXPECT_FALSE(store_.FindByUri("d0.9").ok());
}

TEST_F(StoreTest, DuplicateUriRejected) {
  AddSimpleDoc("d0");
  Document d("r");
  auto result = store_.AddDocument(std::move(d), "d0");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(StoreTest, VerticalNeighbors) {
  DocId d = AddSimpleDoc("d0");
  NodeId root = store_.RootNode(d);
  NodeId a = store_.GlobalId(d, 1);
  NodeId aa = store_.GlobalId(d, 2);
  NodeId b = store_.GlobalId(d, 3);
  // Root's vertical neighbors: all its fragments.
  auto vn = store_.VerticalNeighbors(root);
  EXPECT_EQ(vn.size(), 3u);
  // aa's vertical neighbors: ancestors a, root — not b.
  EXPECT_TRUE(store_.AreVerticalNeighbors(aa, a));
  EXPECT_TRUE(store_.AreVerticalNeighbors(aa, root));
  EXPECT_FALSE(store_.AreVerticalNeighbors(aa, b));
  EXPECT_FALSE(store_.AreVerticalNeighbors(aa, aa));
}

TEST_F(StoreTest, CrossDocumentNeverNeighbors) {
  DocId d0 = AddSimpleDoc("d0");
  DocId d1 = AddSimpleDoc("d1");
  EXPECT_FALSE(store_.AreVerticalNeighbors(store_.RootNode(d0),
                                           store_.RootNode(d1)));
}

TEST_F(StoreTest, VerticalNeighborsAncestorsThenPreorder) {
  DocId d = AddSimpleDoc("d0");
  NodeId root = store_.RootNode(d);
  NodeId a = store_.GlobalId(d, 1);
  NodeId aa = store_.GlobalId(d, 2);
  NodeId b = store_.GlobalId(d, 3);
  // Strict ancestors, nearest first.
  EXPECT_EQ(store_.VerticalNeighbors(aa), (std::vector<NodeId>{a, root}));
  // Strict descendants in preorder: a's subtree before b.
  EXPECT_EQ(store_.VerticalNeighbors(root), (std::vector<NodeId>{a, aa, b}));
  EXPECT_EQ(store_.VerticalNeighbors(a), (std::vector<NodeId>{root, aa}));
}

TEST_F(StoreTest, PosLengthGlobal) {
  DocId d = AddSimpleDoc("d0");
  const NodeId root = store_.RootNode(d);
  const NodeId a = store_.GlobalId(d, 1);
  const NodeId aa = store_.GlobalId(d, 2);
  EXPECT_EQ(store_.PosLength(root, aa), 2u);
  EXPECT_EQ(store_.PosLength(a, aa), 1u);
  EXPECT_EQ(store_.PosLength(aa, aa), 0u);
}

TEST_F(StoreTest, FlatNodeAccessors) {
  AddSimpleDoc("d0");
  Document d("post");
  uint32_t body = d.AddChild(0, "a");
  d.AddKeywords(0, {4});
  d.AddKeywords(body, {7, 8});
  DocId id = store_.AddDocument(d, "d1").value();
  const NodeId root = store_.RootNode(id);
  EXPECT_EQ(root, 4u);
  EXPECT_EQ(store_.NodeCount(id), 2u);
  EXPECT_EQ(store_.DocOf(root + 1), id);
  EXPECT_EQ(store_.LocalOf(root + 1), 1u);
  EXPECT_EQ(store_.Parent(root), kInvalidNode);
  EXPECT_EQ(store_.Parent(root + 1), root);
  EXPECT_EQ(store_.Depth(root + 1), 1u);
  EXPECT_EQ(store_.Name(root), "post");
  // The name table is shared across documents.
  EXPECT_EQ(store_.Name(root + 1), store_.Name(store_.GlobalId(0, 1)));
  EXPECT_EQ(std::vector<KeywordId>(store_.Keywords(root + 1).begin(),
                                   store_.Keywords(root + 1).end()),
            (std::vector<KeywordId>{7, 8}));
  ASSERT_EQ(store_.Children(root).size(), 1u);
  EXPECT_EQ(store_.Children(root)[0], root + 1);
  EXPECT_TRUE(store_.Children(root + 1).empty());
  EXPECT_EQ(store_.RootUri(id), "d1");
}

TEST_F(StoreTest, FindByUriReadsOnlyCanonicalPositions) {
  AddSimpleDoc("d0");
  EXPECT_EQ(store_.FindByUri("d0.2").value(), 3u);
  EXPECT_FALSE(store_.FindByUri("d0.02").ok());
  EXPECT_FALSE(store_.FindByUri("d0.0").ok());
  EXPECT_FALSE(store_.FindByUri("d0.").ok());
  EXPECT_FALSE(store_.FindByUri("d0.1.2").ok());
  EXPECT_FALSE(store_.FindByUri("d").ok());
}

TEST_F(StoreTest, RootUriWithDotsResolves) {
  // A root URI may itself end in dotted digits, as long as no other
  // node derives the same URI.
  DocId d = AddSimpleDoc("v1.2");
  EXPECT_EQ(store_.FindByUri("v1.2").value(), store_.RootNode(d));
  EXPECT_EQ(store_.FindByUri("v1.2.1.1").value(), store_.GlobalId(d, 2));
  EXPECT_EQ(store_.Uri(store_.GlobalId(d, 3)), "v1.2.2");
}

// A root URI that looks derived ("a.1") and the derived URI of another
// document's node ("a" + first child) name one node at most, whichever
// document comes first.
TEST_F(StoreTest, NodeUriClashRefusedWhenDerivedRootComesFirst) {
  Document first("r");
  first.AddChild(0, "c");
  ASSERT_TRUE(store_.AddDocument(first, "a.1").ok());
  Document second("r");
  second.AddChild(0, "c");
  auto result = store_.AddDocument(second, "a");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAlreadyExists);
  // Refused at the child: the new root "a" itself is free.
  EXPECT_NE(
      result.status().message().find("node URI already registered: a.1"),
      std::string::npos);
  // The refused document left nothing behind.
  EXPECT_EQ(store_.DocumentCount(), 1u);
  EXPECT_EQ(store_.NodeCount(), 2u);
  EXPECT_FALSE(store_.FindByUri("a").ok());
  EXPECT_EQ(store_.FindByUri("a.1").value(), 0u);
  // Without the clashing child, "a" is free.
  EXPECT_TRUE(store_.AddDocument(Document("r"), "a").ok());
  EXPECT_EQ(store_.FindByUri("a.1").value(), 0u);
}

TEST_F(StoreTest, NodeUriClashRefusedWhenParentComesFirst) {
  Document first("r");
  first.AddChild(0, "c");
  ASSERT_TRUE(store_.AddDocument(first, "a").ok());
  Document second("r");
  second.AddChild(0, "c");
  // The new root "a.1" is the URI of the first document's child, so
  // the refusal comes at the new document's root, the parent.
  auto result = store_.AddDocument(second, "a.1");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAlreadyExists);
  EXPECT_NE(
      result.status().message().find("document URI already registered: a.1"),
      std::string::npos);
  EXPECT_EQ(store_.DocumentCount(), 1u);
  EXPECT_EQ(store_.NodeCount(), 2u);
  EXPECT_EQ(store_.FindByUri("a.1").value(), 1u);
  // "a.2" derives from no node of "a", and "a.01" is not a position.
  EXPECT_TRUE(store_.AddDocument(Document("r"), "a.2").ok());
  EXPECT_TRUE(store_.AddDocument(Document("r"), "a.01").ok());
  EXPECT_EQ(store_.FindByUri("a.2").value(), 2u);
  EXPECT_EQ(store_.FindByUri("a.01").value(), 3u);
}

TEST_F(StoreTest, CheckUrisFreeMatchesAddDocument) {
  AddSimpleDoc("a");
  Document deep("r");
  deep.AddChild(deep.AddChild(0, "x"), "y");
  // "b" is free; under "a.1" the root clashes, and under "a" (taken).
  EXPECT_TRUE(store_.CheckUrisFree(deep, "b").ok());
  EXPECT_FALSE(store_.CheckUrisFree(deep, "a.1").ok());
  EXPECT_FALSE(store_.CheckUrisFree(deep, "a").ok());
  // Registered root "c.1.1" against a new "c" whose node 1.1 exists.
  ASSERT_TRUE(store_.AddDocument(Document("r"), "c.1.1").ok());
  EXPECT_FALSE(store_.CheckUrisFree(deep, "c").ok());
  EXPECT_TRUE(store_.CheckUrisFree(Document("r"), "c").ok());
  EXPECT_EQ(store_.DocumentCount(), 2u);
}

TEST_F(StoreTest, DropPendingDiscardsAppendedNodes) {
  AddSimpleDoc("d0");
  const std::vector<KeywordId> kws = {3};
  store_.AppendNode(UINT32_MAX, "r", kws);
  store_.AppendNode(0, "c", kws);
  EXPECT_EQ(store_.NodeCount(), 4u);  // pending nodes are not counted
  store_.DropPending();
  store_.AppendNode(UINT32_MAX, "s", {});
  DocId d = store_.CommitDocument("d1").value();
  EXPECT_EQ(store_.NodeCount(d), 1u);
  EXPECT_EQ(store_.Name(store_.RootNode(d)), "s");
  EXPECT_TRUE(store_.Keywords(store_.RootNode(d)).empty());
  EXPECT_EQ(store_.Uri(store_.RootNode(d)), "d1");
}

// ---- InvertedIndex --------------------------------------------------------------

TEST(InvertedIndexTest, PostingsAndDf) {
  DocumentStore store;
  Document d("r");
  uint32_t a = d.AddChild(0, "a");
  d.AddKeywords(a, {7, 8});
  d.AddKeywords(0, {7});
  store.AddDocument(std::move(d), "d0").value();

  InvertedIndex idx;
  idx.Rebuild(store);
  EXPECT_EQ(idx.DocumentFrequency(7), 2u);
  EXPECT_EQ(idx.DocumentFrequency(8), 1u);
  EXPECT_EQ(idx.DocumentFrequency(99), 0u);
  EXPECT_EQ(idx.KeywordCount(), 2u);
}

TEST(InvertedIndexTest, DuplicateKeywordInNodeCountedOnce) {
  DocumentStore store;
  Document d("r");
  d.AddKeywords(0, {5, 5, 5});
  store.AddDocument(std::move(d), "d0").value();
  InvertedIndex idx;
  idx.Rebuild(store);
  EXPECT_EQ(idx.DocumentFrequency(5), 1u);
}

TEST(InvertedIndexTest, RebuildResets) {
  DocumentStore store;
  Document d("r");
  d.AddKeywords(0, {1});
  store.AddDocument(std::move(d), "d0").value();
  InvertedIndex idx;
  idx.Rebuild(store);
  idx.Rebuild(store);
  EXPECT_EQ(idx.DocumentFrequency(1), 1u);
}

}  // namespace
}  // namespace s3::doc
