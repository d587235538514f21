// Tests for the ingestion layer: XML and JSON document parsing,
// N-Triples parsing, and triple-pattern matching.
#include <gtest/gtest.h>

#include "doc/document_store.h"
#include "doc/json_parser.h"
#include "doc/xml_parser.h"
#include "rdf/ntriples.h"
#include "text/vocabulary.h"

namespace s3 {
namespace {

// A passthrough interner: one keyword per whitespace token, verbatim.
class InternFixture : public ::testing::Test {
 protected:
  Vocabulary vocab_;
  doc::TextInterner intern_ = [this](std::string_view text) {
    std::vector<KeywordId> out;
    std::string token;
    for (char c : text) {
      if (std::isspace(static_cast<unsigned char>(c))) {
        if (!token.empty()) out.push_back(vocab_.Intern(token));
        token.clear();
      } else {
        token.push_back(c);
      }
    }
    if (!token.empty()) out.push_back(vocab_.Intern(token));
    return out;
  };

  std::vector<std::string> Spellings(const std::vector<KeywordId>& kws) {
    std::vector<std::string> out;
    for (KeywordId k : kws) out.emplace_back(vocab_.Spelling(k));
    return out;
  }

  // The URI node `local` gets once the document is registered as "d".
  static std::string UriOf(const doc::Document& document, uint32_t local) {
    doc::DocumentStore store;
    const doc::DocId d = store.AddDocument(document, "d").value();
    return store.Uri(store.GlobalId(d, local));
  }
};

// ---- XML ---------------------------------------------------------------

class XmlTest : public InternFixture {};

TEST_F(XmlTest, SimpleElementTree) {
  auto doc = doc::ParseXml(
      "<article><sec>hello world</sec><sec>more</sec></article>", intern_);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->node(0).name, "article");
  ASSERT_EQ(doc->NodeCount(), 3u);
  EXPECT_EQ(doc->node(1).name, "sec");
  EXPECT_EQ(Spellings(doc->node(1).keywords),
            (std::vector<std::string>{"hello", "world"}));
  EXPECT_EQ(UriOf(*doc, 1), "d.1");
  EXPECT_EQ(UriOf(*doc, 2), "d.2");
}

TEST_F(XmlTest, NestedElements) {
  auto doc = doc::ParseXml("<a><b><c>deep</c></b></a>", intern_);
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->NodeCount(), 3u);
  EXPECT_EQ(doc->node(2).name, "c");
  EXPECT_EQ(UriOf(*doc, 2), "d.1.1");
}

TEST_F(XmlTest, AttributesBecomeChildNodes) {
  auto doc = doc::ParseXml(R"(<tweet lang="en" geo="paris">hi</tweet>)",
                           intern_);
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->NodeCount(), 3u);
  EXPECT_EQ(doc->node(1).name, "@lang");
  EXPECT_EQ(Spellings(doc->node(1).keywords),
            std::vector<std::string>{"en"});
  EXPECT_EQ(doc->node(2).name, "@geo");
}

TEST_F(XmlTest, SelfClosingTag) {
  auto doc = doc::ParseXml("<a><br/><b>x</b></a>", intern_);
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->NodeCount(), 3u);
  EXPECT_EQ(doc->node(1).name, "br");
  EXPECT_TRUE(doc->node(1).keywords.empty());
}

TEST_F(XmlTest, EntitiesDecoded) {
  auto doc = doc::ParseXml("<t>a&amp;b &lt;tag&gt; &#65;</t>", intern_);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(Spellings(doc->node(0).keywords),
            (std::vector<std::string>{"a&b", "<tag>", "A"}));
}

TEST_F(XmlTest, CommentsAndCdata) {
  auto doc = doc::ParseXml(
      "<t><!-- ignore me -->keep <![CDATA[<raw & data>]]></t>", intern_);
  ASSERT_TRUE(doc.ok());
  auto sp = Spellings(doc->node(0).keywords);
  EXPECT_EQ(sp[0], "keep");
  EXPECT_EQ(sp[1], "<raw");
}

TEST_F(XmlTest, PrologAndTrailingComment) {
  auto doc = doc::ParseXml(
      "<?xml version=\"1.0\"?>\n<!-- pre --><t>x</t><!-- post -->",
      intern_);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->node(0).name, "t");
}

TEST_F(XmlTest, MismatchedTagsRejected) {
  EXPECT_FALSE(doc::ParseXml("<a><b>x</a></b>", intern_).ok());
}

TEST_F(XmlTest, UnterminatedElementRejected) {
  EXPECT_FALSE(doc::ParseXml("<a><b>x", intern_).ok());
}

TEST_F(XmlTest, TrailingContentRejected) {
  EXPECT_FALSE(doc::ParseXml("<a/>garbage", intern_).ok());
}

TEST_F(XmlTest, UnknownEntityRejected) {
  EXPECT_FALSE(doc::ParseXml("<a>&nope;</a>", intern_).ok());
}

TEST_F(XmlTest, TweetShapedDocument) {
  // The I1 construction: tweet with text, date and geo children.
  auto doc = doc::ParseXml(
      "<tweet><text>When I got my M.S.</text>"
      "<date>2014-05-02</date><geo>Edmonton</geo></tweet>",
      intern_);
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->NodeCount(), 4u);
  EXPECT_EQ(doc->node(1).name, "text");
  EXPECT_EQ(doc->node(2).name, "date");
  EXPECT_EQ(doc->node(3).name, "geo");
}

// ---- JSON -------------------------------------------------------------

class JsonTest : public InternFixture {};

TEST_F(JsonTest, FlatObject) {
  auto doc =
      doc::ParseJson(R"({"title": "hello world", "year": 2014})", "post",
                     intern_);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->node(0).name, "post");
  ASSERT_EQ(doc->NodeCount(), 3u);
  EXPECT_EQ(doc->node(1).name, "title");
  EXPECT_EQ(Spellings(doc->node(1).keywords),
            (std::vector<std::string>{"hello", "world"}));
  EXPECT_EQ(doc->node(2).name, "year");
  EXPECT_EQ(Spellings(doc->node(2).keywords),
            std::vector<std::string>{"2014"});
}

TEST_F(JsonTest, NestedObjectsAndArrays) {
  auto doc = doc::ParseJson(
      R"({"meta": {"tags": ["a", "b"]}, "body": "text"})", "d", intern_);
  ASSERT_TRUE(doc.ok());
  // d -> meta -> tags -> item, item ; d -> body
  ASSERT_EQ(doc->NodeCount(), 6u);
  EXPECT_EQ(doc->node(1).name, "meta");
  EXPECT_EQ(doc->node(2).name, "tags");
  EXPECT_EQ(doc->node(3).name, "item");
  EXPECT_EQ(UriOf(*doc, 3), "d.1.1.1");
}

TEST_F(JsonTest, EscapesAndUnicode) {
  auto doc = doc::ParseJson(R"({"t": "a\nb A"})", "d", intern_);
  ASSERT_TRUE(doc.ok());
  auto sp = Spellings(doc->node(1).keywords);
  ASSERT_EQ(sp.size(), 3u);
  EXPECT_EQ(sp[2], "A");
}

TEST_F(JsonTest, BooleansAndNull) {
  auto doc = doc::ParseJson(R"({"a": true, "b": null})", "d", intern_);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(Spellings(doc->node(1).keywords),
            std::vector<std::string>{"true"});
  EXPECT_TRUE(doc->node(2).keywords.empty());  // null adds nothing
}

TEST_F(JsonTest, TopLevelArray) {
  auto doc = doc::ParseJson(R"(["x", "y"])", "list", intern_);
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->NodeCount(), 3u);
  EXPECT_EQ(doc->node(1).name, "item");
}

TEST_F(JsonTest, MalformedRejected) {
  EXPECT_FALSE(doc::ParseJson(R"({"a": })", "d", intern_).ok());
  EXPECT_FALSE(doc::ParseJson(R"({"a": 1,})", "d", intern_).ok());
  EXPECT_FALSE(doc::ParseJson(R"("unterminated)", "d", intern_).ok());
  EXPECT_FALSE(doc::ParseJson(R"({"a": 1} trailing)", "d", intern_).ok());
}

// ---- N-Triples ------------------------------------------------------------

class NTriplesTest : public ::testing::Test {
 protected:
  rdf::TermDictionary dict_;
  rdf::TripleStore store_;
};

TEST_F(NTriplesTest, BasicTriples) {
  auto stats = rdf::ParseNTriples(
      "<a> <p> <b> .\n<a> <name> \"Alice\" .\n", dict_, store_);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->triples, 2u);
  EXPECT_TRUE(store_.Contains(dict_.InternUri("a"), dict_.InternUri("p"),
                              dict_.InternUri("b")));
  EXPECT_TRUE(store_.Contains(dict_.InternUri("a"),
                              dict_.InternUri("name"),
                              dict_.InternLiteral("Alice")));
}

TEST_F(NTriplesTest, CommentsAndBlankLines) {
  auto stats = rdf::ParseNTriples(
      "# header\n\n<a> <p> <b> .\n   # trailing comment\n", dict_,
      store_);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->triples, 1u);
}

TEST_F(NTriplesTest, WeightedTriple) {
  auto stats =
      rdf::ParseNTriples("<a> <sim> <b> 0.35 .\n", dict_, store_);
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(store_.Weight(dict_.InternUri("a"),
                                 dict_.InternUri("sim"),
                                 dict_.InternUri("b")),
                   0.35);
}

TEST_F(NTriplesTest, EscapedLiteral) {
  auto stats = rdf::ParseNTriples(
      "<a> <p> \"line\\nbreak \\\"quoted\\\"\" .\n", dict_, store_);
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(dict_.Find("line\nbreak \"quoted\"", rdf::TermKind::kLiteral),
            rdf::kInvalidTerm);
}

TEST_F(NTriplesTest, MalformedLinesReportLineNumber) {
  auto r1 = rdf::ParseNTriples("<a> <p> <b>\n", dict_, store_);  // no dot
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.status().message().find("line 1"), std::string::npos);
  auto r2 = rdf::ParseNTriples("<a> <p> .\n", dict_, store_);
  EXPECT_FALSE(r2.ok());
  auto r3 = rdf::ParseNTriples("<a> <p> <b> 1.5 .\n", dict_, store_);
  EXPECT_FALSE(r3.ok());  // weight out of range
  auto r4 = rdf::ParseNTriples("\"lit\" <p> <b> .\n", dict_, store_);
  EXPECT_FALSE(r4.ok());  // literal subject
}

TEST_F(NTriplesTest, EscapedLiteralAndWeightTogether) {
  auto stats = rdf::ParseNTriples(
      "<a> <p> <b> .\n"
      "<a> <name> \"Ann \\\"A\\\"\\nx\" .\n"
      "<a> <sim> <c> 0.5 .\n",
      dict_, store_);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->triples, 3u);
  EXPECT_EQ(store_.size(), 3u);
  EXPECT_DOUBLE_EQ(store_.Weight(dict_.InternUri("a"),
                                 dict_.InternUri("sim"),
                                 dict_.InternUri("c")),
                   0.5);
  EXPECT_NE(dict_.Find("Ann \"A\"\nx", rdf::TermKind::kLiteral),
            rdf::kInvalidTerm);
}

// ---- Triple pattern lookups -----------------------------------------------
//
// Every pattern the engine asks the store is answered by Contains or by
// one of the property-keyed indexes; these cases pin each access path
// (and the unions of them a wider pattern needs) on one small store.

class MatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = dict_.InternUri("a");
    b_ = dict_.InternUri("b");
    c_ = dict_.InternUri("c");
    p_ = dict_.InternUri("p");
    q_ = dict_.InternUri("q");
    store_.Add(a_, p_, b_);
    store_.Add(a_, p_, c_);
    store_.Add(b_, p_, c_);
    store_.Add(a_, q_, b_);
  }
  rdf::TermDictionary dict_;
  rdf::TripleStore store_;
  rdf::TermId a_, b_, c_, p_, q_;
};

TEST_F(MatchTest, FullyBound) {
  EXPECT_TRUE(store_.Contains(a_, p_, b_));
  EXPECT_FALSE(store_.Contains(a_, p_, a_));
}

TEST_F(MatchTest, SubjectPropertyBound) {
  const auto& hits = store_.WithPropertySubject(p_, a_);
  ASSERT_EQ(hits.size(), 2u);
  for (uint32_t idx : hits) {
    EXPECT_EQ(store_.triples()[idx].subject, a_);
    EXPECT_EQ(store_.triples()[idx].property, p_);
  }
}

TEST_F(MatchTest, PropertyObjectBound) {
  const auto& hits = store_.WithPropertyObject(p_, c_);
  ASSERT_EQ(hits.size(), 2u);
  for (uint32_t idx : hits) {
    EXPECT_EQ(store_.triples()[idx].property, p_);
    EXPECT_EQ(store_.triples()[idx].object, c_);
  }
}

TEST_F(MatchTest, PropertyOnly) {
  EXPECT_EQ(store_.WithProperty(p_).size(), 3u);
  EXPECT_EQ(store_.WithProperty(q_).size(), 1u);
}

TEST_F(MatchTest, FullScanPatterns) {
  // (?, ?, ?), (a, ?, ?) and (?, ?, b): the store itself, and the
  // per-property indexes summed over the properties in use.
  EXPECT_EQ(store_.size(), 4u);
  size_t from_a = 0, to_b = 0;
  for (rdf::TermId prop : {p_, q_}) {
    from_a += store_.WithPropertySubject(prop, a_).size();
    to_b += store_.WithPropertyObject(prop, b_).size();
  }
  EXPECT_EQ(from_a, 3u);
  EXPECT_EQ(to_b, 2u);
}

}  // namespace
}  // namespace s3
