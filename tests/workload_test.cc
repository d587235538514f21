#include <gtest/gtest.h>

#include <algorithm>

#include "workload/business_gen.h"
#include "workload/instance_stats.h"
#include "workload/microblog_gen.h"
#include "workload/ontology_gen.h"
#include "workload/query_gen.h"
#include "workload/review_gen.h"

namespace s3::workload {
namespace {

MicroblogParams SmallMicroblog(uint64_t seed = 42) {
  MicroblogParams p;
  p.seed = seed;
  p.n_users = 100;
  p.n_tweets = 300;
  p.vocab_size = 300;
  p.n_hashtags = 20;
  p.ontology.n_classes = 20;
  p.ontology.n_entities = 100;
  return p;
}

// ---- Ontology -----------------------------------------------------------

TEST(OntologyGenTest, ProducesAnchorsWithExtensions) {
  core::S3Instance inst;
  OntologyParams p;
  p.n_classes = 30;
  p.n_entities = 200;
  OntologyInfo info = GenerateOntology(inst, p);
  ASSERT_TRUE(inst.Finalize().ok());
  EXPECT_EQ(info.class_keywords.size(), 30u);
  EXPECT_EQ(info.entity_keywords.size(), 200u);
  // At least one class keyword must extend to > 1 keyword.
  size_t extended = 0;
  for (KeywordId k : info.class_keywords) {
    if (inst.ExtendKeyword(k).size() > 1) ++extended;
  }
  EXPECT_GT(extended, 0u);
}

TEST(OntologyGenTest, DeterministicForSeed) {
  core::S3Instance a, b;
  OntologyParams p;
  GenerateOntology(a, p);
  GenerateOntology(b, p);
  EXPECT_EQ(a.rdf_graph().size(), b.rdf_graph().size());
}

// ---- Generators -----------------------------------------------------------

TEST(MicroblogGenTest, ShapeMatchesConstruction) {
  GenResult g = GenerateMicroblog(SmallMicroblog());
  const auto& inst = *g.instance;
  EXPECT_TRUE(inst.finalized());
  EXPECT_EQ(inst.UserCount(), 100u);
  // Base tweets = ~8.1% of 300, replies ~6.9% => docs ~45.
  EXPECT_GT(inst.docs().DocumentCount(), 20u);
  EXPECT_LT(inst.docs().DocumentCount(), 80u);
  // Retweets became tags: ~255.
  EXPECT_GT(inst.TagCount(), 150u);
  // Every document has >= 2 children (text + date).
  for (doc::DocId d = 0; d < inst.docs().DocumentCount(); ++d) {
    EXPECT_GE(inst.docs().NodeCount(d), 3u);
  }
  EXPECT_FALSE(g.semantic_anchors.empty());
}

TEST(MicroblogGenTest, DeterministicForSeed) {
  GenResult a = GenerateMicroblog(SmallMicroblog(7));
  GenResult b = GenerateMicroblog(SmallMicroblog(7));
  EXPECT_EQ(a.instance->docs().NodeCount(), b.instance->docs().NodeCount());
  EXPECT_EQ(a.instance->edges().size(), b.instance->edges().size());
  EXPECT_EQ(a.instance->TagCount(), b.instance->TagCount());
}

TEST(MicroblogGenTest, DifferentSeedsDiffer) {
  GenResult a = GenerateMicroblog(SmallMicroblog(7));
  GenResult b = GenerateMicroblog(SmallMicroblog(8));
  EXPECT_NE(a.instance->edges().size(), b.instance->edges().size());
}

TEST(ReviewGenTest, ThreadedCommentsShareComponents) {
  ReviewParams p;
  p.seed = 5;
  p.n_users = 60;
  p.n_movies = 30;
  GenResult g = GenerateReviewSite(p);
  const auto& inst = *g.instance;
  // One component per movie (first comment + replies).
  EXPECT_EQ(inst.components().ComponentCount(), 30u);
  EXPECT_TRUE(g.semantic_anchors.empty());  // I2: no ontology
  EXPECT_EQ(inst.TagCount(), 0u);           // I2: no tags
}

TEST(BusinessGenTest, Shape) {
  BusinessParams p;
  p.seed = 6;
  p.n_users = 80;
  p.n_businesses = 25;
  p.ontology.n_classes = 15;
  p.ontology.n_entities = 60;
  GenResult g = GenerateBusinessReviews(p);
  const auto& inst = *g.instance;
  EXPECT_EQ(inst.components().ComponentCount(), 25u);
  EXPECT_FALSE(g.semantic_anchors.empty());
  EXPECT_EQ(inst.TagCount(), 0u);  // I3: no tags
  // Social edges have weight 1 (friend lists).
  for (const auto& e : inst.edges().edges()) {
    if (e.label == social::EdgeLabel::kSocial) {
      EXPECT_DOUBLE_EQ(e.weight, 1.0);
    }
  }
}

// ---- Query generation ----------------------------------------------------

class QueryGenTest : public ::testing::Test {
 protected:
  void SetUp() override { gen_ = GenerateMicroblog(SmallMicroblog()); }
  GenResult gen_;
};

TEST_F(QueryGenTest, WorkloadShape) {
  WorkloadSpec spec;
  spec.freq = Frequency::kCommon;
  spec.n_keywords = 5;
  spec.k = 10;
  spec.n_queries = 50;
  QuerySet qs = BuildWorkload(*gen_.instance, gen_.semantic_anchors, spec);
  EXPECT_EQ(qs.label, "+,5,10");
  EXPECT_EQ(qs.k, 10u);
  ASSERT_EQ(qs.queries.size(), 50u);
  for (const auto& q : qs.queries) {
    EXPECT_EQ(q.keywords.size(), 5u);
    EXPECT_LT(q.seeker, gen_.instance->UserCount());
    // Keywords are distinct within a query.
    auto sorted = q.keywords;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
              sorted.end());
  }
}

TEST_F(QueryGenTest, RareKeywordsAreRarer) {
  WorkloadSpec rare;
  rare.freq = Frequency::kRare;
  rare.anchor_prob = 0.0;
  rare.n_queries = 40;
  WorkloadSpec common = rare;
  common.freq = Frequency::kCommon;
  auto qs_rare = BuildWorkload(*gen_.instance, {}, rare);
  auto qs_common = BuildWorkload(*gen_.instance, {}, common);
  auto avg_df = [&](const QuerySet& qs) {
    double total = 0;
    size_t n = 0;
    for (const auto& q : qs.queries) {
      for (KeywordId k : q.keywords) {
        total += gen_.instance->index().DocumentFrequency(k);
        ++n;
      }
    }
    return total / n;
  };
  EXPECT_LT(avg_df(qs_rare), avg_df(qs_common));
}

TEST_F(QueryGenTest, DeterministicForSeed) {
  WorkloadSpec spec;
  spec.seed = 77;
  auto a = BuildWorkload(*gen_.instance, gen_.semantic_anchors, spec);
  auto b = BuildWorkload(*gen_.instance, gen_.semantic_anchors, spec);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].seeker, b.queries[i].seeker);
    EXPECT_EQ(a.queries[i].keywords, b.queries[i].keywords);
  }
}

TEST_F(QueryGenTest, LabelFormat) {
  WorkloadSpec spec;
  spec.freq = Frequency::kRare;
  spec.n_keywords = 1;
  spec.k = 5;
  EXPECT_EQ(WorkloadLabel(spec), "-,1,5");
}

// ---- Instance stats ----------------------------------------------------------

TEST_F(QueryGenTest, StatsAreConsistent) {
  InstanceStats s = ComputeStats(*gen_.instance);
  EXPECT_EQ(s.users, gen_.instance->UserCount());
  EXPECT_EQ(s.documents, gen_.instance->docs().DocumentCount());
  EXPECT_EQ(s.tags, gen_.instance->TagCount());
  EXPECT_GT(s.keyword_occurrences, 0u);
  EXPECT_GT(s.social_edges, 0u);
  EXPECT_GE(s.network_edges, s.social_edges);
  EXPECT_GT(s.rdf_triples, 0u);
  std::string rendered = FormatStats("I1", s);
  EXPECT_NE(rendered.find("I1"), std::string::npos);
  EXPECT_NE(rendered.find("Documents"), std::string::npos);
}

}  // namespace
}  // namespace s3::workload
