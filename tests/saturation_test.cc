// Tests for the incremental saturation API: every incremental delta
// must agree with re-saturating the whole store from scratch.
#include <gtest/gtest.h>

#include "rdf/saturation.h"
#include "rdf/vocab.h"

namespace s3 {
namespace {

class IncrementalSaturationTest : public ::testing::Test {
 protected:
  rdf::TermDictionary dict_;
  rdf::TripleStore store_;

  rdf::TermId U(const char* s) { return dict_.InternUri(s); }
  rdf::TermId type() { return dict_.InternUri(rdf::vocab::kType); }
  rdf::TermId sc() { return dict_.InternUri(rdf::vocab::kSubClassOf); }

  // Re-saturating from scratch must agree with the incremental path.
  void ExpectEqualsFromScratch(const rdf::TripleStore& incremental) {
    rdf::TermDictionary dict2;
    rdf::TripleStore scratch;
    // Rebuild with the same term ids by replaying the triples.
    for (const auto& t : incremental.triples()) {
      // Terms are shared (same dictionary), so copy directly.
      scratch.Add(t.subject, t.property, t.object, t.weight);
    }
    rdf::Saturate(dict_, scratch);
    EXPECT_EQ(scratch.size(), incremental.size());
    for (const auto& t : scratch.triples()) {
      EXPECT_TRUE(incremental.Contains(t.subject, t.property, t.object));
    }
  }
};

TEST_F(IncrementalSaturationTest, NewInstanceJoinsExistingSchema) {
  store_.Add(U("ms"), sc(), U("degree"));
  rdf::Saturate(dict_, store_);
  auto stats = rdf::SaturateIncremental(
      dict_, store_, {rdf::Triple{U("mine"), type(), U("ms"), 1.0}});
  EXPECT_TRUE(store_.Contains(U("mine"), type(), U("degree")));
  EXPECT_GE(stats.derived_triples, 1u);
  ExpectEqualsFromScratch(store_);
}

TEST_F(IncrementalSaturationTest, NewSchemaRetypesOldInstances) {
  store_.Add(U("mine"), type(), U("ms"));
  rdf::Saturate(dict_, store_);
  // The subclass arrives later: existing instances must lift.
  rdf::SaturateIncremental(
      dict_, store_, {rdf::Triple{U("ms"), sc(), U("degree"), 1.0}});
  EXPECT_TRUE(store_.Contains(U("mine"), type(), U("degree")));
  ExpectEqualsFromScratch(store_);
}

TEST_F(IncrementalSaturationTest, ChainedDeltas) {
  rdf::Saturate(dict_, store_);
  rdf::SaturateIncremental(dict_, store_,
                           {rdf::Triple{U("a"), sc(), U("b"), 1.0}});
  rdf::SaturateIncremental(dict_, store_,
                           {rdf::Triple{U("b"), sc(), U("c"), 1.0}});
  rdf::SaturateIncremental(dict_, store_,
                           {rdf::Triple{U("x"), type(), U("a"), 1.0}});
  EXPECT_TRUE(store_.Contains(U("a"), sc(), U("c")));
  EXPECT_TRUE(store_.Contains(U("x"), type(), U("c")));
  ExpectEqualsFromScratch(store_);
}

TEST_F(IncrementalSaturationTest, DuplicateDeltaIsNoop) {
  store_.Add(U("a"), sc(), U("b"));
  rdf::Saturate(dict_, store_);
  size_t before = store_.size();
  auto stats = rdf::SaturateIncremental(
      dict_, store_, {rdf::Triple{U("a"), sc(), U("b"), 1.0}});
  EXPECT_EQ(store_.size(), before);
  EXPECT_EQ(stats.derived_triples, 0u);
}

TEST_F(IncrementalSaturationTest, WeightedDeltaDoesNotFireRules) {
  store_.Add(U("ms"), sc(), U("degree"));
  rdf::Saturate(dict_, store_);
  rdf::SaturateIncremental(
      dict_, store_, {rdf::Triple{U("x"), type(), U("ms"), 0.5}});
  EXPECT_FALSE(store_.Contains(U("x"), type(), U("degree")));
}

}  // namespace
}  // namespace s3
