#include <gtest/gtest.h>

#include <algorithm>

#include "rdf/extension.h"
#include "rdf/saturation.h"
#include "rdf/term_dictionary.h"
#include "rdf/triple_store.h"
#include "rdf/vocab.h"

namespace s3::rdf {
namespace {

// ---- TermDictionary -----------------------------------------------------

TEST(TermDictionaryTest, UriAndLiteralAreDistinct) {
  TermDictionary d;
  TermId u = d.InternUri("degree");
  TermId l = d.InternLiteral("degree");
  EXPECT_NE(u, l);
  EXPECT_EQ(d.Kind(u), TermKind::kUri);
  EXPECT_EQ(d.Kind(l), TermKind::kLiteral);
}

TEST(TermDictionaryTest, InternIsStable) {
  TermDictionary d;
  TermId a = d.InternUri("x");
  d.InternUri("y");
  EXPECT_EQ(d.InternUri("x"), a);
  EXPECT_EQ(d.Text(a), "x");
}

TEST(TermDictionaryTest, FindMissing) {
  TermDictionary d;
  EXPECT_EQ(d.Find("nope", TermKind::kUri), kInvalidTerm);
}

// ---- TripleStore ----------------------------------------------------------

class TripleStoreTest : public ::testing::Test {
 protected:
  TermDictionary dict_;
  TripleStore store_;

  TermId U(const char* s) { return dict_.InternUri(s); }
};

TEST_F(TripleStoreTest, AddAndContains) {
  EXPECT_TRUE(store_.Add(U("a"), U("p"), U("b")));
  EXPECT_TRUE(store_.Contains(U("a"), U("p"), U("b")));
  EXPECT_FALSE(store_.Contains(U("a"), U("p"), U("c")));
}

TEST_F(TripleStoreTest, ReAddUpdatesWeightNotSize) {
  store_.Add(U("a"), U("p"), U("b"), 1.0);
  EXPECT_FALSE(store_.Add(U("a"), U("p"), U("b"), 0.5));
  EXPECT_EQ(store_.size(), 1u);
  EXPECT_DOUBLE_EQ(store_.Weight(U("a"), U("p"), U("b")), 0.5);
}

TEST_F(TripleStoreTest, DefaultWeightIsOne) {
  store_.Add(U("a"), U("p"), U("b"));
  EXPECT_DOUBLE_EQ(store_.Weight(U("a"), U("p"), U("b")), 1.0);
}

TEST_F(TripleStoreTest, ObjectsAndSubjects) {
  store_.Add(U("a"), U("p"), U("b"));
  store_.Add(U("a"), U("p"), U("c"));
  store_.Add(U("d"), U("p"), U("b"));
  const auto& objs = store_.WithPropertySubject(U("p"), U("a"));
  ASSERT_EQ(objs.size(), 2u);
  EXPECT_EQ(store_.triples()[objs[0]].object, U("b"));
  EXPECT_EQ(store_.triples()[objs[1]].object, U("c"));
  const auto& subs = store_.WithPropertyObject(U("p"), U("b"));
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_EQ(store_.triples()[subs[0]].subject, U("a"));
  EXPECT_EQ(store_.triples()[subs[1]].subject, U("d"));
}

TEST_F(TripleStoreTest, WithPropertyIndex) {
  store_.Add(U("a"), U("p"), U("b"));
  store_.Add(U("c"), U("q"), U("d"));
  EXPECT_EQ(store_.WithProperty(U("p")).size(), 1u);
  EXPECT_EQ(store_.WithProperty(U("q")).size(), 1u);
  EXPECT_TRUE(store_.WithProperty(U("zz")).empty());
}

// ---- Saturation -------------------------------------------------------------

class SaturationTest : public ::testing::Test {
 protected:
  TermDictionary dict_;
  TripleStore store_;

  TermId U(const char* s) { return dict_.InternUri(s); }
  TermId type() { return dict_.InternUri(vocab::kType); }
  TermId sc() { return dict_.InternUri(vocab::kSubClassOf); }
  TermId sp() { return dict_.InternUri(vocab::kSubPropertyOf); }
  TermId dom() { return dict_.InternUri(vocab::kDomain); }
  TermId rng() { return dict_.InternUri(vocab::kRange); }
};

TEST_F(SaturationTest, SubClassTransitivity) {
  // M.S.Degree ≺sc Degree ≺sc Qualification
  store_.Add(U("MS"), sc(), U("Degree"));
  store_.Add(U("Degree"), sc(), U("Qualification"));
  Saturate(dict_, store_);
  EXPECT_TRUE(store_.Contains(U("MS"), sc(), U("Qualification")));
}

TEST_F(SaturationTest, TypeLiftThroughSubclass) {
  store_.Add(U("MS"), sc(), U("Degree"));
  store_.Add(U("myms"), type(), U("MS"));
  Saturate(dict_, store_);
  EXPECT_TRUE(store_.Contains(U("myms"), type(), U("Degree")));
}

TEST_F(SaturationTest, TypeLiftOrderIndependent) {
  // Schema arrives after the assertion: rule must still fire.
  store_.Add(U("myms"), type(), U("MS"));
  store_.Add(U("MS"), sc(), U("Degree"));
  Saturate(dict_, store_);
  EXPECT_TRUE(store_.Contains(U("myms"), type(), U("Degree")));
}

TEST_F(SaturationTest, SubPropertyPropagation) {
  // workingWith ≺sp acquaintedWith (paper's example)
  store_.Add(U("workingWith"), sp(), U("acquaintedWith"));
  store_.Add(U("u1"), U("workingWith"), U("u0"));
  Saturate(dict_, store_);
  EXPECT_TRUE(store_.Contains(U("u1"), U("acquaintedWith"), U("u0")));
}

TEST_F(SaturationTest, SubPropertyTransitivity) {
  store_.Add(U("p1"), sp(), U("p2"));
  store_.Add(U("p2"), sp(), U("p3"));
  store_.Add(U("a"), U("p1"), U("b"));
  Saturate(dict_, store_);
  EXPECT_TRUE(store_.Contains(U("p1"), sp(), U("p3")));
  EXPECT_TRUE(store_.Contains(U("a"), U("p3"), U("b")));
}

TEST_F(SaturationTest, DomainTyping) {
  // hasDegreeFrom ←d Graduate (paper's example)
  store_.Add(U("hasDegreeFrom"), dom(), U("Graduate"));
  store_.Add(U("u2"), U("hasDegreeFrom"), U("UAlberta"));
  Saturate(dict_, store_);
  EXPECT_TRUE(store_.Contains(U("u2"), type(), U("Graduate")));
}

TEST_F(SaturationTest, RangeTyping) {
  // hasFriend ↪r Person entails u0 type Person (paper §2.1 example).
  store_.Add(U("hasFriend"), rng(), U("Person"));
  store_.Add(U("u1"), U("hasFriend"), U("u0"));
  Saturate(dict_, store_);
  EXPECT_TRUE(store_.Contains(U("u0"), type(), U("Person")));
}

TEST_F(SaturationTest, DomainRangeAfterSubProperty) {
  // An assertion of a sub-property is also an assertion of the super
  // property, which then fires the super property's domain typing.
  store_.Add(U("follows"), sp(), U("social"));
  store_.Add(U("social"), dom(), U("Agent"));
  store_.Add(U("a"), U("follows"), U("b"));
  Saturate(dict_, store_);
  EXPECT_TRUE(store_.Contains(U("a"), U("social"), U("b")));
  EXPECT_TRUE(store_.Contains(U("a"), type(), U("Agent")));
}

TEST_F(SaturationTest, WeightedTriplesDoNotFireRules) {
  // Only weight-1 triples participate in entailment (paper §2.1).
  store_.Add(U("MS"), sc(), U("Degree"));
  store_.Add(U("x"), type(), U("MS"), 0.5);
  Saturate(dict_, store_);
  EXPECT_FALSE(store_.Contains(U("x"), type(), U("Degree")));
}

TEST_F(SaturationTest, FixpointIsStable) {
  store_.Add(U("a"), sc(), U("b"));
  store_.Add(U("b"), sc(), U("c"));
  store_.Add(U("x"), type(), U("a"));
  Saturate(dict_, store_);
  size_t size_after_first = store_.size();
  SaturationStats again = Saturate(dict_, store_);
  EXPECT_EQ(store_.size(), size_after_first);
  EXPECT_EQ(again.derived_triples, 0u);
}

TEST_F(SaturationTest, CyclicSubclassTerminates) {
  store_.Add(U("a"), sc(), U("b"));
  store_.Add(U("b"), sc(), U("a"));
  store_.Add(U("x"), type(), U("a"));
  SaturationStats stats = Saturate(dict_, store_);
  EXPECT_TRUE(store_.Contains(U("x"), type(), U("b")));
  EXPECT_GT(stats.rounds, 0u);
}

TEST_F(SaturationTest, DeepChainFullyClosed) {
  const int n = 30;
  for (int i = 0; i + 1 < n; ++i) {
    store_.Add(U(("c" + std::to_string(i)).c_str()), sc(),
               U(("c" + std::to_string(i + 1)).c_str()));
  }
  store_.Add(U("inst"), type(), U("c0"));
  Saturate(dict_, store_);
  EXPECT_TRUE(store_.Contains(U("inst"), type(), U("c29")));
  // c0 subclass of every other class.
  for (int i = 1; i < n; ++i) {
    EXPECT_TRUE(store_.Contains(U("c0"), sc(),
                                U(("c" + std::to_string(i)).c_str())));
  }
}

// ---- Extension --------------------------------------------------------------

class ExtensionTest : public SaturationTest {};

TEST_F(ExtensionTest, ContainsSelf) {
  Saturate(dict_, store_);
  auto ext = Extension(dict_, store_, U("anything"));
  ASSERT_EQ(ext.size(), 1u);
  EXPECT_EQ(ext[0], U("anything"));
}

TEST_F(ExtensionTest, PaperDegreeExample) {
  // M.S. ≺sc degree  =>  M.S. ∈ Ext(degree)
  store_.Add(U("M.S."), sc(), U("degree"));
  Saturate(dict_, store_);
  auto ext = Extension(dict_, store_, U("degree"));
  EXPECT_NE(std::find(ext.begin(), ext.end(), U("M.S.")), ext.end());
}

TEST_F(ExtensionTest, InstancesJoinExtension) {
  store_.Add(U("ualberta"), type(), U("university"));
  Saturate(dict_, store_);
  auto ext = Extension(dict_, store_, U("university"));
  EXPECT_NE(std::find(ext.begin(), ext.end(), U("ualberta")), ext.end());
}

TEST_F(ExtensionTest, TransitiveSpecializationsIncluded) {
  store_.Add(U("msdegree"), sc(), U("degree"));
  store_.Add(U("cs_msdegree"), sc(), U("msdegree"));
  store_.Add(U("mine"), type(), U("cs_msdegree"));
  Saturate(dict_, store_);
  auto ext = Extension(dict_, store_, U("degree"));
  // Saturation closes ≺sc and lifts types, so all three join Ext.
  EXPECT_NE(std::find(ext.begin(), ext.end(), U("msdegree")), ext.end());
  EXPECT_NE(std::find(ext.begin(), ext.end(), U("cs_msdegree")), ext.end());
  EXPECT_NE(std::find(ext.begin(), ext.end(), U("mine")), ext.end());
}

TEST_F(ExtensionTest, NoGeneralization) {
  // Ext must never include superclasses (no loss of precision, §2.1).
  store_.Add(U("msdegree"), sc(), U("degree"));
  Saturate(dict_, store_);
  auto ext = Extension(dict_, store_, U("msdegree"));
  EXPECT_EQ(std::find(ext.begin(), ext.end(), U("degree")), ext.end());
}

TEST_F(ExtensionTest, SubPropertiesIncluded) {
  store_.Add(U("vdk:follow"), sp(), U("S3:social"));
  Saturate(dict_, store_);
  auto ext = Extension(dict_, store_, U("S3:social"));
  EXPECT_NE(std::find(ext.begin(), ext.end(), U("vdk:follow")), ext.end());
}

TEST_F(ExtensionTest, NoDuplicates) {
  store_.Add(U("a"), sc(), U("k"));
  store_.Add(U("a"), type(), U("k"));  // both rules hit the same term
  Saturate(dict_, store_);
  auto ext = Extension(dict_, store_, U("k"));
  std::sort(ext.begin(), ext.end());
  EXPECT_EQ(std::adjacent_find(ext.begin(), ext.end()), ext.end());
}

}  // namespace
}  // namespace s3::rdf
