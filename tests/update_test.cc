// Live-update pipeline tests: InstanceDelta validation, ApplyDelta
// equivalence against a from-scratch rebuild (bit for bit, three
// successive generations), structural sharing across generations, and
// QueryService::SwapSnapshot publishing new generations to a service
// under concurrent query load (the ConcurrentSwap suite runs under
// TSan in CI).
//
// The equivalence harness exploits that InstanceDelta mirrors the
// S3Instance population API: the same deterministic op script is
// applied to a delta (then ApplyDelta) and to a fresh instance (then
// one Finalize). Rebuild equivalence is exact because the op order —
// base script, then round scripts — is identical on both paths and the
// base has no RDF-imported social edges.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/instance_delta.h"
#include "core/naive_reference.h"
#include "core/s3k.h"
#include "server/query_service.h"
#include "test_fixtures.h"

namespace s3::core {
namespace {

using server::QueryFuture;
using server::QueryService;
using server::QueryServiceOptions;
using s3::testing::ConvergedProx;
using s3::testing::ExactScore;

// ---- deterministic op scripts -----------------------------------------

struct PopCounts {
  uint32_t users = 0;
  uint32_t docs = 0;
  uint32_t nodes = 0;
  uint32_t tags = 0;
};

constexpr uint32_t kUsers = 6;

// The base population. `stable_kw` is used by exactly one base node and
// never by any update round — its postings list must stay shared across
// every generation.
void PopulateBase(S3Instance& inst, std::vector<KeywordId>& pool,
                  KeywordId& stable_kw, PopCounts& c) {
  for (uint32_t u = 0; u < kUsers; ++u) {
    inst.AddUser("u" + std::to_string(u));
  }
  c.users = kUsers;
  for (int k = 0; k < 6; ++k) {
    pool.push_back(inst.InternKeyword("kw" + std::to_string(k)));
  }
  stable_kw = inst.InternKeyword("stablekw");
  // Small ontology so semantic extension is exercised (deltas share the
  // saturated graph wholesale).
  inst.DeclareSubClass("kw1", "kw0");
  inst.DeclareType("kw2", "kw0");

  Rng rng(42);
  for (int i = 0; i < 6; ++i) {
    doc::Document d("doc");
    uint32_t n_children = static_cast<uint32_t>(rng.Uniform(3));
    for (uint32_t ch = 0; ch < n_children; ++ch) {
      uint32_t parent = static_cast<uint32_t>(rng.Uniform(d.NodeCount()));
      uint32_t child = d.AddChild(parent, "n");
      d.AddKeywords(child, {pool[rng.Uniform(pool.size())]});
    }
    d.AddKeywords(0, {pool[rng.Uniform(pool.size())]});
    if (i == 0) d.AddKeywords(0, {stable_kw});
    social::UserId poster =
        static_cast<social::UserId>(rng.Uniform(kUsers));
    const uint32_t n_doc_nodes = static_cast<uint32_t>(d.NodeCount());
    auto id = inst.AddDocument(std::move(d), "d" + std::to_string(i),
                               poster);
    ASSERT_TRUE(id.ok());
    const uint32_t nodes_before = c.nodes;
    c.nodes += n_doc_nodes;
    ++c.docs;
    if (i > 0 && rng.Chance(0.5)) {
      ASSERT_TRUE(
          inst.AddComment(*id, static_cast<doc::NodeId>(
                                   rng.Uniform(nodes_before)))
              .ok());
    }
  }
  for (int t = 0; t < 4; ++t) {
    social::UserId author =
        static_cast<social::UserId>(rng.Uniform(kUsers));
    KeywordId kw = rng.Chance(0.6) ? pool[rng.Uniform(pool.size())]
                                   : kInvalidKeyword;
    ASSERT_TRUE(inst.AddTagOnFragment(
                        author,
                        static_cast<doc::NodeId>(rng.Uniform(c.nodes)),
                        kw)
                    .ok());
    ++c.tags;
  }
  ASSERT_TRUE(inst.AddSocialEdge(0, 1, 0.9).ok());
  ASSERT_TRUE(inst.AddSocialEdge(1, 0, 0.8).ok());
  for (int e = 0; e < 6; ++e) {
    social::UserId a = static_cast<social::UserId>(rng.Uniform(kUsers));
    social::UserId b = static_cast<social::UserId>(rng.Uniform(kUsers));
    if (a == b) continue;
    ASSERT_TRUE(
        inst.AddSocialEdge(a, b, 0.2 + 0.7 * rng.NextDouble()).ok());
  }
}

// One update round: new documents (some commenting on older nodes),
// tags (some on tags, some endorsements), social edges and one new
// keyword spelling. Works identically against an InstanceDelta and a
// rebuilding S3Instance — op validity depends only on `c`, never on
// sink state. User 0 is never a source of anything.
template <typename Sink>
void ApplyUpdateRound(Sink& sink, uint64_t seed, PopCounts& c,
                      std::vector<KeywordId>& pool) {
  Rng rng(seed);
  pool.push_back(sink.InternKeyword("rk" + std::to_string(seed)));
  for (int i = 0; i < 3; ++i) {
    doc::Document d("doc");
    uint32_t n_children = static_cast<uint32_t>(rng.Uniform(3));
    for (uint32_t ch = 0; ch < n_children; ++ch) {
      uint32_t parent = static_cast<uint32_t>(rng.Uniform(d.NodeCount()));
      uint32_t child = d.AddChild(parent, "n");
      if (rng.Chance(0.8)) {
        d.AddKeywords(child, {pool[rng.Uniform(pool.size())]});
      }
    }
    d.AddKeywords(0, {pool[rng.Uniform(pool.size())]});
    social::UserId poster =
        static_cast<social::UserId>(1 + rng.Uniform(c.users - 1));
    const uint32_t n_doc_nodes = static_cast<uint32_t>(d.NodeCount());
    const uint32_t nodes_before = c.nodes;
    auto id = sink.AddDocument(std::move(d),
                               "r" + std::to_string(seed) + "_" +
                                   std::to_string(i),
                               poster);
    ASSERT_TRUE(id.ok());
    c.nodes += n_doc_nodes;
    ++c.docs;
    if (rng.Chance(0.6)) {
      ASSERT_TRUE(sink.AddComment(*id, static_cast<doc::NodeId>(
                                           rng.Uniform(nodes_before)))
                      .ok());
    }
  }
  for (int t = 0; t < 2; ++t) {
    social::UserId author =
        static_cast<social::UserId>(1 + rng.Uniform(c.users - 1));
    KeywordId kw = rng.Chance(0.7) ? pool[rng.Uniform(pool.size())]
                                   : kInvalidKeyword;
    if (c.tags > 0 && rng.Chance(0.3)) {
      ASSERT_TRUE(sink.AddTagOnTag(author,
                                   static_cast<social::TagId>(
                                       rng.Uniform(c.tags)),
                                   kw)
                      .ok());
    } else {
      ASSERT_TRUE(sink.AddTagOnFragment(author,
                                        static_cast<doc::NodeId>(
                                            rng.Uniform(c.nodes)),
                                        kw)
                      .ok());
    }
    ++c.tags;
  }
  for (int e = 0; e < 2; ++e) {
    social::UserId a =
        static_cast<social::UserId>(1 + rng.Uniform(c.users - 1));
    social::UserId b =
        static_cast<social::UserId>(1 + rng.Uniform(c.users - 1));
    if (a == b) continue;
    ASSERT_TRUE(
        sink.AddSocialEdge(a, b, 0.2 + 0.7 * rng.NextDouble()).ok());
  }
}

// Builds the rebuilt-from-scratch oracle for `rounds` applied rounds:
// one fresh instance, base script + round scripts, a single Finalize.
std::shared_ptr<const S3Instance> RebuildFromScratch(size_t rounds) {
  auto inst = std::make_shared<S3Instance>();
  std::vector<KeywordId> pool;
  KeywordId stable = kInvalidKeyword;
  PopCounts c;
  PopulateBase(*inst, pool, stable, c);
  for (size_t r = 1; r <= rounds; ++r) {
    ApplyUpdateRound(*inst, 1000 + r, c, pool);
  }
  EXPECT_TRUE(inst->Finalize().ok());
  return inst;
}

S3kOptions TestOptions() {
  S3kOptions opts;
  opts.k = 5;
  opts.score.gamma = 1.5;
  opts.max_iterations = 400;
  return opts;
}

// Mixed query set over the generation-0 keyword pool (always valid for
// admission, whatever the current generation). Keywords pre-sorted so
// serial Search sees the cache's canonical slot order.
std::vector<Query> MakeQueries(const std::vector<KeywordId>& pool,
                               size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> out;
  for (size_t i = 0; i < n; ++i) {
    Query q;
    q.seeker = static_cast<social::UserId>(rng.Uniform(kUsers));
    const size_t l = 1 + rng.Uniform(2);
    for (size_t j = 0; j < l; ++j) {
      q.keywords.push_back(pool[rng.Uniform(pool.size())]);
    }
    std::sort(q.keywords.begin(), q.keywords.end());
    out.push_back(std::move(q));
  }
  return out;
}

void ExpectSameResults(const std::vector<ResultEntry>& got,
                       const std::vector<ResultEntry>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node) << what << " rank " << i;
    // Bit-for-bit: the incremental derived structures must be exactly
    // the rebuild's, so the float pipeline agrees to the last bit.
    EXPECT_EQ(got[i].lower, want[i].lower) << what << " rank " << i;
    EXPECT_EQ(got[i].upper, want[i].upper) << what << " rank " << i;
  }
}

// ---- InstanceDelta validation -----------------------------------------

TEST(InstanceDeltaTest, ValidatesOperations) {
  auto base = std::make_shared<S3Instance>();
  std::vector<KeywordId> pool;
  KeywordId stable;
  PopCounts c;
  PopulateBase(*base, pool, stable, c);
  ASSERT_TRUE(base->Finalize().ok());
  std::shared_ptr<const S3Instance> snap = base;

  InstanceDelta delta(snap);
  EXPECT_EQ(delta.AddDocument(doc::Document("doc"), "d0", 0)
                .status()
                .code(),
            StatusCode::kAlreadyExists);  // base URI taken
  EXPECT_EQ(delta.AddDocument(doc::Document("doc"), "fresh", kUsers + 3)
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // unknown poster
  EXPECT_EQ(delta.AddComment(c.docs + 5, 0).code(),
            StatusCode::kInvalidArgument);  // unknown doc
  EXPECT_EQ(delta.AddComment(0, snap->docs().RootNode(0)).code(),
            StatusCode::kInvalidArgument);  // self comment
  EXPECT_EQ(delta.AddTagOnFragment(0, c.nodes + 9, pool[0])
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // unknown subject
  EXPECT_EQ(delta.AddTagOnFragment(0, 0, 123456).status().code(),
            StatusCode::kInvalidArgument);  // keyword id out of range
  doc::Document marker("doc");
  marker.AddKeywords(0, {kInvalidKeyword});
  EXPECT_EQ(delta.AddDocument(std::move(marker), "marker", 0)
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // endorsement id in a document
  EXPECT_EQ(delta.AddTagOnTag(0, c.tags + 7, pool[0]).status().code(),
            StatusCode::kInvalidArgument);  // unknown subject tag
  EXPECT_EQ(delta.AddSocialEdge(0, 1, 1.5).code(),
            StatusCode::kInvalidArgument);  // bad weight
  EXPECT_EQ(delta.AddSocialEdge(kUsers + 1, 0, 0.5).code(),
            StatusCode::kInvalidArgument);  // unknown user
  EXPECT_TRUE(delta.empty());

  // Valid ops referencing both old and delta-new entities.
  doc::Document fresh("doc");
  fresh.AddKeywords(0, {delta.InternKeyword("brandnew")});
  auto id = delta.AddDocument(std::move(fresh), "fresh", 1);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, c.docs);  // continues the base id space
  EXPECT_TRUE(delta.AddComment(*id, 0).ok());
  auto tag = delta.AddTagOnFragment(1, c.nodes, pool[0]);  // new node
  ASSERT_TRUE(tag.ok());
  EXPECT_EQ(*tag, c.tags);
  EXPECT_EQ(delta.op_count(), 3u);

  // A duplicate URI within the same delta is rejected too.
  EXPECT_EQ(delta.AddDocument(doc::Document("doc"), "fresh", 1)
                .status()
                .code(),
            StatusCode::kAlreadyExists);
}

// Node URIs are unique across the base and the delta's own documents,
// checked when the delta is built, not when it is replayed.
TEST(InstanceDeltaTest, RefusesNodeUriClashesWhenBuilt) {
  auto base = std::make_shared<S3Instance>();
  const social::UserId u = base->AddUser("u");
  doc::Document parent("doc");
  parent.AddChild(0, "child");
  ASSERT_TRUE(base->AddDocument(std::move(parent), "a", u).ok());
  ASSERT_TRUE(base->Finalize().ok());
  std::shared_ptr<const S3Instance> snap = base;

  InstanceDelta delta(snap);
  // The root "a.1" is the URI of the base document's child.
  EXPECT_EQ(delta.AddDocument(doc::Document("doc"), "a.1", u)
                .status()
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(delta.empty());
  // Within the delta: "b" with a first child after a root "b.1".
  ASSERT_TRUE(delta.AddDocument(doc::Document("doc"), "b.1", u).ok());
  doc::Document clash("doc");
  clash.AddChild(0, "child");
  EXPECT_EQ(delta.AddDocument(clash, "b", u).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(delta.new_document_count(), 1u);
  EXPECT_EQ(delta.new_node_count(), 1u);
  // And a root in the delta cannot take a base root's derived child:
  // "a" with its own first child is the base root again.
  EXPECT_FALSE(delta.AddDocument(clash, "a", u).ok());

  auto next = snap->ApplyDelta(delta);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ((*next)->docs().FindByUri("b.1").value(),
            (*next)->docs().RootNode(1));
  EXPECT_EQ((*next)->docs().FindByUri("a.1").value(), 1u);
}

TEST(InstanceDeltaTest, ApplyRejectsForeignBase) {
  std::shared_ptr<const S3Instance> a = RebuildFromScratch(0);
  std::shared_ptr<const S3Instance> b = RebuildFromScratch(0);
  InstanceDelta delta(a);
  EXPECT_TRUE(delta.AddSocialEdge(1, 2, 0.5).ok());
  auto applied = b->ApplyDelta(delta);
  EXPECT_EQ(applied.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(a->ApplyDelta(delta).ok());
}

TEST(InstanceDeltaTest, ApplyRejectsStaleBaseGeneration) {
  std::shared_ptr<const S3Instance> snap = RebuildFromScratch(0);
  InstanceDelta delta(snap);
  EXPECT_TRUE(delta.AddSocialEdge(1, 2, 0.5).ok());
  auto next = snap->ApplyDelta(delta);
  ASSERT_TRUE(next.ok());
  // Re-applying the same delta to the *next* generation must fail: its
  // ids are base-relative.
  EXPECT_EQ((*next)->ApplyDelta(delta).status().code(),
            StatusCode::kInvalidArgument);
}

// ---- plans are stamped with the instance they were built on ----------

// A plan carries row ids of the generation it was built on; the next
// generation appends fragments, so its tag rows move. Searching with a
// plan from another generation, older or newer, must fail rather than
// read shifted rows (or, with a newer plan, write past the sums).
TEST(CandidatePlanTest, RejectsPlanFromStaleGeneration) {
  auto base = std::make_shared<S3Instance>();
  std::vector<KeywordId> pool;
  KeywordId stable = kInvalidKeyword;
  PopCounts c;
  PopulateBase(*base, pool, stable, c);
  ASSERT_TRUE(base->Finalize().ok());
  std::shared_ptr<const S3Instance> old_gen = base;
  InstanceDelta delta(old_gen);
  ApplyUpdateRound(delta, 1001, c, pool);
  auto applied = old_gen->ApplyDelta(delta);
  ASSERT_TRUE(applied.ok()) << applied.status().message();
  std::shared_ptr<const S3Instance> new_gen = *applied;
  ASSERT_GT(new_gen->docs().NodeCount(), old_gen->docs().NodeCount());

  const S3kOptions opts = TestOptions();
  const std::vector<KeywordId> kws = {pool[0]};
  auto old_plan = BuildCandidatePlan(*old_gen, kws, true, opts.score.eta);
  auto new_plan = BuildCandidatePlan(*new_gen, kws, true, opts.score.eta);
  ASSERT_TRUE(old_plan.ok());
  ASSERT_TRUE(new_plan.ok());
  EXPECT_EQ(old_plan->generation, 0u);
  EXPECT_EQ(new_plan->generation, 1u);

  S3kSearcher on_old(*old_gen, opts);
  S3kSearcher on_new(*new_gen, opts);
  const Query q{1, kws};
  EXPECT_EQ(on_new.SearchWithPlan(q, *old_plan).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(on_old.SearchWithPlan(q, *new_plan).status().code(),
            StatusCode::kInvalidArgument);
  // Each plan still serves its own generation.
  EXPECT_TRUE(on_old.SearchWithPlan(q, *old_plan).ok());
  EXPECT_TRUE(on_new.SearchWithPlan(q, *new_plan).ok());
}

// Two independently built instances share generation 0 but not their
// lineage: a plan from one is refused by the other even though the two
// happen to hold the same data.
TEST(CandidatePlanTest, RejectsPlanFromForeignLineage) {
  std::shared_ptr<const S3Instance> a = RebuildFromScratch(0);
  std::shared_ptr<const S3Instance> b = RebuildFromScratch(0);
  ASSERT_EQ(a->generation(), b->generation());
  ASSERT_NE(a->lineage(), b->lineage());
  const S3kOptions opts = TestOptions();
  const std::vector<KeywordId> kws = {0};
  auto plan_b = BuildCandidatePlan(*b, kws, true, opts.score.eta);
  ASSERT_TRUE(plan_b.ok());
  EXPECT_EQ(plan_b->lineage, b->lineage());
  S3kSearcher searcher(*a, opts);
  EXPECT_EQ(searcher.SearchWithPlan(Query{1, kws}, *plan_b).status().code(),
            StatusCode::kInvalidArgument);
  auto plan_a = BuildCandidatePlan(*a, kws, true, opts.score.eta);
  ASSERT_TRUE(plan_a.ok());
  EXPECT_TRUE(searcher.SearchWithPlan(Query{1, kws}, *plan_a).ok());
}

// ---- the acceptance pin: 3 generations vs rebuild ---------------------

TEST(LiveUpdateTest, ThreeGenerationsMatchRebuildBitForBit) {
  auto base = std::make_shared<S3Instance>();
  std::vector<KeywordId> pool;
  KeywordId stable = kInvalidKeyword;
  PopCounts c;
  PopulateBase(*base, pool, stable, c);
  ASSERT_TRUE(base->Finalize().ok());
  EXPECT_EQ(base->generation(), 0u);
  std::shared_ptr<const S3Instance> cur = base;

  const S3kOptions opts = TestOptions();

  for (size_t round = 1; round <= 3; ++round) {
    InstanceDelta delta(cur);
    ApplyUpdateRound(delta, 1000 + round, c, pool);
    ASSERT_FALSE(delta.empty());
    std::vector<std::vector<doc::NodeId>> base_postings;
    for (KeywordId k = 0; k < cur->vocabulary().size(); ++k) {
      base_postings.push_back(s3::testing::AsVector(cur->index().Postings(k)));
    }
    auto next = cur->ApplyDelta(delta);
    ASSERT_TRUE(next.ok()) << next.status().message();
    EXPECT_EQ((*next)->generation(), round);

    // The rebuilt-from-scratch oracle replays the identical op script
    // into one instance and finalizes once.
    auto rebuilt = RebuildFromScratch(round);

    // Derived-structure invariants.
    EXPECT_EQ((*next)->UserCount(), rebuilt->UserCount());
    EXPECT_EQ((*next)->docs().NodeCount(), rebuilt->docs().NodeCount());
    EXPECT_EQ((*next)->TagCount(), rebuilt->TagCount());
    EXPECT_EQ((*next)->vocabulary().size(), rebuilt->vocabulary().size());
    EXPECT_EQ((*next)->components().ComponentCount(),
              rebuilt->components().ComponentCount());
    EXPECT_EQ((*next)->matrix().nonzeros(), rebuilt->matrix().nonzeros());
    for (uint32_t row = 0; row < (*next)->layout().total(); ++row) {
      ASSERT_EQ((*next)->components().OfRow(row),
                rebuilt->components().OfRow(row))
          << "component id diverges at row " << row;
      auto got_row = (*next)->matrix().Row(row);
      auto want_row = rebuilt->matrix().Row(row);
      ASSERT_EQ(got_row, want_row)
          << "matrix row diverges at row " << row;
      ASSERT_EQ((*next)->matrix().Denominator(row),
                rebuilt->matrix().Denominator(row));
    }

    // Query equivalence, bit for bit, including brand-new keywords.
    S3kSearcher inc_searcher(**next, opts);
    S3kSearcher reb_searcher(*rebuilt, opts);
    auto queries = MakeQueries(pool, 24, 7000 + round);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      SearchStats inc_stats, reb_stats;
      auto got = inc_searcher.Search(queries[qi], &inc_stats);
      auto want = reb_searcher.Search(queries[qi], &reb_stats);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(want.ok());
      ExpectSameResults(*got, *want,
                        "round " + std::to_string(round) + " query " +
                            std::to_string(qi));
      EXPECT_EQ(inc_stats.converged, reb_stats.converged);

      // NaiveSearch oracle on the rebuilt instance (converged queries):
      // descending exact-score multisets agree.
      if (qi % 5 == 0 && reb_stats.converged) {
        auto prox = ConvergedProx(*rebuilt, queries[qi].seeker,
                                  opts.score.gamma);
        auto oracle =
            NaiveSearchWithProx(*rebuilt, queries[qi], opts, prox);
        ASSERT_EQ(got->size(), oracle.size());
        std::vector<double> got_scores, want_scores;
        for (size_t r = 0; r < oracle.size(); ++r) {
          got_scores.push_back(ExactScore(*rebuilt, queries[qi], opts,
                                          (*got)[r].node, prox));
          want_scores.push_back(oracle[r].lower);
        }
        std::sort(got_scores.rbegin(), got_scores.rend());
        std::sort(want_scores.rbegin(), want_scores.rend());
        for (size_t r = 0; r < want_scores.size(); ++r) {
          EXPECT_NEAR(got_scores[r], want_scores[r], 1e-7);
        }
      }
    }

    // The successor's postings equal the rebuild's, the untouched list
    // reads as before, and the base's postings are unchanged by its
    // successor's build.
    for (KeywordId k = 0; k < rebuilt->vocabulary().size(); ++k) {
      EXPECT_EQ(s3::testing::AsVector((*next)->index().Postings(k)),
                s3::testing::AsVector(rebuilt->index().Postings(k)))
          << "postings of keyword " << k;
    }
    EXPECT_EQ(s3::testing::AsVector((*next)->index().Postings(stable)),
              base_postings[stable]);
    for (KeywordId k = 0; k < base_postings.size(); ++k) {
      EXPECT_EQ(s3::testing::AsVector(cur->index().Postings(k)),
                base_postings[k])
          << "base postings of keyword " << k;
    }
    // Every full chunk of the base's edge log is the same heap object.
    EXPECT_EQ((*next)->edges().SharedChunks(cur->edges()),
              cur->edges().size() / social::EdgeStore::kChunkSize);
    // And the base snapshot is untouched and still queryable.
    EXPECT_EQ(cur->generation(), round - 1);

    cur = *next;
  }
}

TEST(LiveUpdateTest, DeltaMergesExistingComponents) {
  // Base: two unlinked documents -> two components. The delta adds a
  // comment edge between the *existing* documents, merging them; the
  // incremental partition (ids included) must match the rebuild.
  auto make_base = [](S3Instance& inst, KeywordId* kw) {
    inst.AddUser("u0");
    inst.AddUser("u1");
    *kw = inst.InternKeyword("kw");
    doc::Document d0("doc");
    d0.AddKeywords(0, {*kw});
    ASSERT_TRUE(inst.AddDocument(std::move(d0), "d0", 0).ok());
    doc::Document d1("doc");
    d1.AddKeywords(0, {*kw});
    ASSERT_TRUE(inst.AddDocument(std::move(d1), "d1", 1).ok());
    ASSERT_TRUE(inst.AddSocialEdge(0, 1, 0.5).ok());
  };

  auto base = std::make_shared<S3Instance>();
  KeywordId kw = kInvalidKeyword;
  make_base(*base, &kw);
  ASSERT_TRUE(base->Finalize().ok());
  std::shared_ptr<const S3Instance> snap = base;
  ASSERT_EQ(snap->components().ComponentCount(), 2u);

  InstanceDelta delta(snap);
  ASSERT_TRUE(delta.AddComment(1, snap->docs().RootNode(0)).ok());
  auto next = snap->ApplyDelta(delta);
  ASSERT_TRUE(next.ok()) << next.status().message();

  auto rebuilt = std::make_shared<S3Instance>();
  KeywordId kw2 = kInvalidKeyword;
  make_base(*rebuilt, &kw2);
  ASSERT_TRUE(rebuilt->AddComment(1, rebuilt->docs().RootNode(0)).ok());
  ASSERT_TRUE(rebuilt->Finalize().ok());

  EXPECT_EQ((*next)->components().ComponentCount(), 1u);
  for (uint32_t row = 0; row < (*next)->layout().total(); ++row) {
    EXPECT_EQ((*next)->components().OfRow(row),
              rebuilt->components().OfRow(row));
    EXPECT_EQ((*next)->matrix().Row(row), rebuilt->matrix().Row(row));
  }
  EXPECT_EQ(s3::testing::AsVector((*next)->ComponentsWithKeyword(kw)),
            s3::testing::AsVector(rebuilt->ComponentsWithKeyword(kw2)));
  // The base still sees its pre-merge partition.
  EXPECT_EQ(snap->components().ComponentCount(), 2u);

  S3kSearcher a(**next, TestOptions());
  S3kSearcher b(*rebuilt, TestOptions());
  Query q{0, {kw}};
  auto ra = a.Search(q);
  auto rb = b.Search(q);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  ExpectSameResults(*ra, *rb, "merged-component query");
}

// ---- hot swap under concurrent load (TSan target) ---------------------

TEST(ConcurrentSwapTest, SwapUnderLoadServesExactlyOneGeneration) {
  constexpr size_t kRounds = 3;

  // Generations 0..3 plus their rebuilt-from-scratch oracles and the
  // serial per-generation expected results.
  std::vector<std::shared_ptr<const S3Instance>> gens;
  std::vector<KeywordId> pool;
  KeywordId stable = kInvalidKeyword;
  PopCounts c;
  {
    auto base = std::make_shared<S3Instance>();
    PopulateBase(*base, pool, stable, c);
    ASSERT_TRUE(base->Finalize().ok());
    gens.push_back(base);
  }
  const std::vector<KeywordId> gen0_pool = pool;
  for (size_t round = 1; round <= kRounds; ++round) {
    InstanceDelta delta(gens.back());
    ApplyUpdateRound(delta, 1000 + round, c, pool);
    auto next = gens.back()->ApplyDelta(delta);
    ASSERT_TRUE(next.ok()) << next.status().message();
    gens.push_back(*next);
  }

  const S3kOptions opts = TestOptions();
  auto queries = MakeQueries(gen0_pool, 16, 99);
  // expected[g][qi]: serial results on the rebuilt-from-scratch oracle
  // of generation g — the acceptance bar for every service response.
  std::vector<std::vector<std::vector<ResultEntry>>> expected(kRounds + 1);
  for (size_t g = 0; g <= kRounds; ++g) {
    auto rebuilt = RebuildFromScratch(g);
    S3kSearcher searcher(*rebuilt, opts);
    for (const Query& q : queries) {
      auto r = searcher.Search(q);
      ASSERT_TRUE(r.ok());
      expected[g].push_back(*r);
    }
  }

  QueryServiceOptions service_opts;
  service_opts.workers = 4;
  service_opts.queue_capacity = 64;
  service_opts.search = opts;
  service_opts.enable_cache = true;
  service_opts.cache_shards = 4;
  service_opts.cache_capacity_per_shard = 16;
  QueryService service(gens[0], service_opts);

  // A response is valid iff it matches its *own* generation's oracle
  // exactly — mixing structures from two generations would diverge
  // from both.
  std::atomic<size_t> checked{0};
  auto check_response = [&](size_t qi, const server::QueryResponse& resp) {
    ASSERT_LE(resp.generation, kRounds);
    const auto& want = expected[resp.generation][qi];
    ASSERT_EQ(resp.entries.size(), want.size())
        << "generation " << resp.generation << " query " << qi;
    for (size_t r = 0; r < want.size(); ++r) {
      ASSERT_EQ(resp.entries[r].node, want[r].node)
          << "generation " << resp.generation << " query " << qi;
      ASSERT_EQ(resp.entries[r].lower, want[r].lower);
      ASSERT_EQ(resp.entries[r].upper, want[r].upper);
    }
    checked.fetch_add(1);
  };

  for (size_t round = 1; round <= kRounds; ++round) {
    // Hammer the service from 3 client threads while the swap lands.
    std::vector<std::thread> clients;
    for (int t = 0; t < 3; ++t) {
      clients.emplace_back([&, t] {
        for (size_t pass = 0; pass < 4; ++pass) {
          for (size_t qi = t; qi < queries.size(); qi += 3) {
            auto submitted = service.SubmitBlocking(queries[qi]);
            ASSERT_TRUE(submitted.ok());
            auto resp = submitted->get();
            ASSERT_TRUE(resp.ok()) << resp.status().message();
            check_response(qi, *resp);
          }
        }
      });
    }
    ASSERT_TRUE(service.SwapSnapshot(gens[round]).ok());
    for (auto& t : clients) t.join();

    // Quiesced: every response now comes from the new generation.
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      auto submitted = service.SubmitBlocking(queries[qi]);
      ASSERT_TRUE(submitted.ok());
      auto resp = submitted->get();
      ASSERT_TRUE(resp.ok());
      EXPECT_EQ(resp->generation, round);
      check_response(qi, *resp);
    }
  }
  EXPECT_GT(checked.load(), 0u);
  EXPECT_EQ(service.Stats().failed, 0u);
  EXPECT_EQ(service.snapshot()->generation(), kRounds);
  // After each swap the first query over a keyword set repaired the
  // set's older plan, and the cache kept one plan per set.
  ASSERT_NE(service.cache(), nullptr);
  EXPECT_GT(service.cache()->Stats().repairs, 0u);
  EXPECT_LE(service.cache()->Stats().entries, queries.size());
}

// Stale plans must never be served against a new snapshot: after a
// swap the primed plan is not a hit, and its repair reflects the
// delta's documents.
TEST(ConcurrentSwapTest, CachedPlansNeverCrossGenerations) {
  auto base = std::make_shared<S3Instance>();
  std::vector<KeywordId> pool;
  KeywordId stable = kInvalidKeyword;
  PopCounts c;
  PopulateBase(*base, pool, stable, c);
  ASSERT_TRUE(base->Finalize().ok());
  std::shared_ptr<const S3Instance> snap = base;

  // Hot query: two pool keywords, seeker 1.
  Query hot;
  hot.seeker = 1;
  hot.keywords = {pool[0], pool[3]};
  std::sort(hot.keywords.begin(), hot.keywords.end());

  // The delta plants a document posted *by the seeker* containing both
  // hot keywords — with postedBy weight 1 it dominates the seeker's
  // proximity, so the hot top-1 must change after the swap.
  InstanceDelta delta(snap);
  doc::Document planted("doc");
  planted.AddKeywords(0, {pool[0], pool[3]});
  auto planted_id = delta.AddDocument(std::move(planted), "planted", 1);
  ASSERT_TRUE(planted_id.ok());
  auto next = snap->ApplyDelta(delta);
  ASSERT_TRUE(next.ok());
  const doc::NodeId planted_node = (*next)->docs().RootNode(*planted_id);

  const S3kOptions opts = TestOptions();
  S3kSearcher old_searcher(*snap, opts);
  S3kSearcher new_searcher(**next, opts);
  auto old_expected = old_searcher.Search(hot);
  auto new_expected = new_searcher.Search(hot);
  ASSERT_TRUE(old_expected.ok());
  ASSERT_TRUE(new_expected.ok());
  ASSERT_FALSE(new_expected->empty());
  ASSERT_EQ((*new_expected)[0].node, planted_node);
  // Precondition for the staleness check: the generations disagree, so
  // a stale plan would be observable.
  ASSERT_TRUE(old_expected->empty() ||
              (*old_expected)[0].node != planted_node);

  QueryServiceOptions service_opts;
  service_opts.workers = 2;
  service_opts.search = opts;
  QueryService service(snap, service_opts);

  auto run_hot = [&]() -> server::QueryResponse {
    auto submitted = service.SubmitBlocking(hot);
    EXPECT_TRUE(submitted.ok());
    auto resp = submitted->get();
    EXPECT_TRUE(resp.ok());
    return *resp;
  };

  // Prime the old-generation plan.
  auto first = run_hot();
  EXPECT_FALSE(first.cache_hit);
  auto second = run_hot();
  EXPECT_TRUE(second.cache_hit);
  ExpectSameResults(second.entries, *old_expected, "primed old plan");

  ASSERT_TRUE(service.SwapSnapshot(*next).ok());

  // Same keyword multiset, new generation: the primed plan must not
  // be served as it is; the repaired plan sees the planted document.
  auto third = run_hot();
  EXPECT_FALSE(third.cache_hit);
  EXPECT_EQ(third.generation, 1u);
  ExpectSameResults(third.entries, *new_expected, "post-swap hot query");
  auto fourth = run_hot();
  EXPECT_TRUE(fourth.cache_hit);
  ExpectSameResults(fourth.entries, *new_expected, "post-swap cached");

  // The repair replaced the primed plan: one entry, one repair.
  EXPECT_EQ(service.cache()->Stats().repairs, 1u);
  EXPECT_EQ(service.cache()->Stats().entries, 1u);
}

TEST(ConcurrentSwapTest, SwapValidatesInput) {
  std::shared_ptr<const S3Instance> snap = RebuildFromScratch(0);
  QueryServiceOptions service_opts;
  service_opts.workers = 1;
  QueryService service(snap, service_opts);
  EXPECT_EQ(service.SwapSnapshot(nullptr).code(),
            StatusCode::kInvalidArgument);
  auto unfinalized = std::make_shared<S3Instance>();
  unfinalized->AddUser("u");
  EXPECT_EQ(service.SwapSnapshot(std::move(unfinalized)).code(),
            StatusCode::kInvalidArgument);
  // Generations must grow: re-publishing the current snapshot or an
  // *unrelated* generation-0 instance (whose generation the cached
  // plans of the serving snapshot carry) is rejected.
  EXPECT_EQ(service.SwapSnapshot(snap).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.SwapSnapshot(RebuildFromScratch(0)).code(),
            StatusCode::kInvalidArgument);
  // A *foreign-lineage* snapshot is rejected even with a larger
  // generation: its id spaces are unrelated to what queries were
  // validated against.
  auto foreign = RebuildFromScratch(0);
  InstanceDelta foreign_delta(foreign);
  ASSERT_TRUE(foreign_delta.AddSocialEdge(1, 2, 0.4).ok());
  auto foreign_next = foreign->ApplyDelta(foreign_delta);
  ASSERT_TRUE(foreign_next.ok());
  ASSERT_EQ((*foreign_next)->generation(), 1u);
  EXPECT_EQ(service.SwapSnapshot(*foreign_next).code(),
            StatusCode::kInvalidArgument);
  service.Shutdown();
  EXPECT_EQ(service.SwapSnapshot(snap).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ConcurrentSwapTest, LateBuildNeverDisplacesNewerPlan) {
  server::ProximityCache cache(/*shards=*/2, /*capacity_per_shard=*/4);
  auto plan_at = [](uint64_t generation) {
    auto plan = std::make_shared<CandidatePlan>();
    plan->generation = generation;
    return std::shared_ptr<const CandidatePlan>(std::move(plan));
  };
  const server::PlanCacheKey key = server::MakePlanKey({1, 2}, true, 0.5);
  cache.Insert(key, plan_at(1));
  // A newer plan replaces the entry; one key holds one plan.
  cache.Insert(key, plan_at(2));
  EXPECT_EQ(cache.Stats().entries, 1u);
  EXPECT_EQ(cache.Lookup(key, 2)->generation, 2u);
  // A worker still on generation 1 finishes its build now: the late
  // insert must not roll the entry back.
  cache.Insert(key, plan_at(1));
  EXPECT_EQ(cache.Lookup(key, 2)->generation, 2u);
  EXPECT_EQ(cache.Stats().insertions, 2u);
  // A lookup for another generation returns the entry as a miss.
  EXPECT_EQ(cache.Lookup(key, 3)->generation, 2u);
  EXPECT_EQ(cache.Stats().hits, 2u);
  EXPECT_EQ(cache.Stats().misses, 1u);
}

// Satellite pin: keyword *ids* are validated at admission.
TEST(QueryServiceTest, RejectsOutOfRangeKeywordIds) {
  std::shared_ptr<const S3Instance> snap = RebuildFromScratch(0);
  QueryServiceOptions service_opts;
  service_opts.workers = 1;
  QueryService service(snap, service_opts);
  Query q;
  q.seeker = 0;
  q.keywords = {static_cast<KeywordId>(snap->vocabulary().size())};
  EXPECT_EQ(service.Submit(q).status().code(),
            StatusCode::kInvalidArgument);
  q.keywords = {0, kInvalidKeyword};
  EXPECT_EQ(service.Submit(q).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace s3::core
