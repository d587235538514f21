// Plan repair across snapshot generations (core::RepairCandidatePlan)
// and the serving layer's use of it (QueryService::ResolvePlan).
//
// Every repaired plan must equal a fresh BuildCandidatePlan on the new
// generation field by field, bit for bit. The seeded chain covers the
// delta mix the serving benchmark applies, at generation gaps 1..5 and
// repaired from repaired plans; the scenario cases pin each way a delta
// can reach a plan's passing components.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/instance_delta.h"
#include "core/s3k.h"
#include "server/query_service.h"
#include "server/snapshot_manager.h"
#include "workload/microblog_gen.h"

namespace s3 {
namespace {

using core::CandidatePlan;
using core::InstanceDelta;
using core::PlanRepairStats;
using core::S3Instance;
using Snapshot = std::shared_ptr<const S3Instance>;

constexpr double kEta = 0.5;

template <typename T>
auto Bits(const std::vector<T>& v) {
  using U = std::conditional_t<sizeof(T) == 8, uint64_t, uint32_t>;
  std::vector<U> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = std::bit_cast<U>(v[i]);
  return out;
}

// The first field in which two plans differ, or "" when they are equal
// bit for bit.
std::string PlanDiff(const CandidatePlan& a, const CandidatePlan& b) {
  const core::CandidateIndex& x = a.index;
  const core::CandidateIndex& y = b.index;
  const std::pair<const char*, bool> fields[] = {
      {"keywords", a.keywords == b.keywords},
      {"ext", a.ext == b.ext},
      {"passing", a.passing == b.passing},
      {"slot_row", a.slot_row == b.slot_row},
      {"comp_reach_root", a.comp_reach_root == b.comp_reach_root},
      {"extension_keywords", a.extension_keywords == b.extension_keywords},
      {"generation", a.generation == b.generation},
      {"lineage", a.lineage == b.lineage},
      {"index.n_keywords", x.n_keywords == y.n_keywords},
      {"index.node", x.node == y.node},
      {"index.slot_begin", x.slot_begin == y.slot_begin},
      {"index.kw_w", Bits(x.kw_w) == Bits(y.kw_w)},
      {"index.kw_c", Bits(x.kw_c) == Bits(y.kw_c)},
      {"index.source_rows", x.source_rows == y.source_rows},
      {"index.rev_begin", x.rev_begin == y.rev_begin},
      {"index.rev_sum", x.rev_sum == y.rev_sum},
      {"index.rev_w", Bits(x.rev_w) == Bits(y.rev_w)},
      {"index.nbr_begin", x.nbr_begin == y.nbr_begin},
      {"index.nbr_list", x.nbr_list == y.nbr_list},
      {"index.nbr_pairs", x.nbr_pairs == y.nbr_pairs},
      {"index.slot_cap", Bits(x.slot_cap) == Bits(y.slot_cap)},
      {"index.slots_by_cap", x.slots_by_cap == y.slots_by_cap},
  };
  for (const auto& [name, same] : fields) {
    if (!same) return name;
  }
  return "";
}

// Whether two plans differ in more than their generation stamp.
bool MovedBeyondStamp(CandidatePlan old, const CandidatePlan& now) {
  old.generation = now.generation;
  return PlanDiff(old, now) != "";
}

CandidatePlan Build(const S3Instance& inst, std::vector<KeywordId> keywords) {
  std::sort(keywords.begin(), keywords.end());
  auto plan = core::BuildCandidatePlan(inst, keywords, true, kEta);
  EXPECT_TRUE(plan.ok()) << plan.status().message();
  return std::move(*plan);
}

CandidatePlan Repair(const S3Instance& inst, const CandidatePlan& old,
                     PlanRepairStats* stats) {
  auto plan = core::RepairCandidatePlan(inst, old, true, kEta, stats);
  EXPECT_TRUE(plan.ok()) << plan.status().message();
  return std::move(*plan);
}

Snapshot Apply(const Snapshot& base, const InstanceDelta& delta) {
  auto next = base->ApplyDelta(delta);
  EXPECT_TRUE(next.ok()) << next.status().message();
  return *next;
}

// ---- the seeded chain -------------------------------------------------

// I1's generator parameters at a quarter of its size.
Snapshot MakeI1Quarter(std::vector<KeywordId>* anchors) {
  workload::MicroblogParams p;
  p.seed = 101;
  p.n_users = 1000;
  p.isolated_user_fraction = 0.12;
  p.n_tweets = 4000;
  p.vocab_size = 1500;
  p.n_hashtags = 75;
  p.ontology.n_classes = 150;
  p.ontology.n_entities = 375;
  p.ontology.parent_probability = 0.25;
  p.entity_prob = 0.1;
  workload::GenResult gen = workload::GenerateMicroblog(p);
  *anchors = gen.semantic_anchors;
  return Snapshot(std::move(gen.instance));
}

// The serving benchmark's delta shape: eight two-keyword documents
// (some with a fresh-keyword child, half commenting on a random
// fragment), four keyword tags on random fragments and four social
// edges.
InstanceDelta ChainDelta(const Snapshot& base, Rng& rng, uint64_t serial) {
  InstanceDelta delta(base);
  const auto n_users = static_cast<uint32_t>(base->UserCount());
  const auto n_keywords = static_cast<uint32_t>(base->vocabulary().size());
  const auto n_nodes = static_cast<uint32_t>(base->docs().NodeCount());
  auto user = [&] { return static_cast<social::UserId>(rng.Uniform(n_users)); };
  auto keyword = [&] {
    return static_cast<KeywordId>(rng.Uniform(n_keywords));
  };
  auto node = [&] { return static_cast<doc::NodeId>(rng.Uniform(n_nodes)); };
  for (int i = 0; i < 8; ++i) {
    doc::Document d("tweet");
    d.AddKeywords(0, {keyword(), keyword()});
    if (rng.Chance(0.4)) {
      const uint32_t child = d.AddChild(0, "text");
      d.AddKeywords(child, {delta.InternKeyword(
                               "fresh" + std::to_string(serial * 100 + i))});
    }
    auto id = delta.AddDocument(
        std::move(d), "chain" + std::to_string(serial) + "_" +
                          std::to_string(i), user());
    EXPECT_TRUE(id.ok());
    if (id.ok() && rng.Chance(0.5)) {
      EXPECT_TRUE(delta.AddComment(*id, node()).ok());
    }
  }
  for (int t = 0; t < 4; ++t) {
    EXPECT_TRUE(delta.AddTagOnFragment(user(), node(), keyword()).ok());
  }
  for (int e = 0; e < 4; ++e) {
    const social::UserId from = user();
    const social::UserId to = (from + 1 + rng.Uniform(n_users - 1)) % n_users;
    EXPECT_TRUE(
        delta.AddSocialEdge(from, to, 0.2 + 0.7 * rng.NextDouble()).ok());
  }
  return delta;
}

TEST(PlanRepairTest, SeededChainRepairsEqualFreshBuilds) {
  std::vector<KeywordId> anchors;
  std::vector<Snapshot> gens{MakeI1Quarter(&anchors)};
  const S3Instance& base = *gens[0];

  // Hot keys: the keywords in the most components, two pairs of them,
  // and two semantic anchors (extensions of more than one keyword).
  std::vector<KeywordId> by_comps(base.vocabulary().size());
  for (KeywordId k = 0; k < by_comps.size(); ++k) by_comps[k] = k;
  std::stable_sort(by_comps.begin(), by_comps.end(),
                   [&](KeywordId a, KeywordId b) {
                     return base.ComponentsWithKeyword(a).size() >
                            base.ComponentsWithKeyword(b).size();
                   });
  std::vector<std::vector<KeywordId>> keys;
  for (size_t i = 0; i < 6; ++i) keys.push_back({by_comps[i]});
  keys.push_back({by_comps[0], by_comps[1]});
  keys.push_back({by_comps[2], by_comps[5]});
  ASSERT_GE(anchors.size(), 2u);
  keys.push_back({anchors[0]});
  keys.push_back({anchors[1], by_comps[0]});

  constexpr size_t kGenerations = 12;
  constexpr size_t kMaxGap = 5;
  Rng rng(3101);
  for (size_t g = 1; g <= kGenerations; ++g) {
    gens.push_back(Apply(gens.back(), ChainDelta(gens.back(), rng, g)));
  }

  // fresh[g][key], and each key's plan repaired from the one before it
  // at every generation, as a cache entry lives.
  std::vector<std::vector<CandidatePlan>> fresh(gens.size());
  for (size_t g = 0; g < gens.size(); ++g) {
    for (const auto& key : keys) fresh[g].push_back(Build(*gens[g], key));
  }
  std::vector<CandidatePlan> chained = fresh[0];
  size_t repairs = 0, reused = 0, kept = 0, rebuilt = 0, changed = 0;
  for (size_t g = 1; g < gens.size(); ++g) {
    for (size_t q = 0; q < keys.size(); ++q) {
      const std::string what =
          "generation " + std::to_string(g) + " key " + std::to_string(q);
      for (size_t gap = 1; gap <= std::min(g, kMaxGap); ++gap) {
        PlanRepairStats stats;
        const CandidatePlan repaired =
            Repair(*gens[g], fresh[g - gap][q], &stats);
        ASSERT_EQ(PlanDiff(repaired, fresh[g][q]), "")
            << what << " gap " << gap;
        ++repairs;
        reused += stats.index_reused;
        kept += stats.slots_kept;
        rebuilt += stats.slots_rebuilt;
        EXPECT_FALSE(stats.full_build) << what;
      }
      chained[q] = Repair(*gens[g], chained[q], nullptr);
      ASSERT_EQ(PlanDiff(chained[q], fresh[g][q]), "") << what << " chained";
      changed += MovedBeyondStamp(fresh[g - 1][q], fresh[g][q]);
    }
  }
  // The chain exercised both paths, kept most slots, and moved the
  // plans by more than their stamps: a repair that returned its input
  // restamped would fail above.
  EXPECT_EQ(repairs, 10u * (1 + 2 + 3 + 4 + 5 * 8));
  EXPECT_GT(reused, 0u);
  EXPECT_LT(reused, repairs);
  EXPECT_GT(rebuilt, 0u);
  EXPECT_GT(kept, 5 * rebuilt);
  EXPECT_GT(changed, 0u);
}

// ---- scenarios on a small instance --------------------------------------

// Six users; keywords alpha, beta, gamma (alphasub, a subclass of alpha
// in the ontology, is not yet a keyword). Documents:
//   D0 (u1): root alpha, child beta       — passing for {alpha, beta}
//   D1 (u2): root alpha beta, tagged beta — passing
//   D2 (u3): root alpha, child gamma
//   D3 (u4): root beta
//   D4 (u0): root gamma, children alpha and beta — passing
//   D5 (u5): root alpha, comments on D0's child (joins D0's component)
struct Scenario {
  Snapshot base;
  KeywordId alpha, beta, gamma;
  std::vector<doc::DocId> doc;
  std::vector<doc::NodeId> node;  // node[i]: D_i's root; then children
  doc::NodeId d0_child, d4_alpha, d4_beta;
};

Scenario MakeScenario() {
  Scenario s;
  auto inst = std::make_shared<S3Instance>();
  for (int u = 0; u < 6; ++u) inst->AddUser("u" + std::to_string(u));
  inst->DeclareSubClass("alphasub", "alpha");
  s.alpha = inst->InternKeyword("alpha");
  s.beta = inst->InternKeyword("beta");
  s.gamma = inst->InternKeyword("gamma");
  const std::pair<int, int> social[] = {{0, 1}, {1, 2}, {2, 3},
                                        {3, 0}, {4, 0}, {5, 4}};
  for (const auto& [from, to] : social) {
    EXPECT_TRUE(inst->AddSocialEdge(from, to, 0.5 + 0.05 * from).ok());
  }
  auto add = [&](doc::Document d, int poster) {
    auto id = inst->AddDocument(std::move(d),
                                "D" + std::to_string(s.doc.size()), poster);
    EXPECT_TRUE(id.ok());
    s.doc.push_back(*id);
    return *id;
  };
  doc::Document d0("post");
  d0.AddKeywords(0, {s.alpha});
  d0.AddKeywords(d0.AddChild(0, "text"), {s.beta});
  add(std::move(d0), 1);
  doc::Document d1("post");
  d1.AddKeywords(0, {s.alpha, s.beta});
  add(std::move(d1), 2);
  doc::Document d2("post");
  d2.AddKeywords(0, {s.alpha});
  d2.AddKeywords(d2.AddChild(0, "text"), {s.gamma});
  add(std::move(d2), 3);
  doc::Document d3("post");
  d3.AddKeywords(0, {s.beta});
  add(std::move(d3), 4);
  doc::Document d4("post");
  d4.AddKeywords(0, {s.gamma});
  d4.AddKeywords(d4.AddChild(0, "a"), {s.alpha});
  d4.AddKeywords(d4.AddChild(0, "b"), {s.beta});
  add(std::move(d4), 0);
  doc::Document d5("post");
  d5.AddKeywords(0, {s.alpha});
  add(std::move(d5), 5);
  const doc::DocumentStore& docs = inst->docs();
  s.d0_child = docs.GlobalId(s.doc[0], 1);
  s.d4_alpha = docs.GlobalId(s.doc[4], 1);
  s.d4_beta = docs.GlobalId(s.doc[4], 2);
  EXPECT_TRUE(inst->AddComment(s.doc[5], s.d0_child).ok());
  EXPECT_TRUE(
      inst->AddTagOnFragment(3, docs.RootNode(s.doc[1]), s.beta).ok());
  EXPECT_TRUE(inst->Finalize().ok());
  s.base = inst;
  return s;
}

// Repairs the base plan of `keywords` onto `next`, checks it against a
// fresh build there, and checks that the delta moved the plan beyond
// its stamps (so a stale carry-over could not pass).
PlanRepairStats ExpectRepairMatches(const Snapshot& base,
                                    const Snapshot& next,
                                    std::vector<KeywordId> keywords) {
  const CandidatePlan old = Build(*base, keywords);
  const CandidatePlan want = Build(*next, keywords);
  PlanRepairStats stats;
  const CandidatePlan got = Repair(*next, old, &stats);
  EXPECT_EQ(PlanDiff(got, want), "");
  EXPECT_TRUE(MovedBeyondStamp(old, want));
  return stats;
}

TEST(PlanRepairTest, CommentWithKeywordJoinsPassingComponent) {
  Scenario s = MakeScenario();
  InstanceDelta delta(s.base);
  doc::Document reply("reply");
  reply.AddKeywords(0, {s.alpha, s.beta});
  auto id = delta.AddDocument(std::move(reply), "R", 3);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(
      delta.AddComment(*id, s.base->docs().RootNode(s.doc[1])).ok());
  const Snapshot next = Apply(s.base, delta);
  const PlanRepairStats stats =
      ExpectRepairMatches(s.base, next, {s.alpha, s.beta});
  EXPECT_EQ(stats.slots_rebuilt, 1u);
  EXPECT_EQ(stats.slots_kept, 2u);
  EXPECT_FALSE(stats.index_reused);
}

// AddComment accepts a base document, so a delta can add a comment
// inside one component with no new member and no merge: only the
// new-edge stamp rule sees it.
TEST(PlanRepairTest, BaseDocumentCommentsInsideItsOwnComponent) {
  Scenario s = MakeScenario();
  const social::ComponentId comp =
      s.base->components().Of(social::EntityId::Fragment(s.d0_child));
  InstanceDelta delta(s.base);
  ASSERT_TRUE(
      delta.AddComment(s.doc[5], s.base->docs().RootNode(s.doc[0])).ok());
  const Snapshot next = Apply(s.base, delta);
  ASSERT_EQ(next->components().ComponentCount(),
            s.base->components().ComponentCount());
  EXPECT_EQ(next->ComponentChangedAt(comp), 1u);
  const social::ComponentId other =
      next->components().Of(social::EntityId::Fragment(s.d4_beta));
  EXPECT_EQ(next->ComponentChangedAt(other), 0u);
  const PlanRepairStats stats =
      ExpectRepairMatches(s.base, next, {s.alpha, s.beta});
  EXPECT_EQ(stats.slots_rebuilt, 1u);
  EXPECT_FALSE(stats.index_reused);
}

TEST(PlanRepairTest, TwoPassingComponentsMerge) {
  Scenario s = MakeScenario();
  InstanceDelta delta(s.base);
  ASSERT_TRUE(delta.AddComment(s.doc[1], s.d4_alpha).ok());
  const Snapshot next = Apply(s.base, delta);
  ASSERT_EQ(next->components().ComponentCount() + 1,
            s.base->components().ComponentCount());
  const PlanRepairStats stats =
      ExpectRepairMatches(s.base, next, {s.alpha, s.beta});
  EXPECT_EQ(Build(*next, {s.alpha, s.beta}).passing.size() + 1,
            Build(*s.base, {s.alpha, s.beta}).passing.size());
  EXPECT_EQ(stats.slots_rebuilt, 1u);
  EXPECT_FALSE(stats.index_reused);
}

TEST(PlanRepairTest, NewPassingComponent) {
  Scenario s = MakeScenario();
  InstanceDelta delta(s.base);
  doc::Document post("post");
  post.AddKeywords(0, {s.beta});
  post.AddKeywords(post.AddChild(0, "text"), {s.alpha});
  ASSERT_TRUE(delta.AddDocument(std::move(post), "N", 2).ok());
  const Snapshot next = Apply(s.base, delta);
  const PlanRepairStats stats =
      ExpectRepairMatches(s.base, next, {s.alpha, s.beta});
  EXPECT_EQ(stats.slots_rebuilt, 1u);
  EXPECT_EQ(stats.slots_kept, 3u);
  EXPECT_FALSE(stats.index_reused);
}

TEST(PlanRepairTest, ExtensionGrowthTakesFullBuild) {
  Scenario s = MakeScenario();
  InstanceDelta delta(s.base);
  const KeywordId sub = delta.InternKeyword("alphasub");
  doc::Document post("post");
  post.AddKeywords(0, {sub, s.beta});
  ASSERT_TRUE(delta.AddDocument(std::move(post), "E", 4).ok());
  const Snapshot next = Apply(s.base, delta);
  ASSERT_EQ(next->ExtendKeyword(s.alpha).size(), 2u);
  const PlanRepairStats stats =
      ExpectRepairMatches(s.base, next, {s.alpha, s.beta});
  EXPECT_TRUE(stats.full_build);
}

// Social edges change no component, but they renormalize their
// sources' rows, so ColumnMax — and with it the tail coefficients —
// moves: the fast path must recompute kw_c.
TEST(PlanRepairTest, SocialEdgesChangeColumnMax) {
  Scenario s = MakeScenario();
  InstanceDelta delta(s.base);
  for (social::UserId from : {1u, 2u, 5u}) {
    ASSERT_TRUE(delta.AddSocialEdge(from, 3, 1.0).ok());
  }
  const Snapshot next = Apply(s.base, delta);
  const std::vector<KeywordId> keywords{s.alpha, s.beta};
  const CandidatePlan old = Build(*s.base, keywords);
  const CandidatePlan want = Build(*next, keywords);
  EXPECT_NE(Bits(old.index.kw_c), Bits(want.index.kw_c));
  CandidatePlan restamped = old;
  restamped.generation = want.generation;
  EXPECT_EQ(PlanDiff(restamped, want), "index.kw_c");
  PlanRepairStats stats;
  EXPECT_EQ(PlanDiff(Repair(*next, old, &stats), want), "");
  EXPECT_TRUE(stats.index_reused);
  EXPECT_EQ(stats.slots_rebuilt, 0u);
}

TEST(PlanRepairTest, RefusesPlansNotOlderOrOfAnotherLineage) {
  Scenario s = MakeScenario();
  const CandidatePlan plan = Build(*s.base, {s.alpha});
  EXPECT_EQ(core::RepairCandidatePlan(*s.base, plan, true, kEta)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  Scenario other = MakeScenario();
  InstanceDelta delta(other.base);
  ASSERT_TRUE(delta.AddSocialEdge(0, 2, 0.5).ok());
  const Snapshot foreign = Apply(other.base, delta);
  EXPECT_EQ(core::RepairCandidatePlan(*foreign, plan, true, kEta)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// ---- the serving layer ----------------------------------------------------

std::vector<core::QueryRequest> ScenarioQueries(const Scenario& s) {
  std::vector<core::QueryRequest> out;
  const std::vector<std::vector<KeywordId>> keys = {
      {s.alpha}, {s.beta}, {s.alpha, s.beta}, {s.beta, s.gamma}};
  for (social::UserId seeker = 0; seeker < 6; ++seeker) {
    for (const auto& key : keys) out.emplace_back(seeker, key);
  }
  return out;
}

std::vector<server::QueryResponse> RunAll(
    server::QueryService& service,
    const std::vector<core::QueryRequest>& queries) {
  std::vector<server::QueryResponse> out;
  for (const core::QueryRequest& q : queries) {
    auto submitted = service.SubmitBlocking(q);
    EXPECT_TRUE(submitted.ok());
    auto resp = submitted->get();
    EXPECT_TRUE(resp.ok()) << resp.status().message();
    out.push_back(std::move(*resp));
  }
  return out;
}

void ExpectSameAnswers(const std::vector<server::QueryResponse>& got,
                       const std::vector<server::QueryResponse>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].generation, want[i].generation) << what;
    ASSERT_EQ(got[i].entries.size(), want[i].entries.size())
        << what << " query " << i;
    for (size_t r = 0; r < want[i].entries.size(); ++r) {
      EXPECT_EQ(got[i].entries[r].node, want[i].entries[r].node) << what;
      EXPECT_EQ(std::bit_cast<uint64_t>(got[i].entries[r].lower),
                std::bit_cast<uint64_t>(want[i].entries[r].lower))
          << what;
      EXPECT_EQ(std::bit_cast<uint64_t>(got[i].entries[r].upper),
                std::bit_cast<uint64_t>(want[i].entries[r].upper))
          << what;
    }
  }
}

server::QueryServiceOptions ServiceOptions(bool cache) {
  server::QueryServiceOptions opts;
  opts.workers = 2;
  opts.enable_cache = cache;
  opts.obs_label = cache ? "plan-repair-cached" : "plan-repair-uncached";
  return opts;
}

TEST(PlanRepairServiceTest, CacheOnAndOffAnswerAlikeAcrossSwaps) {
  namespace fs = std::filesystem;
  const std::string dir =
      std::string(::testing::TempDir()) + "s3-plan-repair-service";
  fs::remove_all(dir);
  Scenario s = MakeScenario();
  server::SnapshotManagerOptions mopts;
  mopts.dir = dir;
  mopts.background_checkpoints = false;
  auto manager = server::SnapshotManager::Open(mopts);
  ASSERT_TRUE(manager.ok()) << manager.status().message();
  ASSERT_TRUE((*manager)->Initialize(s.base).ok());

  server::QueryService cached(s.base, ServiceOptions(true));
  server::QueryService uncached(s.base, ServiceOptions(false));
  const std::vector<core::QueryRequest> queries = ScenarioQueries(s);
  ExpectSameAnswers(RunAll(cached, queries), RunAll(uncached, queries),
                    "generation 0");

  Rng rng(27);
  for (uint64_t g = 1; g <= 6; ++g) {
    const Snapshot cur = (*manager)->current();
    InstanceDelta delta(cur);
    const auto n_nodes = static_cast<uint32_t>(cur->docs().NodeCount());
    doc::Document post("post");
    post.AddKeywords(0, {g % 2 ? s.alpha : s.beta});
    post.AddKeywords(post.AddChild(0, "text"), {g % 3 ? s.beta : s.gamma});
    auto id = delta.AddDocument(std::move(post), "G" + std::to_string(g),
                                static_cast<social::UserId>(g % 6));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(delta
                    .AddComment(*id, static_cast<doc::NodeId>(
                                         rng.Uniform(n_nodes)))
                    .ok());
    ASSERT_TRUE(delta
                    .AddSocialEdge(static_cast<social::UserId>(g % 6),
                                   static_cast<social::UserId>((g + 2) % 6),
                                   0.9)
                    .ok());
    auto next = (*manager)->LogAndApply(delta);
    ASSERT_TRUE(next.ok()) << next.status().message();
    ASSERT_TRUE(cached.SwapSnapshot(*next).ok());
    ASSERT_TRUE(uncached.SwapSnapshot(*next).ok());
    const auto got = RunAll(cached, queries);
    ExpectSameAnswers(got, RunAll(uncached, queries),
                      "generation " + std::to_string(g));
    for (const auto& r : got) EXPECT_EQ(r.generation, g);
  }
  const server::ProximityCacheStats stats = cached.cache()->Stats();
  EXPECT_GT(stats.repairs, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LE(stats.entries, 4u);  // one plan per keyword set
  cached.Shutdown();
  uncached.Shutdown();
  manager->reset();
  fs::remove_all(dir);
}

// Two deltas on one base give two successors of one generation and
// lineage. A plan cached from 6a must not be repaired onto 7b (a child
// of 6b): the stamps of 7b say nothing about 6a's documents.
TEST(PlanRepairServiceTest, BranchSwapTakesFullBuild) {
  Scenario s = MakeScenario();
  Snapshot g5 = s.base;
  for (int g = 1; g <= 5; ++g) {
    InstanceDelta delta(g5);
    ASSERT_TRUE(delta.AddSocialEdge(g % 6, (g + 3) % 6, 0.3).ok());
    g5 = Apply(g5, delta);
  }
  // 6a and 6b each add one passing document, with the same node ids
  // but another shape.
  auto branch = [&](const Snapshot& base, bool nested) {
    InstanceDelta delta(base);
    doc::Document post("post");
    post.AddKeywords(0, {s.alpha});
    post.AddKeywords(nested ? post.AddChild(0, "text") : 0, {s.beta});
    EXPECT_TRUE(delta.AddDocument(std::move(post), nested ? "B" : "A", 1)
                    .ok());
    return Apply(base, delta);
  };
  const Snapshot g6a = branch(g5, false);
  const Snapshot g6b = branch(g5, true);
  InstanceDelta delta7(g6b);
  ASSERT_TRUE(delta7.AddSocialEdge(2, 5, 0.8).ok());
  const Snapshot g7b = Apply(g6b, delta7);
  ASSERT_EQ(g6a->generation(), 6u);
  ASSERT_EQ(g7b->generation(), 7u);
  ASSERT_EQ(g7b->parent_id(), g6b->instance_id());
  ASSERT_NE(g7b->parent_id(), g6a->instance_id());

  // The hazard: repairing 6a's plan onto 7b keeps 6a's document.
  const std::vector<KeywordId> key{s.alpha, s.beta};
  const CandidatePlan fresh7b = Build(*g7b, key);
  EXPECT_NE(PlanDiff(Repair(*g7b, Build(*g6a, key), nullptr), fresh7b), "");

  server::QueryService service(g5, ServiceOptions(true));
  ASSERT_TRUE(service.SwapSnapshot(g6a).ok());
  const core::QueryRequest query(1, key);
  auto run = [&] {
    auto resp = service.SubmitBlocking(query)->get();
    EXPECT_TRUE(resp.ok());
    return std::move(*resp);
  };
  EXPECT_FALSE(run().cache_hit);
  EXPECT_TRUE(run().cache_hit);  // 6a's plan is cached
  const uint64_t repairs = service.cache()->Stats().repairs;
  ASSERT_TRUE(service.SwapSnapshot(g7b).ok());
  const server::QueryResponse after = run();
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.generation, 7u);
  EXPECT_EQ(service.cache()->Stats().repairs, repairs);  // a full build
  core::S3kSearcher searcher(*g7b, core::S3kOptions{});
  auto want = searcher.Search(query);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(after.entries.size(), want->size());
  for (size_t r = 0; r < want->size(); ++r) {
    EXPECT_EQ(after.entries[r].node, (*want)[r].node);
    EXPECT_EQ(std::bit_cast<uint64_t>(after.entries[r].lower),
              std::bit_cast<uint64_t>((*want)[r].lower));
    EXPECT_EQ(std::bit_cast<uint64_t>(after.entries[r].upper),
              std::bit_cast<uint64_t>((*want)[r].upper));
  }
  // The fresh 7b plan replaced 6a's: the next query hits it.
  EXPECT_TRUE(run().cache_hit);
}

}  // namespace
}  // namespace s3
