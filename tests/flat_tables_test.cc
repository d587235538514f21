// Rebuild equivalence of the instance's flat tables under random delta
// chains.
//
// Each seed builds a random base instance, then applies a chain of
// random deltas. Every round mixes new documents (some with new
// keyword spellings), several comments on one target, tags on tags,
// comments between two pre-existing documents (which merge existing
// components) and social edges. After every ApplyDelta the successor's
// tags-on and comments-on tables, keyword directory, postings and
// transition matrix (rows, denominators, column maxima) must equal a
// from-scratch rebuild of the same operations bit for bit, and the
// base generation must still read and answer exactly as before its
// successor was built. A failure names its seed; rerun one with
// --gtest_filter='FlatTablesRebuildTest.*' after narrowing kSeeds.
// ReachRootTest pins the reach partition on the same delta chains.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/mmap_file.h"
#include "common/rng.h"
#include "core/instance_delta.h"
#include "core/s3k.h"
#include "core/snapshot_binary.h"

namespace s3::core {
namespace {

constexpr uint32_t kUsers = 7;

// One population operation, replayable on an S3Instance (rebuild) and
// on an InstanceDelta (incremental path) alike.
struct Op {
  enum Kind { kSpell, kDoc, kComment, kTagOnFragment, kTagOnTag, kSocial };
  Kind kind = kSpell;
  std::string text;  // kSpell: spelling; kDoc: URI
  // kDoc: parent (local index) of local node i + 1, keywords per node.
  std::vector<uint32_t> parent;
  std::vector<std::vector<KeywordId>> keywords;
  uint32_t a = 0;  // poster / comment doc / tag author / social source
  uint32_t b = 0;  // comment target / tag subject / social target
  KeywordId kw = kInvalidKeyword;  // kSpell: expected id; tags: keyword
  double weight = 1.0;
};

// What the generator knows about the population the ops build.
struct World {
  std::vector<uint32_t> doc_first;  // first node of each document
  std::vector<uint32_t> doc_of;     // document of each node
  uint32_t tags = 0;
  uint32_t vocab = 0;
};

template <typename Target>
void Apply(Target& t, const Op& op) {
  switch (op.kind) {
    case Op::kSpell:
      ASSERT_EQ(t.InternKeyword(op.text), op.kw);
      break;
    case Op::kDoc: {
      doc::Document d("doc");
      for (uint32_t p : op.parent) d.AddChild(p, "n");
      for (uint32_t local = 0; local < op.keywords.size(); ++local) {
        if (!op.keywords[local].empty()) {
          d.AddKeywords(local, op.keywords[local]);
        }
      }
      ASSERT_TRUE(t.AddDocument(std::move(d), op.text, op.a).ok());
      break;
    }
    case Op::kComment:
      ASSERT_TRUE(t.AddComment(op.a, op.b).ok());
      break;
    case Op::kTagOnFragment:
      ASSERT_TRUE(t.AddTagOnFragment(op.a, op.b, op.kw).ok());
      break;
    case Op::kTagOnTag:
      ASSERT_TRUE(t.AddTagOnTag(op.a, op.b, op.kw).ok());
      break;
    case Op::kSocial:
      ASSERT_TRUE(t.AddSocialEdge(op.a, op.b, op.weight).ok());
      break;
  }
}

class OpGen {
 public:
  OpGen(uint64_t seed, World& w) : rng_(seed), w_(w) {}

  void Spell(std::vector<Op>& ops) {
    Op op;
    op.kind = Op::kSpell;
    op.kw = w_.vocab++;
    op.text = "w" + std::to_string(op.kw);
    ops.push_back(op);
  }

  void Doc(std::vector<Op>& ops) {
    Op op;
    op.kind = Op::kDoc;
    op.text = "d" + std::to_string(w_.doc_first.size());
    op.a = User();
    const uint32_t n = 1 + static_cast<uint32_t>(rng_.Uniform(4));
    for (uint32_t i = 1; i < n; ++i) {
      op.parent.push_back(static_cast<uint32_t>(rng_.Uniform(i)));
    }
    op.keywords.resize(n);
    for (auto& kws : op.keywords) {
      const size_t m = rng_.Uniform(3);
      for (size_t j = 0; j < m; ++j) kws.push_back(Keyword());
    }
    const uint32_t doc = static_cast<uint32_t>(w_.doc_first.size());
    w_.doc_first.push_back(static_cast<uint32_t>(w_.doc_of.size()));
    w_.doc_of.insert(w_.doc_of.end(), n, doc);
    ops.push_back(op);
  }

  // `count` comments on one target node, from distinct other documents
  // where possible (a document may comment on one target twice).
  void CommentsOn(std::vector<Op>& ops, size_t count) {
    const uint32_t target = Node();
    for (size_t i = 0; i < count; ++i) {
      const uint32_t d = Doc();
      if (d == w_.doc_of[target]) continue;
      Op op;
      op.kind = Op::kComment;
      op.a = d;
      op.b = target;
      ops.push_back(op);
    }
  }

  // A comment between two documents that both precede `first_new_doc`
  // (the current delta's base): joins their components.
  void Bridge(std::vector<Op>& ops, uint32_t first_new_doc) {
    if (first_new_doc < 2) return;
    const uint32_t from = static_cast<uint32_t>(rng_.Uniform(first_new_doc));
    const uint32_t to_doc = static_cast<uint32_t>(rng_.Uniform(first_new_doc));
    if (from == to_doc) return;
    Op op;
    op.kind = Op::kComment;
    op.a = from;
    op.b = w_.doc_first[to_doc];
    ops.push_back(op);
  }

  void TagOnFragment(std::vector<Op>& ops) {
    Op op;
    op.kind = Op::kTagOnFragment;
    op.a = User();
    op.b = Node();
    op.kw = rng_.Chance(0.7) ? Keyword() : kInvalidKeyword;
    ++w_.tags;
    ops.push_back(op);
  }

  void TagOnTag(std::vector<Op>& ops) {
    if (w_.tags == 0) return TagOnFragment(ops);
    Op op;
    op.kind = Op::kTagOnTag;
    op.a = User();
    op.b = static_cast<uint32_t>(rng_.Uniform(w_.tags));
    op.kw = rng_.Chance(0.5) ? Keyword() : kInvalidKeyword;
    ++w_.tags;
    ops.push_back(op);
  }

  void Social(std::vector<Op>& ops) {
    const uint32_t a = User();
    const uint32_t b = User();
    if (a == b) return;
    Op op;
    op.kind = Op::kSocial;
    op.a = a;
    op.b = b;
    op.weight = 0.1 + 0.9 * rng_.NextDouble();
    ops.push_back(op);
  }

  Rng& rng() { return rng_; }

 private:
  uint32_t User() { return static_cast<uint32_t>(rng_.Uniform(kUsers)); }
  uint32_t Node() {
    return static_cast<uint32_t>(rng_.Uniform(w_.doc_of.size()));
  }
  uint32_t Doc() {
    return static_cast<uint32_t>(rng_.Uniform(w_.doc_first.size()));
  }
  KeywordId Keyword() {
    return static_cast<KeywordId>(rng_.Uniform(w_.vocab));
  }

  Rng rng_;
  World& w_;
};

std::vector<Op> BaseOps(OpGen& g) {
  std::vector<Op> ops;
  for (int i = 0; i < 5; ++i) g.Spell(ops);
  for (int i = 0; i < 8; ++i) g.Doc(ops);
  g.CommentsOn(ops, 2);
  g.CommentsOn(ops, 1);
  for (int i = 0; i < 4; ++i) g.TagOnFragment(ops);
  for (int i = 0; i < 2; ++i) g.TagOnTag(ops);
  for (int i = 0; i < 6; ++i) g.Social(ops);
  return ops;
}

std::vector<Op> RoundOps(OpGen& g, uint32_t first_new_doc) {
  std::vector<Op> ops;
  if (g.rng().Chance(0.7)) g.Spell(ops);
  const size_t docs = 1 + g.rng().Uniform(3);
  for (size_t i = 0; i < docs; ++i) g.Doc(ops);
  g.CommentsOn(ops, 1 + g.rng().Uniform(3));
  g.Bridge(ops, first_new_doc);
  for (size_t i = g.rng().Uniform(3); i > 0; --i) g.TagOnFragment(ops);
  for (size_t i = 1 + g.rng().Uniform(2); i > 0; --i) g.TagOnTag(ops);
  if (g.rng().Chance(0.5)) g.Social(ops);
  return ops;
}

std::shared_ptr<S3Instance> Rebuild(const std::vector<Op>& ops) {
  auto inst = std::make_shared<S3Instance>();
  for (uint32_t u = 0; u < kUsers; ++u) inst->AddUser("u" + std::to_string(u));
  for (const Op& op : ops) {
    Apply(*inst, op);
    if (::testing::Test::HasFatalFailure()) return nullptr;
  }
  EXPECT_TRUE(inst->Finalize().ok());
  return inst;
}

// Everything the flat tables and the matrix expose, per id.
struct Tables {
  std::vector<std::vector<social::TagId>> tags_on;     // per entity row
  std::vector<std::vector<doc::NodeId>> comments_on;   // per node
  std::vector<std::vector<social::ComponentId>> comps;  // per keyword
  std::vector<std::vector<doc::NodeId>> postings;      // per keyword
  std::vector<std::vector<std::pair<uint32_t, double>>> rows;
  std::vector<double> denom;
  std::vector<double> col_max;
};

Tables Capture(const S3Instance& inst) {
  Tables t;
  const social::EntityLayout& layout = inst.layout();
  for (uint32_t row = 0; row < layout.total(); ++row) {
    auto on = inst.TagsOn(layout.Entity(row));
    t.tags_on.emplace_back(on.begin(), on.end());
    t.rows.push_back(inst.matrix().Row(row));
    t.denom.push_back(inst.matrix().Denominator(row));
  }
  for (doc::NodeId n = 0; n < inst.docs().NodeCount(); ++n) {
    auto on = inst.CommentsOnFragment(n);
    t.comments_on.emplace_back(on.begin(), on.end());
  }
  for (KeywordId k = 0; k < inst.vocabulary().size(); ++k) {
    t.comps.push_back(inst.ComponentsWithKeyword(k));
    t.postings.push_back(inst.index().Postings(k));
  }
  t.col_max = inst.matrix().ColumnMax();
  return t;
}

void ExpectSameTables(const Tables& got, const Tables& want,
                      const std::string& what) {
  EXPECT_EQ(got.tags_on, want.tags_on) << what << ": TagsOn";
  EXPECT_EQ(got.comments_on, want.comments_on)
      << what << ": CommentsOnFragment";
  EXPECT_EQ(got.comps, want.comps) << what << ": ComponentsWithKeyword";
  EXPECT_EQ(got.postings, want.postings) << what << ": Postings";
  EXPECT_EQ(got.rows, want.rows) << what << ": matrix rows";
  EXPECT_EQ(got.denom, want.denom) << what << ": denominators";
  EXPECT_EQ(got.col_max, want.col_max) << what << ": ColumnMax";
}

// Answers of a few fixed queries, every entry bit.
std::vector<std::vector<ResultEntry>> Answers(const S3Instance& inst,
                                              uint64_t seed) {
  S3kOptions opts;
  opts.k = 3;
  opts.max_iterations = 200;
  S3kSearcher searcher(inst, opts);
  Rng rng(seed);
  std::vector<std::vector<ResultEntry>> out;
  for (int i = 0; i < 4; ++i) {
    Query q;
    q.seeker = static_cast<social::UserId>(rng.Uniform(kUsers));
    q.keywords.push_back(
        static_cast<KeywordId>(rng.Uniform(inst.vocabulary().size())));
    auto r = searcher.Search(q);
    EXPECT_TRUE(r.ok());
    out.push_back(r.ok() ? *r : std::vector<ResultEntry>{});
  }
  return out;
}

void ExpectSameAnswers(const std::vector<std::vector<ResultEntry>>& got,
                       const std::vector<std::vector<ResultEntry>>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t q = 0; q < want.size(); ++q) {
    ASSERT_EQ(got[q].size(), want[q].size()) << what << " query " << q;
    for (size_t r = 0; r < want[q].size(); ++r) {
      EXPECT_EQ(got[q][r].node, want[q][r].node) << what << " query " << q;
      EXPECT_EQ(got[q][r].lower, want[q][r].lower) << what << " query " << q;
      EXPECT_EQ(got[q][r].upper, want[q][r].upper) << what << " query " << q;
    }
  }
}

constexpr uint64_t kFirstSeed = 9100;
constexpr uint64_t kSeeds = 24;
constexpr int kRounds = 5;

TEST(FlatTablesRebuildTest, DeltaChainsMatchRebuild) {
  for (uint64_t seed = kFirstSeed; seed < kFirstSeed + kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    World world;
    OpGen gen(seed, world);
    std::vector<Op> all = BaseOps(gen);
    std::shared_ptr<const S3Instance> cur = Rebuild(all);
    ASSERT_NE(cur, nullptr);
    for (int round = 1; round <= kRounds; ++round) {
      const std::string what =
          "seed " + std::to_string(seed) + " round " + std::to_string(round);
      const std::vector<Op> ops = RoundOps(
          gen, static_cast<uint32_t>(cur->docs().DocumentCount()));
      InstanceDelta delta(cur);
      for (const Op& op : ops) {
        Apply(delta, op);
        ASSERT_FALSE(HasFatalFailure()) << what;
      }
      const Tables base_before = Capture(*cur);
      const auto answers_before = Answers(*cur, seed * 31 + round);

      auto next = cur->ApplyDelta(delta);
      ASSERT_TRUE(next.ok()) << what << ": " << next.status().message();
      all.insert(all.end(), ops.begin(), ops.end());
      std::shared_ptr<const S3Instance> rebuilt = Rebuild(all);
      ASSERT_NE(rebuilt, nullptr) << what;

      ExpectSameTables(Capture(**next), Capture(*rebuilt), what);
      ExpectSameAnswers(Answers(**next, seed * 37 + round),
                        Answers(*rebuilt, seed * 37 + round), what);
      // The base generation is untouched by its successor's build.
      ExpectSameTables(Capture(*cur), base_before, what + " (base)");
      ExpectSameAnswers(Answers(*cur, seed * 31 + round), answers_before,
                        what + " (base)");
      cur = *next;
    }
  }
}

// Checks `inst`'s reach roots against a from-scratch union-find over
// the owners of both endpoints of every edge in the log. Roots are
// arbitrary representatives, so the two must induce the same user
// partition: each reference group maps to one root and back. Returns
// the number of groups.
size_t ExpectReachMatchesUnionFind(const S3Instance& inst,
                                   const std::string& what) {
  const uint32_t n = static_cast<uint32_t>(inst.UserCount());
  std::vector<uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0u);
  auto find = [&](uint32_t u) {
    while (parent[u] != u) u = parent[u] = parent[parent[u]];
    return u;
  };
  for (uint32_t i = 0; i < inst.edges().size(); ++i) {
    const social::NetEdge& e = inst.edges().edge(i);
    const uint32_t a = find(inst.OwnerOfEntity(e.source));
    const uint32_t b = find(inst.OwnerOfEntity(e.target));
    if (a != b) parent[b] = a;
  }
  std::map<uint32_t, uint32_t> ref_to_root, root_to_ref;
  for (uint32_t u = 0; u < n; ++u) {
    const uint32_t ref = find(u);
    const uint32_t root = inst.ReachRootOfUser(u);
    EXPECT_EQ(ref_to_root.emplace(ref, root).first->second, root)
        << what << ": user " << u << " split from its group";
    EXPECT_EQ(root_to_ref.emplace(root, ref).first->second, ref)
        << what << ": user " << u << " joined a foreign group";
  }
  return ref_to_root.size();
}

// ReachRootOfUser after Finalize, after a snapshot load and attach, and
// after every ApplyDelta of a seeded chain applied to the attached
// instance equals the from-scratch partition.
TEST(ReachRootTest, MatchesUnionFindOverEdgeOwners) {
  size_t split = 0, joined = 0;  // partitions seen with > 1 / < n groups
  for (uint64_t seed = kFirstSeed; seed < kFirstSeed + kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    World world;
    OpGen gen(seed, world);
    std::vector<Op> all = BaseOps(gen);
    std::shared_ptr<const S3Instance> built = Rebuild(all);
    ASSERT_NE(built, nullptr);
    ExpectReachMatchesUnionFind(*built, "finalize");

    auto blob = SaveBinarySnapshot(*built);
    ASSERT_TRUE(blob.ok()) << blob.status().ToString();
    auto loaded = LoadBinarySnapshot(*blob);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectReachMatchesUnionFind(**loaded, "load");
    auto attached = AttachBinarySnapshot(MappedRegion::FromBuffer(*blob));
    ASSERT_TRUE(attached.ok()) << attached.status().ToString();
    ExpectReachMatchesUnionFind(**attached, "attach");

    std::shared_ptr<const S3Instance> cur = *attached;
    for (int round = 1; round <= kRounds; ++round) {
      const std::vector<Op> ops = RoundOps(
          gen, static_cast<uint32_t>(cur->docs().DocumentCount()));
      InstanceDelta delta(cur);
      for (const Op& op : ops) {
        Apply(delta, op);
        ASSERT_FALSE(HasFatalFailure()) << "round " << round;
      }
      auto next = cur->ApplyDelta(delta);
      ASSERT_TRUE(next.ok()) << next.status().message();
      cur = *next;
      const size_t groups = ExpectReachMatchesUnionFind(
          *cur, "delta round " + std::to_string(round));
      if (groups > 1) ++split;
      if (groups < kUsers) ++joined;
    }
  }
  // Not vacuous: some partitions keep users apart, some join them.
  EXPECT_GT(split, 0u);
  EXPECT_GT(joined, 0u);
}

}  // namespace
}  // namespace s3::core
