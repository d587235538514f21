// Golden pin for candidate plans: every field of BuildCandidatePlan's
// output is folded into one 64-bit digest per instance, over about two
// hundred keyword sets, and compared with digests recorded from the
// original hash-table ConnectionBuilder. Candidates are digested slot
// by slot in node order, and neighbor pairs as node pairs, so the pin
// allows any candidate numbering within a slot but nothing else: the
// passing components, reach roots, extension size, every candidate's
// per-keyword weight and tail coefficient (as bits), every source list
// (row and float weight bits), the slot caps, the cap order and the
// vertical-neighbor pairs. On a mismatch the failure message prints
// the observed digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/s3k.h"
#include "test_fixtures.h"
#include "workload/business_gen.h"
#include "workload/microblog_gen.h"

namespace s3::core {
namespace {

// FNV-1a over 64-bit words.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void AddDouble(double v) { Add(std::bit_cast<uint64_t>(v)); }
  void AddFloat(float v) { Add(std::bit_cast<uint32_t>(v)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

void DigestPlan(const CandidatePlan& plan, Digest& d) {
  const CandidateIndex& ix = plan.index;
  const size_t K = ix.n_keywords;
  d.Add(plan.keywords.size());
  for (KeywordId k : plan.keywords) d.Add(k);
  d.Add(plan.extension_keywords);
  d.Add(plan.passing.size());
  for (social::ComponentId c : plan.passing) d.Add(c);
  d.Add(plan.comp_reach_root.size());
  for (uint32_t r : plan.comp_reach_root) d.Add(r);
  d.Add(K);
  d.Add(ix.size());

  // Per (candidate, keyword) source lists, rebuilt from the reverse
  // index in ascending row order.
  std::vector<std::vector<std::pair<uint32_t, float>>> lists(ix.size() * K);
  for (size_t p = 0; p < ix.source_rows.size(); ++p) {
    for (uint64_t i = ix.rev_begin[p]; i < ix.rev_begin[p + 1]; ++i) {
      lists[ix.rev_sum[i]].emplace_back(ix.source_rows[p], ix.rev_w[i]);
    }
  }

  d.Add(ix.slots());
  for (size_t s = 0; s < ix.slots(); ++s) {
    d.AddDouble(ix.slot_cap[s]);
    std::vector<uint32_t> cands;
    for (uint32_t ci = ix.slot_begin[s]; ci < ix.slot_begin[s + 1]; ++ci) {
      cands.push_back(ci);
    }
    std::sort(cands.begin(), cands.end(), [&](uint32_t a, uint32_t b) {
      return ix.node[a] < ix.node[b];
    });
    d.Add(cands.size());
    for (uint32_t ci : cands) {
      d.Add(ix.node[ci]);
      for (size_t qi = 0; qi < K; ++qi) {
        d.AddDouble(ix.kw_w[ci * K + qi]);
        d.AddDouble(ix.kw_c[ci * K + qi]);
        const auto& list = lists[ci * K + qi];
        d.Add(list.size());
        for (const auto& [row, w] : list) {
          d.Add(row);
          d.AddFloat(w);
        }
      }
    }
  }
  for (uint32_t s : ix.slots_by_cap) d.Add(s);

  std::vector<std::pair<doc::NodeId, doc::NodeId>> pairs;
  for (const auto& [a, b] : ix.nbr_pairs) {
    pairs.emplace_back(std::min(ix.node[a], ix.node[b]),
                       std::max(ix.node[a], ix.node[b]));
  }
  std::sort(pairs.begin(), pairs.end());
  d.Add(pairs.size());
  for (const auto& [a, b] : pairs) {
    d.Add(a);
    d.Add(b);
  }
}

// Keywords by document frequency, most frequent first (ties by id).
std::vector<KeywordId> HottestKeywords(const S3Instance& inst, size_t n) {
  std::vector<KeywordId> kws = inst.index().Keywords();
  std::sort(kws.begin(), kws.end(), [&](KeywordId a, KeywordId b) {
    const size_t da = inst.index().DocumentFrequency(a);
    const size_t db = inst.index().DocumentFrequency(b);
    return da != db ? da > db : a < b;
  });
  if (kws.size() > n) kws.resize(n);
  return kws;
}

// Sorted keyword sets: the `singles` hottest keywords alone, every pair
// and `triples` consecutive triples among the `pair_pool` hottest, one
// repeated keyword, and up to `anchors` semantic anchors alone and
// paired with the hottest keyword.
std::vector<std::vector<KeywordId>> KeywordSets(
    const S3Instance& inst, const std::vector<KeywordId>& anchor_pool,
    size_t singles, size_t pair_pool, size_t triples, size_t anchors) {
  const std::vector<KeywordId> hot =
      HottestKeywords(inst, std::max(singles, pair_pool + 2));
  std::vector<std::vector<KeywordId>> sets;
  for (size_t i = 0; i < std::min(singles, hot.size()); ++i) {
    sets.push_back({hot[i]});
  }
  for (size_t i = 0; i < std::min(pair_pool, hot.size()); ++i) {
    for (size_t j = i + 1; j < std::min(pair_pool, hot.size()); ++j) {
      sets.push_back({hot[i], hot[j]});
    }
  }
  for (size_t i = 0; i + 2 < hot.size() && i < triples; ++i) {
    sets.push_back({hot[i], hot[i + 1], hot[i + 2]});
  }
  if (!hot.empty()) sets.push_back({hot[0], hot[0]});
  for (size_t i = 0; i < std::min(anchors, anchor_pool.size()); ++i) {
    sets.push_back({anchor_pool[i]});
    if (!hot.empty()) sets.push_back({hot[0], anchor_pool[i]});
  }
  for (auto& s : sets) std::sort(s.begin(), s.end());
  return sets;
}

uint64_t PlanDigest(const S3Instance& inst,
                    const std::vector<std::vector<KeywordId>>& sets) {
  Digest d;
  for (const auto& kws : sets) {
    auto plan = BuildCandidatePlan(inst, kws, /*use_semantics=*/true,
                                   /*eta=*/0.5);
    EXPECT_TRUE(plan.ok()) << plan.status().message();
    if (!plan.ok()) continue;
    DigestPlan(*plan, d);
  }
  return d.value();
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

void ExpectGolden(const std::string& name, const S3Instance& inst,
                  const std::vector<std::vector<KeywordId>>& sets,
                  uint64_t golden) {
  const uint64_t digest = PlanDigest(inst, sets);
  EXPECT_EQ(digest, golden) << name << ": observed digest " << Hex(digest)
                            << " over " << sets.size() << " keyword sets";
}

TEST(PlanGoldenTest, MicroblogPlansMatchRecordedDigest) {
  workload::MicroblogParams p;
  p.seed = 4242;
  p.n_users = 300;
  p.n_tweets = 1500;
  p.vocab_size = 600;
  p.n_hashtags = 50;
  p.ontology.n_classes = 60;
  p.ontology.n_entities = 200;
  const workload::GenResult gen = workload::GenerateMicroblog(p);
  const auto sets = KeywordSets(*gen.instance, gen.semantic_anchors,
                                /*singles=*/40, /*pair_pool=*/10,
                                /*triples=*/8, /*anchors=*/15);
  EXPECT_GE(sets.size(), 120u);
  ExpectGolden("microblog", *gen.instance, sets, 0x839ea95e653a896cull);
}

TEST(PlanGoldenTest, BusinessReviewPlansMatchRecordedDigest) {
  workload::BusinessParams p;
  p.seed = 103;
  p.n_users = 300;
  p.n_businesses = 60;
  p.vocab_size = 800;
  p.ontology.n_classes = 50;
  p.ontology.n_entities = 120;
  const workload::GenResult gen = workload::GenerateBusinessReviews(p);
  const auto sets = KeywordSets(*gen.instance, gen.semantic_anchors,
                                /*singles=*/20, /*pair_pool=*/6,
                                /*triples=*/4, /*anchors=*/8);
  EXPECT_GE(sets.size(), 40u);
  ExpectGolden("business", *gen.instance, sets, 0x8c7461ef2f395927ull);
}

// The connections_test.cc shapes in one instance: endorsements of
// keyword and keyword-less fragments, a tag-on-tag tower topped by an
// endorsement, an endorsement of an endorsement, a comment chain, a
// mutual comment cycle and a three-document comment cycle.
std::unique_ptr<S3Instance> BuildShapesInstance(std::vector<KeywordId>* kws) {
  auto inst = std::make_unique<S3Instance>();
  std::vector<social::UserId> u;
  for (int i = 0; i < 12; ++i) {
    u.push_back(inst->AddUser("u" + std::to_string(i)));
  }
  const KeywordId alpha = inst->InternKeyword("alpha");
  const KeywordId beta = inst->InternKeyword("beta");
  *kws = {alpha, beta};
  auto add_doc = [&](const std::string& uri, social::UserId poster,
                     std::vector<KeywordId> root_kw,
                     std::vector<KeywordId> child_kw) {
    doc::Document d("doc");
    d.AddKeywords(0, root_kw);
    const uint32_t sec = d.AddChild(0, "sec");
    d.AddKeywords(sec, child_kw);
    const uint32_t par = d.AddChild(sec, "par");
    d.AddKeywords(par, child_kw);
    d.AddChild(0, "sec");
    return inst->AddDocument(std::move(d), uri, poster).value();
  };
  // Endorsements: of a grounded fragment, of an ungrounded one, and an
  // endorsement of an endorsement.
  const doc::DocId e0 = add_doc("e0", u[0], {}, {alpha});
  const doc::NodeId e0_sec = inst->docs().GlobalId(e0, 1);
  const social::TagId like = inst->AddTagOnFragment(u[1], e0_sec,
                                                    kInvalidKeyword).value();
  (void)inst->AddTagOnTag(u[2], like, kInvalidKeyword).value();
  const doc::DocId e1 = add_doc("e1", u[3], {}, {});
  (void)inst->AddTagOnFragment(u[4], inst->docs().RootNode(e1),
                               kInvalidKeyword);
  (void)inst->AddTagOnFragment(u[5], inst->docs().GlobalId(e1, 2), beta);
  // A tag tower: keyword tags on tags, topped by an endorsement.
  const doc::DocId t0 = add_doc("t0", u[0], {beta}, {});
  social::TagId t =
      inst->AddTagOnFragment(u[6], inst->docs().GlobalId(t0, 3), alpha)
          .value();
  for (int i = 0; i < 6; ++i) {
    t = inst->AddTagOnTag(u[7 + (i % 4)], t, i % 2 ? alpha : beta).value();
  }
  (void)inst->AddTagOnTag(u[11], t, kInvalidKeyword);
  // A comment chain c2 -> c1 -> d0.
  const doc::DocId d0 = add_doc("d0", u[1], {beta}, {});
  const doc::DocId c1 = add_doc("c1", u[2], {}, {});
  const doc::DocId c2 = add_doc("c2", u[3], {alpha}, {alpha});
  EXPECT_TRUE(inst->AddComment(c1, inst->docs().GlobalId(d0, 2)).ok());
  EXPECT_TRUE(inst->AddComment(c2, inst->docs().RootNode(c1)).ok());
  // Mutual comments, and a three-cycle with endorsements on its members.
  const doc::DocId m0 = add_doc("m0", u[4], {alpha}, {beta});
  const doc::DocId m1 = add_doc("m1", u[5], {}, {alpha});
  EXPECT_TRUE(inst->AddComment(m1, inst->docs().RootNode(m0)).ok());
  EXPECT_TRUE(inst->AddComment(m0, inst->docs().GlobalId(m1, 1)).ok());
  const doc::DocId r0 = add_doc("r0", u[6], {}, {alpha});
  const doc::DocId r1 = add_doc("r1", u[7], {beta}, {});
  const doc::DocId r2 = add_doc("r2", u[8], {}, {});
  EXPECT_TRUE(inst->AddComment(r1, inst->docs().RootNode(r0)).ok());
  EXPECT_TRUE(inst->AddComment(r2, inst->docs().GlobalId(r1, 2)).ok());
  EXPECT_TRUE(inst->AddComment(r0, inst->docs().RootNode(r2)).ok());
  (void)inst->AddTagOnFragment(u[9], inst->docs().RootNode(r2),
                               kInvalidKeyword);
  (void)inst->AddTagOnFragment(u[10], inst->docs().GlobalId(r0, 3),
                               kInvalidKeyword);
  for (size_t a = 0; a < u.size(); ++a) {
    (void)inst->AddSocialEdge(u[a], u[(a + 1) % u.size()], 0.5);
  }
  EXPECT_TRUE(inst->Finalize().ok());
  return inst;
}

TEST(PlanGoldenTest, ConnectionShapesMatchRecordedDigest) {
  std::vector<std::vector<KeywordId>> sets;
  Digest all;
  auto add = [&](const S3Instance& inst) {
    all.Add(PlanDigest(inst, sets));
  };
  std::vector<KeywordId> kws;
  const auto shapes = BuildShapesInstance(&kws);
  sets = {{kws[0]}, {kws[1]}, {kws[0], kws[1]}, {kws[0], kws[0]}};
  add(*shapes);
  const s3::testing::Figure1 fig = s3::testing::BuildFigure1();
  sets = {{fig.kw_university},
          {fig.kw_degree},
          {fig.kw_ms},
          {fig.kw_graduate},
          {fig.kw_university, fig.kw_degree}};
  for (auto& s : sets) std::sort(s.begin(), s.end());
  add(*fig.instance);
  // Random nested instances with tags, tag-on-tag chains, endorsements
  // and comments: every keyword alone and every pair.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    s3::testing::RandomInstanceParams p;
    p.seed = seed;
    p.n_users = 8;
    p.n_docs = 24;
    p.max_children = 5;
    p.n_keyword_pool = 4;
    p.n_tags = 24;
    const s3::testing::RandomInstance r = s3::testing::BuildRandomInstance(p);
    sets.clear();
    for (size_t i = 0; i < r.keywords.size(); ++i) {
      sets.push_back({r.keywords[i]});
      for (size_t j = i + 1; j < r.keywords.size(); ++j) {
        sets.push_back({std::min(r.keywords[i], r.keywords[j]),
                        std::max(r.keywords[i], r.keywords[j])});
      }
    }
    add(*r.instance);
  }
  EXPECT_EQ(all.value(), 0x66de882c6b854a0cull)
      << "observed digest " << Hex(all.value());
}

}  // namespace
}  // namespace s3::core
