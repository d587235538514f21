// Property tests for the incremental candidate-bound engine: the
// delta-maintained per-keyword sums and [lower, upper] intervals must
// equal the from-scratch CandidateLowerBound / CandidateUpperBound
// values after every exploration iteration, and the incremental
// S3kSearcher must return the same answers as the naive reference on
// generated microblog workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "core/bound_engine.h"
#include "core/naive_reference.h"
#include "core/s3k.h"
#include "test_fixtures.h"
#include "workload/microblog_gen.h"
#include "workload/query_gen.h"

namespace s3::core {
namespace {

using s3::testing::ConvergedProx;
using s3::testing::ExactScore;

QueryExtension ExtendQuery(const S3Instance& inst, const Query& q) {
  QueryExtension ext(q.keywords.size());
  for (size_t i = 0; i < q.keywords.size(); ++i) {
    for (KeywordId k : inst.ExtendKeyword(q.keywords[i])) ext[i].insert(k);
  }
  return ext;
}

std::vector<social::ComponentId> PassingComponents(
    const S3Instance& inst, const QueryExtension& ext) {
  const uint64_t full_mask = (1ull << ext.size()) - 1;
  std::unordered_map<social::ComponentId, uint64_t> mask;
  for (size_t i = 0; i < ext.size(); ++i) {
    for (KeywordId k : ext[i]) {
      for (social::ComponentId c : inst.ComponentsWithKeyword(k)) {
        mask[c] |= (1ull << i);
      }
    }
  }
  std::vector<social::ComponentId> passing;
  for (const auto& [c, m] : mask) {
    if (m == full_mask) passing.push_back(c);
  }
  std::sort(passing.begin(), passing.end());
  return passing;
}

// Drives the exploration loop by hand for `iters` steps and asserts,
// after every step, that the engine's incrementally maintained state
// matches the from-scratch formulas evaluated on the accumulated
// proximity vector. Returns the number of candidates checked.
size_t CheckIncrementalAgainstScratch(const S3Instance& inst,
                                      const Query& q, double gamma,
                                      double eta, size_t iters) {
  QueryExtension ext = ExtendQuery(inst, q);
  auto passing = PassingComponents(inst, ext);

  std::vector<ComponentCandidates> per_comp(passing.size());
  ConnectionBuilder builder(inst, eta);
  for (size_t i = 0; i < passing.size(); ++i) {
    per_comp[i] = builder.Build(passing[i], ext);
  }
  // Flat copy of the candidates before the engine consumes the source
  // lists — the from-scratch oracle.
  std::vector<Candidate> oracle;
  for (const auto& cc : per_comp) {
    for (const Candidate& c : cc.candidates) oracle.push_back(c);
  }

  const uint32_t total_rows = inst.layout().total();
  CandidateBoundEngine engine(inst.docs(), ext.size(), total_rows,
                              per_comp);
  EXPECT_EQ(engine.size(), oracle.size());
  // Activate everything so RefreshBounds covers every candidate.
  for (size_t slot = 0; slot < passing.size(); ++slot) {
    engine.ActivateSlot(static_cast<uint32_t>(slot));
  }

  std::vector<double> all_prox(total_rows, 0.0);
  const uint32_t seeker_row = inst.RowOfUser(q.seeker);
  const double c_gamma = CGamma(gamma);
  all_prox[seeker_row] = c_gamma;
  engine.ApplyDelta(seeker_row, c_gamma);

  social::BatchFrontier frontier, next;
  frontier.Init(total_rows, 1);
  next.Init(total_rows, 1);
  frontier.Set(seeker_row, 0, 1.0);

  for (size_t n = 1; n <= iters; ++n) {
    inst.matrix().PropagateBatchAdaptive(frontier, next, nullptr);
    std::swap(frontier, next);
    if (frontier.nonzero.empty()) break;
    const double factor = c_gamma * std::pow(gamma, -double(n));
    for (uint32_t row : frontier.nonzero) {
      const double delta = factor * frontier.values[row];
      all_prox[row] += delta;
      engine.ApplyDelta(row, delta);
    }
    const double tail = TailBound(gamma, n);
    engine.RefreshBounds(tail);

    for (uint32_t ci = 0; ci < engine.size(); ++ci) {
      const Candidate& cand = oracle[ci];
      EXPECT_EQ(engine.node(ci), cand.node);
      // Per-keyword partial sums track Σ w · prox exactly.
      for (size_t qi = 0; qi < ext.size(); ++qi) {
        double scratch = 0.0;
        for (const auto& [src, w] : cand.sources[qi]) {
          scratch += double(w) * all_prox[src];
        }
        EXPECT_NEAR(engine.FromScratchKeywordSum(ci, qi, all_prox),
                    scratch, 1e-9 + 1e-9 * scratch)
            << "iter " << n << " cand " << ci << " kw " << qi;
      }
      const double lo = CandidateLowerBound(cand, all_prox);
      const double up = CandidateUpperBound(cand, all_prox, tail);
      EXPECT_NEAR(engine.lower(ci), lo, 1e-9 + 1e-9 * lo)
          << "iter " << n << " cand " << ci;
      EXPECT_NEAR(engine.upper(ci), up, 1e-9 + 1e-9 * up)
          << "iter " << n << " cand " << ci;
      EXPECT_LE(engine.lower(ci), engine.upper(ci) + 1e-12);
    }
  }
  return engine.size();
}

TEST(BoundEngineInvariantTest, IncrementalEqualsScratchOnRandomInstances) {
  size_t checked = 0;
  for (uint64_t seed : {11u, 23u, 47u, 91u}) {
    s3::testing::RandomInstanceParams p;
    p.seed = seed;
    p.n_users = 10;
    p.n_docs = 14;
    p.n_tags = 12;
    auto ri = s3::testing::BuildRandomInstance(p);
    Rng rng(seed * 13 + 1);
    for (int trial = 0; trial < 3; ++trial) {
      Query q;
      q.seeker =
          static_cast<social::UserId>(rng.Uniform(ri.instance->UserCount()));
      q.keywords = {ri.keywords[rng.Uniform(ri.keywords.size())]};
      if (rng.Chance(0.5)) {
        q.keywords.push_back(ri.keywords[rng.Uniform(ri.keywords.size())]);
      }
      checked += CheckIncrementalAgainstScratch(*ri.instance, q, 1.5, 0.5,
                                                /*iters=*/12);
    }
  }
  EXPECT_GT(checked, 0u);  // the workloads must actually have candidates
}

TEST(BoundEngineInvariantTest, IncrementalEqualsScratchOnMicroblog) {
  workload::MicroblogParams p;
  p.seed = 4242;
  p.n_users = 150;
  p.n_tweets = 450;
  p.vocab_size = 300;
  p.n_hashtags = 40;
  p.ontology.n_classes = 30;
  p.ontology.n_entities = 80;
  auto gen = workload::GenerateMicroblog(p);

  workload::WorkloadSpec spec;
  spec.freq = workload::Frequency::kCommon;
  spec.n_keywords = 1;
  spec.k = 5;
  spec.n_queries = 4;
  spec.seed = 99;
  auto qs = workload::BuildWorkload(*gen.instance, gen.semantic_anchors,
                                    spec);
  size_t checked = 0;
  for (const Query& q : qs.queries) {
    checked += CheckIncrementalAgainstScratch(*gen.instance, q, 1.5, 0.5,
                                              /*iters=*/10);
  }
  EXPECT_GT(checked, 0u);
}

// ---- Batched adaptive propagation -----------------------------------------

// Rows whose owner shares a reach root with one of `seekers`, ascending:
// mass seeded at those seekers never leaves them, so this is a sound
// pull restriction for PropagateBatchAdaptive.
std::vector<uint32_t> ReachRows(const S3Instance& inst,
                                const std::vector<social::UserId>& seekers) {
  std::vector<uint32_t> roots;
  for (social::UserId u : seekers) roots.push_back(inst.ReachRootOfUser(u));
  std::vector<uint32_t> rows;
  for (uint32_t row = 0; row < inst.layout().total(); ++row) {
    const uint32_t root = inst.ReachRootOfUser(
        inst.OwnerOfEntity(inst.layout().Entity(row)));
    if (std::find(roots.begin(), roots.end(), root) != roots.end()) {
      rows.push_back(row);
    }
  }
  return rows;
}

// A multi-step chain from sparse (push) to dense (pull) frontiers: every
// lane of every step equals the Row() reference bit for bit, serial or
// pooled, with or without a pull restriction, and the output support is
// sorted and exact.
TEST(PropagateBatchAdaptiveTest, ChainMatchesRowReference) {
  workload::MicroblogParams p;
  p.seed = 7;
  p.n_users = 120;
  p.n_tweets = 300;
  p.vocab_size = 200;
  auto gen = workload::GenerateMicroblog(p);
  const auto& inst = *gen.instance;
  const auto& m = inst.matrix();
  const uint32_t total = inst.layout().total();
  const s3::testing::ReferenceRows rows = s3::testing::RowsOf(m);
  ThreadPool pool(3);

  for (const std::vector<social::UserId>& seekers :
       {std::vector<social::UserId>{1}, std::vector<social::UserId>{1, 5, 9}}) {
    const size_t lanes = social::PadLanes(seekers.size());
    const std::vector<uint32_t> reach = ReachRows(inst, seekers);
    for (ThreadPool* pl : {static_cast<ThreadPool*>(nullptr), &pool}) {
      for (const std::vector<uint32_t>* pull_rows :
           {static_cast<const std::vector<uint32_t>*>(nullptr), &reach}) {
        const std::string what =
            std::string(pl ? "pool" : "serial") +
            (pull_rows ? " restricted" : " full") +
            " lanes=" + std::to_string(seekers.size());
        social::BatchFrontier f, g;
        f.Init(total, lanes);
        g.Init(total, lanes);
        std::vector<std::vector<double>> ref(seekers.size(),
                                             std::vector<double>(total, 0.0));
        for (size_t l = 0; l < seekers.size(); ++l) {
          f.Set(inst.RowOfUser(seekers[l]), l, 1.0);
          ref[l][inst.RowOfUser(seekers[l])] = 1.0;
        }
        bool saw_push = false, saw_pull = false;
        std::vector<double> next;
        for (size_t step = 0; step < 6; ++step) {
          bool used_pull = false;
          m.PropagateBatchAdaptive(f, g, pl, pull_rows, &used_pull);
          std::swap(f, g);
          (used_pull ? saw_pull : saw_push) = true;
          for (size_t l = 0; l < seekers.size(); ++l) {
            s3::testing::ReferenceStep(rows, ref[l], next);
            ref[l].swap(next);
          }
          EXPECT_TRUE(std::is_sorted(f.nonzero.begin(), f.nonzero.end()))
              << what << " step " << step;
          size_t support = 0;
          for (uint32_t row = 0; row < total; ++row) {
            bool any = false;
            for (size_t l = 0; l < seekers.size(); ++l) {
              ASSERT_EQ(f.values[size_t(row) * lanes + l], ref[l][row])
                  << what << " step " << step << " lane " << l << " row "
                  << row;
              any = any || ref[l][row] != 0.0;
            }
            support += any ? 1 : 0;
          }
          EXPECT_EQ(f.nonzero.size(), support) << what << " step " << step;
        }
        EXPECT_TRUE(saw_push) << what;
        EXPECT_TRUE(saw_pull) << what;
      }
    }
  }
}

// ---- End-to-end: incremental search equals the naive reference ---------------

TEST(BoundEngineSearchTest, MatchesNaiveReferenceOnMicroblogWorkloads) {
  workload::MicroblogParams p;
  p.seed = 1717;
  p.n_users = 150;
  p.n_tweets = 400;
  p.vocab_size = 250;
  p.n_hashtags = 40;
  p.ontology.n_classes = 25;
  p.ontology.n_entities = 60;
  auto gen = workload::GenerateMicroblog(p);
  const S3Instance& inst = *gen.instance;

  for (size_t n_keywords : {1u, 2u}) {
    workload::WorkloadSpec spec;
    spec.freq = workload::Frequency::kCommon;
    spec.n_keywords = n_keywords;
    spec.k = 5;
    spec.n_queries = 5;
    spec.seed = 500 + n_keywords;
    auto qs = workload::BuildWorkload(*gen.instance, gen.semantic_anchors,
                                      spec);

    S3kOptions opts;
    opts.k = spec.k;
    opts.max_iterations = 400;
    S3kSearcher searcher(inst, opts);
    for (const Query& q : qs.queries) {
      SearchStats stats;
      auto s3k = searcher.Search(q, &stats);
      ASSERT_TRUE(s3k.ok());
      EXPECT_TRUE(stats.converged);

      auto prox = ConvergedProx(inst, q.seeker, opts.score.gamma);
      auto oracle = NaiveSearchWithProx(inst, q, opts, prox);
      ASSERT_EQ(s3k->size(), oracle.size()) << "seeker " << q.seeker;

      // Answers are unique up to ties: compare descending score
      // multisets, and check the reported intervals bracket the truth.
      std::vector<double> got, want;
      for (size_t r = 0; r < oracle.size(); ++r) {
        double exact = ExactScore(inst, q, opts, (*s3k)[r].node, prox);
        EXPECT_LE((*s3k)[r].lower, exact + 1e-7);
        EXPECT_GE((*s3k)[r].upper, exact - 1e-7);
        got.push_back(exact);
        want.push_back(oracle[r].lower);
      }
      std::sort(got.rbegin(), got.rend());
      std::sort(want.rbegin(), want.rend());
      for (size_t r = 0; r < want.size(); ++r) {
        EXPECT_NEAR(got[r], want[r], 1e-7) << "rank " << r;
      }
      for (size_t i = 0; i < s3k->size(); ++i) {
        for (size_t j = i + 1; j < s3k->size(); ++j) {
          EXPECT_FALSE(inst.docs().AreVerticalNeighbors((*s3k)[i].node,
                                                        (*s3k)[j].node));
        }
      }
    }
  }
}

// ---- Engine helper structures ------------------------------------------------

TEST(BoundEngineStructureTest, NeighborAdjacencyMatchesDocumentStore) {
  auto fig = s3::testing::BuildFigure1();
  const S3Instance& inst = *fig.instance;
  Query q{fig.u1, {fig.kw_university}};
  QueryExtension ext = ExtendQuery(inst, q);
  auto passing = PassingComponents(inst, ext);
  std::vector<ComponentCandidates> per_comp(passing.size());
  ConnectionBuilder builder(inst, 0.5);
  for (size_t i = 0; i < passing.size(); ++i) {
    per_comp[i] = builder.Build(passing[i], ext);
  }
  std::vector<doc::NodeId> nodes;
  for (const auto& cc : per_comp) {
    for (const auto& c : cc.candidates) nodes.push_back(c.node);
  }
  CandidateBoundEngine engine(inst.docs(), ext.size(),
                              inst.layout().total(), per_comp);
  ASSERT_GE(engine.size(), 2u);

  // AnyNeighborPair over every 2-subset agrees with the store.
  std::vector<uint32_t> pair(2);
  for (uint32_t a = 0; a < engine.size(); ++a) {
    for (uint32_t b = a + 1; b < engine.size(); ++b) {
      pair[0] = a;
      pair[1] = b;
      EXPECT_EQ(engine.AnyNeighborPair(pair, 2),
                inst.docs().AreVerticalNeighbors(nodes[a], nodes[b]))
          << "pair " << a << "," << b;
    }
  }

  // GreedyTopK never returns vertical neighbors.
  std::vector<uint32_t> order;
  for (uint32_t ci = 0; ci < engine.size(); ++ci) order.push_back(ci);
  auto picked = engine.GreedyTopK(order, 4);
  for (size_t i = 0; i < picked.size(); ++i) {
    for (size_t j = i + 1; j < picked.size(); ++j) {
      EXPECT_FALSE(inst.docs().AreVerticalNeighbors(nodes[picked[i]],
                                                    nodes[picked[j]]));
    }
  }
}

}  // namespace
}  // namespace s3::core
