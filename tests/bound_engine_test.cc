// Property tests for the incremental candidate-bound engine: the
// delta-maintained per-keyword sums and [lower, upper] intervals must
// equal the from-scratch CandidateLowerBound / CandidateUpperBound
// values after every exploration iteration, and the incremental
// S3kSearcher must return the same answers as the naive reference on
// generated microblog workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
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
    inst.matrix().PropagateBatch(frontier, next);
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

// FoldFrontier walks the smaller of frontier.nonzero and SourceRows();
// both are ascending, so either domain must give partial sums that are
// bit-identical to per-row ApplyDeltaBatch over frontier.nonzero.
// Single-keyword queries make lower() the partial sum itself, so
// EXPECT_EQ on the bounds compares the sums bit for bit.
TEST(BoundEngineFoldTest, FoldFrontierMatchesPerRowApplyOnBothDomains) {
  workload::MicroblogParams p;
  p.seed = 4242;
  p.n_users = 150;
  p.n_tweets = 450;
  p.vocab_size = 300;
  p.n_hashtags = 40;
  p.ontology.n_classes = 30;
  p.ontology.n_entities = 80;
  auto gen = workload::GenerateMicroblog(p);
  const S3Instance& inst = *gen.instance;

  workload::WorkloadSpec spec;
  spec.freq = workload::Frequency::kRare;
  spec.n_keywords = 1;
  spec.k = 5;
  spec.n_queries = 4;
  spec.seed = 77;
  auto qs = workload::BuildWorkload(inst, gen.semantic_anchors, spec);

  constexpr size_t kLanes = 2;
  const uint32_t total_rows = inst.layout().total();
  const double gamma = 1.5;
  const double c_gamma = CGamma(gamma);
  size_t narrow = 0, wide = 0;
  for (const Query& q : qs.queries) {
    QueryExtension ext = ExtendQuery(inst, q);
    auto passing = PassingComponents(inst, ext);
    std::vector<ComponentCandidates> per_comp(passing.size());
    ConnectionBuilder builder(inst, 0.5);
    for (size_t i = 0; i < passing.size(); ++i) {
      per_comp[i] = builder.Build(passing[i], ext);
    }
    CandidateBoundEngine fold(inst.docs(), 1, total_rows, per_comp, kLanes);
    CandidateBoundEngine per_row(inst.docs(), 1, total_rows, per_comp,
                                 kLanes);
    for (size_t slot = 0; slot < passing.size(); ++slot) {
      for (size_t l = 0; l < kLanes; ++l) {
        fold.ActivateSlot(static_cast<uint32_t>(slot), l);
        per_row.ActivateSlot(static_cast<uint32_t>(slot), l);
      }
    }

    // Lane 0 is the query's seeker, lane 1 another user.
    social::BatchFrontier frontier, next;
    frontier.Init(total_rows, kLanes);
    next.Init(total_rows, kLanes);
    frontier.Set(inst.RowOfUser(q.seeker), 0, 1.0);
    frontier.Set(inst.RowOfUser((q.seeker + 1) % inst.UserCount()), 1, 1.0);

    for (size_t n = 1; n <= 12; ++n) {
      inst.matrix().PropagateBatch(frontier, next);
      std::swap(frontier, next);
      if (frontier.nonzero.empty()) break;
      if (frontier.nonzero.size() <= fold.SourceRows().size()) {
        ++narrow;
      } else {
        ++wide;
      }
      const double factor = c_gamma * std::pow(gamma, -double(n));
      fold.FoldFrontier(frontier, factor);
      double d[kLanes];
      for (uint32_t row : frontier.nonzero) {
        for (size_t l = 0; l < kLanes; ++l) {
          d[l] = factor * frontier.values[size_t(row) * kLanes + l];
        }
        per_row.ApplyDeltaBatch(row, d);
      }
      const double tail = TailBound(gamma, n);
      fold.RefreshBounds(tail);
      per_row.RefreshBounds(tail);
      for (uint32_t ci = 0; ci < fold.size(); ++ci) {
        for (size_t l = 0; l < kLanes; ++l) {
          ASSERT_EQ(fold.lower(ci, l), per_row.lower(ci, l))
              << "iter " << n << " cand " << ci << " lane " << l;
          ASSERT_EQ(fold.upper(ci, l), per_row.upper(ci, l))
              << "iter " << n << " cand " << ci << " lane " << l;
        }
      }
    }
  }
  // Both domains must actually have been walked.
  EXPECT_GT(narrow, 0u);
  EXPECT_GT(wide, 0u);
}

// ---- Batched propagation -------------------------------------------------

std::unique_ptr<S3Instance> PropagationInstance(uint64_t seed,
                                                uint32_t n_users,
                                                uint32_t n_tweets) {
  workload::MicroblogParams p;
  p.seed = seed;
  p.n_users = n_users;
  p.n_tweets = n_tweets;
  p.vocab_size = 200;
  return std::move(workload::GenerateMicroblog(p).instance);
}

// One ReferenceStep per lane, then checks every lane of `f` against the
// reference bit for bit, and its support: `nonzero` sorted, exactly the
// rows with some nonzero lane, the `lane_mass` flags right, and the
// bitmap scratch sized to the matrix and all-zero again.
void StepAndCheck(const social::TransitionMatrix& m,
                  const s3::testing::ReferenceRows& rows,
                  social::BatchFrontier& f, social::BatchFrontier& g,
                  std::vector<std::vector<double>>& ref,
                  const std::string& what) {
  m.PropagateBatch(f, g);
  std::swap(f, g);
  std::vector<double> next;
  for (std::vector<double>& r : ref) {
    s3::testing::ReferenceStep(rows, r, next);
    r.swap(next);
  }
  const size_t lanes = f.lanes;
  std::vector<uint32_t> support;
  std::vector<uint8_t> mass(ref.size(), 0);
  for (uint32_t row = 0; row < m.rows(); ++row) {
    bool any = false;
    for (size_t l = 0; l < ref.size(); ++l) {
      ASSERT_EQ(f.values[size_t(row) * lanes + l], ref[l][row])
          << what << " lane " << l << " row " << row;
      if (ref[l][row] != 0.0) {
        any = true;
        mass[l] = 1;
      }
    }
    if (any) support.push_back(row);
  }
  EXPECT_EQ(f.nonzero, support) << what;
  for (size_t l = 0; l < ref.size(); ++l) {
    EXPECT_EQ(f.LaneHasMass(l), mass[l] != 0) << what << " lane " << l;
  }
  ASSERT_EQ(g.support.size(), (m.rows() + 63) / 64) << what;
  ASSERT_EQ(f.support.size(), (m.rows() + 63) / 64) << what;
  EXPECT_TRUE(std::all_of(f.support.begin(), f.support.end(),
                          [](uint64_t w) { return w == 0; }))
      << what;
}

// Seeds lane l of `f` (and of the reference) at rows[l].
std::vector<std::vector<double>> Seed(social::BatchFrontier& f, size_t total,
                                      const std::vector<uint32_t>& rows) {
  std::vector<std::vector<double>> ref(rows.size(),
                                       std::vector<double>(total, 0.0));
  for (size_t l = 0; l < rows.size(); ++l) {
    f.Set(rows[l], l, 1.0);
    ref[l][rows[l]] = 1.0;
  }
  return ref;
}

// Distinct source rows for `n` lanes: the highest row that has
// out-edges — so one seeker sits in the last bitmap word — then users
// 1, 2, 3, ... in descending order, so `Set` has to keep the seeded
// support sorted.
std::vector<uint32_t> SeedRows(const S3Instance& inst, size_t n) {
  const auto& m = inst.matrix();
  uint32_t last = static_cast<uint32_t>(m.rows());
  while (last > 0 && m.Row(last - 1).empty()) --last;
  std::vector<uint32_t> rows = {last - 1};
  for (social::UserId u = static_cast<social::UserId>(n - 1); u >= 1; --u) {
    rows.push_back(inst.RowOfUser(u));
  }
  return rows;
}

// Multi-step chains at every kernel width — 1, 2, 4, 8 and the generic
// multiple-of-4 path (12) — equal the Row() reference bit for bit on
// every lane, from the sparse first steps to a frontier that fills the
// graph.
TEST(PropagateBatchTest, ChainMatchesRowReference) {
  const auto inst = PropagationInstance(7, 120, 300);
  const auto& m = inst->matrix();
  const uint32_t total = static_cast<uint32_t>(m.rows());
  ASSERT_NE(total % 64, 0u) << "want a partial last bitmap word";
  const s3::testing::ReferenceRows rows = s3::testing::RowsOf(m);
  for (size_t n : {1, 2, 4, 8, 12}) {
    const std::vector<uint32_t> seeds = SeedRows(*inst, n);
    ASSERT_EQ(seeds[0] / 64, (total - 1) / 64);
    social::BatchFrontier f, g;
    f.Init(total, social::PadLanes(n));
    g.Init(total, social::PadLanes(n));
    ASSERT_EQ(f.lanes, n);
    std::vector<std::vector<double>> ref = Seed(f, total, seeds);
    EXPECT_TRUE(std::is_sorted(f.nonzero.begin(), f.nonzero.end()));
    size_t widest = 0;
    for (size_t step = 0; step < 8; ++step) {
      StepAndCheck(m, rows, f, g, ref,
                   "lanes=" + std::to_string(n) + " step " +
                       std::to_string(step));
      if (HasFatalFailure()) return;
      widest = std::max(widest, f.nonzero.size());
    }
    EXPECT_GT(widest * 4, size_t(total)) << "chain never got dense";
  }
}

// A lane zeroed mid-chain (a converged seeker dropping out) reports no
// mass from the next step on, while the other lanes carry on bit for
// bit and the support never lists a row whose lanes are all zero — also
// when a lane's mass underflows to zero inside the step (lane 3, seeded
// with the smallest denormal).
TEST(PropagateBatchTest, ZeroedLaneStaysDead) {
  const auto inst = PropagationInstance(7, 120, 300);
  const auto& m = inst->matrix();
  const uint32_t total = static_cast<uint32_t>(m.rows());
  const s3::testing::ReferenceRows rows = s3::testing::RowsOf(m);
  social::BatchFrontier f, g;
  f.Init(total, 4);
  g.Init(total, 4);
  const std::vector<uint32_t> seeds = SeedRows(*inst, 4);
  std::vector<std::vector<double>> ref = Seed(f, total, seeds);
  const double tiny = std::numeric_limits<double>::denorm_min();
  f.Set(seeds[3], 3, tiny);
  ref[3][seeds[3]] = tiny;
  for (size_t step = 0; step < 6; ++step) {
    if (step == 2) {
      ASSERT_TRUE(f.LaneHasMass(1));
      f.ZeroLane(1);
      std::fill(ref[1].begin(), ref[1].end(), 0.0);
    }
    StepAndCheck(m, rows, f, g, ref, "step " + std::to_string(step));
    if (HasFatalFailure()) return;
    if (step >= 2) {
      EXPECT_FALSE(f.LaneHasMass(1)) << "step " << step;
      EXPECT_FALSE(f.nonzero.empty()) << "step " << step;
    }
  }
}

// One frontier pair reused across two instances whose row counts need
// different bitmap sizes: re-initializing for the other matrix resizes
// the support, and chains on both stay exact.
TEST(PropagateBatchTest, FrontierReusedAcrossInstances) {
  const auto small = PropagationInstance(7, 120, 300);
  const auto large = PropagationInstance(11, 200, 700);
  ASSERT_NE((small->matrix().rows() + 63) / 64,
            (large->matrix().rows() + 63) / 64);
  social::BatchFrontier f, g;
  for (const S3Instance* inst : {small.get(), large.get(), small.get()}) {
    const auto& m = inst->matrix();
    const s3::testing::ReferenceRows rows = s3::testing::RowsOf(m);
    f.Init(m.rows(), 2);
    g.Init(m.rows(), 2);
    std::vector<std::vector<double>> ref =
        Seed(f, m.rows(), SeedRows(*inst, 2));
    for (size_t step = 0; step < 5; ++step) {
      StepAndCheck(m, rows, f, g, ref,
                   "rows=" + std::to_string(m.rows()) + " step " +
                       std::to_string(step));
      if (HasFatalFailure()) return;
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
