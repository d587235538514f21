// Property tests for the incremental candidate-bound engine: the
// delta-maintained per-keyword sums and [lower, upper] intervals must
// equal the from-scratch CandidateLowerBound / CandidateUpperBound
// values after every exploration iteration, and the incremental
// S3kSearcher must return the same answers as the naive reference on
// generated microblog workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <string>

#include "core/bound_engine.h"
#include "core/naive_reference.h"
#include "core/s3k.h"
#include "test_fixtures.h"
#include "workload/business_gen.h"
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
  // Flat copy of the candidates — the from-scratch oracle.
  std::vector<Candidate> oracle;
  for (const auto& cc : per_comp) {
    for (const Candidate& c : cc.candidates) oracle.push_back(c);
  }

  const uint32_t total_rows = inst.layout().total();
  const CandidateIndex index = BuildCandidateIndex(
      inst.docs(), ext.size(), inst.matrix().ColumnMax(), per_comp);
  CandidateBoundEngine engine(index);
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

  social::Frontier frontier, next;
  frontier.Init(total_rows);
  next.Init(total_rows);
  frontier.Set(seeker_row, 1.0);

  for (size_t n = 1; n <= iters; ++n) {
    inst.matrix().Propagate(frontier, next);
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
      const double up = CandidateUpperBound(
          cand, all_prox, inst.matrix().ColumnMax(), tail);
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

// Soundness of the column-max tail (core/score.h): on random instances
// and several γ, after every exploration iteration each candidate's
// engine [lower, upper] brackets its exact score — the score under a
// proximity converged until γ^-depth < 1e-18. The bound must also be
// strictly tighter than the W·tail one somewhere, or the test would
// pass vacuously.
TEST(BoundEngineSoundnessTest, IntervalsBracketExactScoreEveryIteration) {
  constexpr double kRel = 1e-12;  // summation-order rounding allowance
  size_t checks = 0, violations = 0, tighter = 0, below_w = 0;
  std::string first;  // the first violation, if any
  for (double gamma : {1.1, 1.5, 3.0}) {
    const size_t depth =
        static_cast<size_t>(std::ceil(18 * std::log(10.0) / std::log(gamma)));
    for (uint64_t seed = 1; seed <= 100; ++seed) {
      s3::testing::RandomInstanceParams p;
      p.seed = seed * 7919 + static_cast<uint64_t>(gamma * 10);
      p.n_users = 5 + static_cast<uint32_t>(seed % 6);
      p.n_docs = 6 + static_cast<uint32_t>(seed % 7);
      p.n_tags = 4 + static_cast<uint32_t>(seed % 5);
      p.social_density = 0.2 + 0.05 * static_cast<double>(seed % 5);
      auto ri = s3::testing::BuildRandomInstance(p);
      const S3Instance& inst = *ri.instance;
      const std::vector<double>& colmax = inst.matrix().ColumnMax();
      const uint32_t total_rows = inst.layout().total();
      Rng rng(p.seed + 1);
      for (int trial = 0; trial < 3; ++trial) {
        Query q;
        q.seeker = static_cast<social::UserId>(rng.Uniform(inst.UserCount()));
        q.keywords = {ri.keywords[rng.Uniform(ri.keywords.size())]};
        if (rng.Chance(0.4)) {
          q.keywords.push_back(ri.keywords[rng.Uniform(ri.keywords.size())]);
        }
        QueryExtension ext = ExtendQuery(inst, q);
        auto passing = PassingComponents(inst, ext);
        std::vector<ComponentCandidates> per_comp(passing.size());
        ConnectionBuilder builder(inst, 0.5);
        for (size_t i = 0; i < passing.size(); ++i) {
          per_comp[i] = builder.Build(passing[i], ext);
        }
        std::vector<Candidate> oracle;
        for (const auto& cc : per_comp) {
          for (const Candidate& c : cc.candidates) oracle.push_back(c);
        }
        if (oracle.empty()) continue;
        const auto prox = ConvergedProx(inst, q.seeker, gamma, depth);
        std::vector<double> exact(oracle.size());
        for (size_t ci = 0; ci < oracle.size(); ++ci) {
          exact[ci] = CandidateScore(oracle[ci], prox);
          for (size_t qi = 0; qi < ext.size(); ++qi) {
            if (TailCoefficient(oracle[ci].sources[qi], colmax) <
                oracle[ci].static_weight[qi]) {
              ++below_w;
            }
          }
        }

        const CandidateIndex index =
            BuildCandidateIndex(inst.docs(), ext.size(), colmax, per_comp);
        CandidateBoundEngine engine(index);
        for (size_t slot = 0; slot < passing.size(); ++slot) {
          engine.ActivateSlot(static_cast<uint32_t>(slot));
        }
        std::vector<double> all_prox(total_rows, 0.0);
        const uint32_t seeker_row = inst.RowOfUser(q.seeker);
        const double c_gamma = CGamma(gamma);
        all_prox[seeker_row] = c_gamma;
        engine.ApplyDelta(seeker_row, c_gamma);
        social::Frontier frontier, next;
        frontier.Init(total_rows);
        next.Init(total_rows);
        frontier.Set(seeker_row, 1.0);
        for (size_t n = 1; n <= 60; ++n) {
          inst.matrix().Propagate(frontier, next);
          std::swap(frontier, next);
          const bool exhausted = frontier.nonzero.empty();
          const double factor = c_gamma * std::pow(gamma, -double(n));
          for (uint32_t row : frontier.nonzero) {
            all_prox[row] += factor * frontier.values[row];
          }
          engine.FoldFrontier(frontier, factor);
          const double tail = exhausted ? 0.0 : TailBound(gamma, n);
          engine.RefreshBounds(tail);
          for (uint32_t ci = 0; ci < engine.size(); ++ci) {
            ++checks;
            if (engine.lower(ci) > exact[ci] * (1 + kRel) ||
                engine.upper(ci) < exact[ci] * (1 - kRel)) {
              if (violations++ == 0) {
                first = "gamma " + std::to_string(gamma) + " seed " +
                        std::to_string(seed) + " iter " +
                        std::to_string(n) + " cand " + std::to_string(ci);
              }
            }
            // The W·tail bound the column-max coefficient replaced.
            double loose = 1.0;
            for (size_t qi = 0; qi < ext.size(); ++qi) {
              double sum = 0.0;
              for (const auto& [src, w] : oracle[ci].sources[qi]) {
                sum += double(w) * all_prox[src];
              }
              const double w_total = oracle[ci].static_weight[qi];
              loose *= KeywordUpperBound(sum, w_total, w_total, tail);
            }
            if (engine.upper(ci) < loose) ++tighter;
          }
          if (exhausted) break;
        }
      }
    }
  }
  EXPECT_EQ(violations, 0u) << "first at " << first;
  EXPECT_GT(checks, 100000u);
  EXPECT_GT(below_w, 0u);
  EXPECT_GT(tighter, 0u);
  std::cout << "[ soundness ] " << checks << " checks, " << violations
            << " violations, " << tighter << " tighter than W*tail\n";
}

// FoldFrontier walks the smaller of frontier.nonzero and SourceRows();
// both are ascending, so either domain must give partial sums that are
// bit-identical to per-row ApplyDelta over frontier.nonzero.
// Single-keyword queries make lower() the partial sum itself, so
// EXPECT_EQ on the bounds compares the sums bit for bit. After the
// propagated steps, a synthetic frontier interleaves source rows with
// rows that feed no candidate (and starts and ends off the source
// list), so the narrow walk's forward search must skip misses.
// Every bound of `a` equals `b`'s bit for bit.
void ExpectSameBounds(const CandidateBoundEngine& a,
                      const CandidateBoundEngine& b, const std::string& what) {
  for (uint32_t ci = 0; ci < a.size(); ++ci) {
    ASSERT_EQ(a.lower(ci), b.lower(ci)) << what << " cand " << ci;
    ASSERT_EQ(a.upper(ci), b.upper(ci)) << what << " cand " << ci;
  }
}

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

  const uint32_t total_rows = inst.layout().total();
  const double gamma = 1.5;
  const double c_gamma = CGamma(gamma);
  size_t narrow = 0, wide = 0, interleaved = 0;
  for (const Query& q : qs.queries) {
    QueryExtension ext = ExtendQuery(inst, q);
    auto passing = PassingComponents(inst, ext);
    std::vector<ComponentCandidates> per_comp(passing.size());
    ConnectionBuilder builder(inst, 0.5);
    for (size_t i = 0; i < passing.size(); ++i) {
      per_comp[i] = builder.Build(passing[i], ext);
    }
    const std::vector<double>& colmax = inst.matrix().ColumnMax();
    const CandidateIndex index =
        BuildCandidateIndex(inst.docs(), 1, colmax, per_comp);
    CandidateBoundEngine fold(index);
    CandidateBoundEngine per_row(index);
    for (size_t slot = 0; slot < passing.size(); ++slot) {
      fold.ActivateSlot(static_cast<uint32_t>(slot));
      per_row.ActivateSlot(static_cast<uint32_t>(slot));
    }

    social::Frontier frontier, next;
    frontier.Init(total_rows);
    next.Init(total_rows);
    frontier.Set(inst.RowOfUser(q.seeker), 1.0);

    for (size_t n = 1; n <= 12; ++n) {
      inst.matrix().Propagate(frontier, next);
      std::swap(frontier, next);
      if (frontier.nonzero.empty()) break;
      if (frontier.nonzero.size() <= fold.SourceRows().size()) {
        ++narrow;
      } else {
        ++wide;
      }
      const double factor = c_gamma * std::pow(gamma, -double(n));
      fold.FoldFrontier(frontier, factor);
      for (uint32_t row : frontier.nonzero) {
        per_row.ApplyDelta(row, factor * frontier.values[row]);
      }
      const double tail = TailBound(gamma, n);
      fold.RefreshBounds(tail);
      per_row.RefreshBounds(tail);
      ExpectSameBounds(fold, per_row, "iter " + std::to_string(n));
      if (HasFatalFailure()) return;
    }

    // The synthetic step: every other source row, each followed by the
    // next row when that one feeds nothing, plus the first and last
    // rows of the instance. Every third row is set to zero, which
    // keeps it listed in `nonzero`: the fold must skip it.
    const std::vector<uint32_t>& src = fold.SourceRows();
    if (src.size() < 4) continue;
    std::vector<uint32_t> rows = {0, total_rows - 1};
    for (size_t i = 0; i < src.size(); i += 2) {
      rows.push_back(src[i]);
      const uint32_t next_row = src[i] + 1;
      if (next_row < total_rows &&
          !std::binary_search(src.begin(), src.end(), next_row)) {
        rows.push_back(next_row);
      }
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    social::Frontier synth;
    synth.Init(total_rows);
    for (size_t i = 0; i < rows.size(); ++i) {
      synth.Set(rows[i], 0.01 * static_cast<double>(i + 1));
      if (i % 3 == 0) synth.Set(rows[i], 0.0);
    }
    ASSERT_LE(synth.nonzero.size(), src.size());
    for (size_t i = 1; i + 1 < synth.nonzero.size(); ++i) {
      if (!std::binary_search(src.begin(), src.end(), synth.nonzero[i])) {
        ++interleaved;
      }
    }
    const double factor = 0.5;
    fold.FoldFrontier(synth, factor);
    for (uint32_t row : synth.nonzero) {
      per_row.ApplyDelta(row, factor * synth.values[row]);
    }
    fold.RefreshBounds(0.0);
    per_row.RefreshBounds(0.0);
    ExpectSameBounds(fold, per_row, "synthetic");
    if (HasFatalFailure()) return;
  }
  // Both domains must actually have been walked, and the narrow one
  // over frontier rows that feed no candidate.
  EXPECT_GT(narrow, 0u);
  EXPECT_GT(wide, 0u);
  EXPECT_GT(interleaved, 0u);
}

// ---- Propagation ------------------------------------------------------------

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

// One Propagate step and one ReferenceStep, then checks `f` against
// the reference bit for bit, and its support: `nonzero` sorted and
// exactly the nonzero rows.
void StepAndCheck(const social::TransitionMatrix& m,
                  const s3::testing::ReferenceRows& rows,
                  social::Frontier& f, social::Frontier& g,
                  std::vector<double>& ref, const std::string& what) {
  m.Propagate(f, g);
  std::swap(f, g);
  std::vector<double> next;
  s3::testing::ReferenceStep(rows, ref, next);
  ref.swap(next);
  std::vector<uint32_t> support;
  for (uint32_t row = 0; row < m.rows(); ++row) {
    ASSERT_EQ(f.values[row], ref[row]) << what << " row " << row;
    if (ref[row] != 0.0) support.push_back(row);
  }
  EXPECT_EQ(f.nonzero, support) << what;
}

// Seeds `f` (and returns the reference) with `mass` on every row of
// `rows`.
std::vector<double> Seed(social::Frontier& f, size_t total,
                         const std::vector<uint32_t>& rows,
                         double mass = 1.0) {
  std::vector<double> ref(total, 0.0);
  for (uint32_t row : rows) {
    f.Set(row, mass);
    ref[row] = mass;
  }
  return ref;
}

// `n` distinct source rows: the highest row that has out-edges — so
// one seed sits in the last 64-row block — then users n-1, ..., 1 in
// descending order, so `Set` has to keep the seeded support sorted.
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

// Multi-step chains from one and from several seeded rows equal the
// Row() reference bit for bit, from the sparse first steps to a
// frontier that fills the graph.
TEST(PropagateTest, ChainMatchesRowReference) {
  const auto inst = PropagationInstance(7, 120, 300);
  const auto& m = inst->matrix();
  const uint32_t total = static_cast<uint32_t>(m.rows());
  ASSERT_NE(total % 64, 0u) << "want a partial last 64-row block";
  const s3::testing::ReferenceRows rows = s3::testing::RowsOf(m);
  for (size_t n : {1, 4}) {
    const std::vector<uint32_t> seeds = SeedRows(*inst, n);
    ASSERT_EQ(seeds[0] / 64, (total - 1) / 64);
    social::Frontier f, g;
    f.Init(total);
    g.Init(total);
    std::vector<double> ref = Seed(f, total, seeds);
    EXPECT_TRUE(std::is_sorted(f.nonzero.begin(), f.nonzero.end()));
    size_t widest = 0;
    for (size_t step = 0; step < 8; ++step) {
      StepAndCheck(m, rows, f, g, ref,
                   "seeds=" + std::to_string(n) + " step " +
                       std::to_string(step));
      if (HasFatalFailure()) return;
      widest = std::max(widest, f.nonzero.size());
    }
    EXPECT_GT(widest * 4, size_t(total)) << "chain never got dense";
  }
}

// A frontier whose mass on one row underflows to zero inside the step
// (that row seeded with the smallest denormal, beside rows of normal
// mass): the rest carries on bit for bit, and the support never lists
// a row whose value is zero.
TEST(PropagateTest, UnderflowingRowBesideLiveRows) {
  const auto inst = PropagationInstance(7, 120, 300);
  const auto& m = inst->matrix();
  const uint32_t total = static_cast<uint32_t>(m.rows());
  const s3::testing::ReferenceRows rows = s3::testing::RowsOf(m);
  social::Frontier f, g;
  f.Init(total);
  g.Init(total);
  const std::vector<uint32_t> seeds = SeedRows(*inst, 4);
  std::vector<double> ref = Seed(f, total, seeds, 0.25);
  const double tiny = std::numeric_limits<double>::denorm_min();
  f.Set(seeds[3], tiny);
  ref[seeds[3]] = tiny;
  for (size_t step = 0; step < 6; ++step) {
    StepAndCheck(m, rows, f, g, ref, "step " + std::to_string(step));
    if (HasFatalFailure()) return;
    EXPECT_FALSE(f.nonzero.empty()) << "step " << step;
  }
}

// One frontier pair reused across two instances with different row
// counts (they differ even in 64-row blocks): re-initializing for the
// other matrix resizes the values, and chains on both stay exact.
TEST(PropagateTest, FrontierReusedAcrossInstances) {
  const auto small = PropagationInstance(7, 120, 300);
  const auto large = PropagationInstance(11, 200, 700);
  ASSERT_NE((small->matrix().rows() + 63) / 64,
            (large->matrix().rows() + 63) / 64);
  social::Frontier f, g;
  for (const S3Instance* inst : {small.get(), large.get(), small.get()}) {
    const auto& m = inst->matrix();
    const s3::testing::ReferenceRows rows = s3::testing::RowsOf(m);
    f.Init(m.rows());
    g.Init(m.rows());
    std::vector<double> ref = Seed(f, m.rows(), SeedRows(*inst, 2));
    for (size_t step = 0; step < 5; ++step) {
      StepAndCheck(m, rows, f, g, ref,
                   "rows=" + std::to_string(m.rows()) + " step " +
                       std::to_string(step));
      if (HasFatalFailure()) return;
    }
  }
}

// A frontier on the two outermost rows that have out-edges. The first
// step's touched row range then spans most of the matrix while few
// rows in it are touched, so the emission scan mostly reads zero rows
// and must list none of them.
TEST(PropagateTest, WideSparseRangeMatchesRowReference) {
  const auto inst = PropagationInstance(7, 120, 300);
  const auto& m = inst->matrix();
  const uint32_t total = static_cast<uint32_t>(m.rows());
  const s3::testing::ReferenceRows rows = s3::testing::RowsOf(m);
  uint32_t first = 0;
  while (first < total && rows[first].empty()) ++first;
  uint32_t last = total - 1;
  while (last > first && rows[last].empty()) --last;
  ASSERT_LT(first, last);
  social::Frontier f, g;
  f.Init(total);
  g.Init(total);
  std::vector<double> ref(total, 0.0);
  f.Set(first, 1.0);
  ref[first] = 1.0;
  f.Set(last, 0.5);
  ref[last] = 0.5;
  for (size_t step = 0; step < 3; ++step) {
    StepAndCheck(m, rows, f, g, ref, "step " + std::to_string(step));
    if (HasFatalFailure()) return;
    if (step == 0) {
      ASSERT_FALSE(f.nonzero.empty());
      const size_t span = f.nonzero.back() - f.nonzero.front() + 1;
      EXPECT_GT(span * 2, size_t(total)) << "not wide";
      EXPECT_LT(f.nonzero.size() * 4, span) << "not sparse";
    }
  }
}

// A chain from the smallest denormal on a row whose out-edge weights
// are all below 1/2: every scattered term rounds to zero, so the step
// touches a row range yet emits no row, and the frontier is exhausted.
TEST(PropagateTest, UnderflowEmitsNothing) {
  const auto inst = PropagationInstance(7, 120, 300);
  const auto& m = inst->matrix();
  const uint32_t total = static_cast<uint32_t>(m.rows());
  const s3::testing::ReferenceRows rows = s3::testing::RowsOf(m);
  uint32_t seed = 0;
  auto all_below_half = [&](uint32_t r) {
    return !rows[r].empty() &&
           std::all_of(rows[r].begin(), rows[r].end(),
                       [](const auto& e) { return e.second < 0.5; });
  };
  while (seed < total && !all_below_half(seed)) ++seed;
  ASSERT_LT(seed, total);
  social::Frontier f, g;
  f.Init(total);
  g.Init(total);
  const double tiny = std::numeric_limits<double>::denorm_min();
  std::vector<double> ref = Seed(f, total, {seed}, tiny);
  ASSERT_FALSE(f.nonzero.empty());
  for (size_t step = 0; step < 2; ++step) {
    StepAndCheck(m, rows, f, g, ref, "step " + std::to_string(step));
    if (HasFatalFailure()) return;
    EXPECT_TRUE(f.nonzero.empty()) << "step " << step;
  }
}

// The pins above run on microblog instances. A business-review instance
// (the I3 shape: many isolated users, reviews hanging off a few
// businesses) keeps frontiers sparse over a wide row range; chains on
// it equal the Row() reference too.
TEST(PropagateTest, BusinessReviewChainMatchesRowReference) {
  workload::BusinessParams p;
  p.seed = 103;
  p.n_users = 300;
  p.isolated_user_fraction = 0.45;
  p.n_businesses = 60;
  p.vocab_size = 800;
  p.ontology.n_classes = 50;
  p.ontology.n_entities = 120;
  const auto inst = std::move(workload::GenerateBusinessReviews(p).instance);
  const auto& m = inst->matrix();
  const uint32_t total = static_cast<uint32_t>(m.rows());
  const s3::testing::ReferenceRows rows = s3::testing::RowsOf(m);
  for (size_t n : {1, 4}) {
    social::Frontier f, g;
    f.Init(total);
    g.Init(total);
    std::vector<double> ref = Seed(f, total, SeedRows(*inst, n));
    size_t widest = 0;
    for (size_t step = 0; step < 8; ++step) {
      StepAndCheck(m, rows, f, g, ref,
                   "seeds=" + std::to_string(n) + " step " +
                       std::to_string(step));
      if (HasFatalFailure()) return;
      widest = std::max(widest, f.nonzero.size());
    }
    EXPECT_GT(widest, size_t{1}) << "seeds=" << n << ": chain never spread";
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
  const CandidateIndex index = BuildCandidateIndex(
      inst.docs(), ext.size(), inst.matrix().ColumnMax(), per_comp);
  CandidateBoundEngine engine(index);
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

// Three nested exact candidates scored 0, 0.6e-12 and 1.2e-12, node ids
// ascending, dominate in a cycle at epsilon 1e-12: the root over the
// middle and the middle over the leaf by the node-id tie-break, the leaf
// over the root by more than epsilon. None dominates both others, so the
// clean pass must fall back to the exact order and keep only the leaf,
// as GreedyTopK would; a live pair left at tail 0 would keep a search
// with an exhausted frontier from converging.
TEST(BoundEngineCleanTest, ExactTieCycleLeavesNoLivePair) {
  S3Instance inst;
  const social::UserId u0 = inst.AddUser("u0");
  const social::UserId u1 = inst.AddUser("u1");
  const social::UserId u2 = inst.AddUser("u2");
  const KeywordId kw = inst.InternKeyword("k");
  doc::Document d("doc");
  const uint32_t mid = d.AddChild(0, "sec");
  const uint32_t leaf = d.AddChild(mid, "par");
  d.AddKeywords(leaf, {kw});
  const doc::DocId doc_id = inst.AddDocument(std::move(d), "d", u0).value();
  ASSERT_TRUE(inst.Finalize().ok());

  // The root has no source (score 0); the middle and the leaf have one
  // each, at weight 1.
  ComponentCandidates cc;
  const uint32_t rows[3] = {0, inst.RowOfUser(u1), inst.RowOfUser(u2)};
  for (uint32_t local = 0; local < 3; ++local) {
    Candidate c;
    c.node = inst.docs().GlobalId(doc_id, local);
    c.sources.resize(1);
    if (local > 0) c.sources[0].emplace_back(rows[local], 1.0f);
    c.static_weight.assign(1, local > 0 ? 1.0 : 0.0);
    c.cap = c.static_weight[0];
    cc.max_cap = std::max(cc.max_cap, c.cap);
    cc.candidates.push_back(std::move(c));
  }
  const CandidateIndex index = BuildCandidateIndex(
      inst.docs(), 1, inst.matrix().ColumnMax(), {cc});
  CandidateBoundEngine engine(index);
  engine.ActivateSlot(0);
  engine.ApplyDelta(rows[1], 6e-13);
  engine.ApplyDelta(rows[2], 1.2e-12);
  engine.RefreshBounds(0.0);
  const double want[3] = {0.0, 6e-13, 1.2e-12};
  for (uint32_t ci = 0; ci < 3; ++ci) {
    ASSERT_EQ(engine.node(ci), inst.docs().GlobalId(doc_id, ci));
    EXPECT_EQ(engine.lower(ci), want[ci]);
    EXPECT_EQ(engine.upper(ci), want[ci]);
  }

  EXPECT_EQ(engine.CleanDominated(1e-12), 2u);
  EXPECT_FALSE(engine.alive(0));
  EXPECT_FALSE(engine.alive(1));
  EXPECT_TRUE(engine.alive(2));
}

}  // namespace
}  // namespace s3::core
