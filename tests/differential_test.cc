// Seeded randomized differential test: S3kSearcher against the
// brute-force oracle (NaiveSearchWithProx over a converged proximity
// vector) on small random instances with nested documents, keyword
// tags, endorsements, tag-on-tag chains and comments, for several k.
//
// The engine's converged answer must be exactly the oracle's answer
// set: the greedy top-k of Definition 3.2 over exact scores. Two
// documented divergences are factored out:
//   * the engine fills k with unreachable candidates at [0, 0] while
//     the oracle drops score-0 documents, so engine entries with upper
//     bound 0 are ignored;
//   * when two scores the oracle's greedy pass looks at lie within
//     1e-9 of each other, the answer depends on the tie-break and on
//     truncation error, so the (instance, k) pair is skipped.
// A failure prints the instance seed, the seeker, the keywords and k.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/connections.h"
#include "core/naive_reference.h"
#include "core/s3k.h"
#include "core/score.h"
#include "test_fixtures.h"

namespace s3::core {
namespace {

struct Scored {
  doc::NodeId node;
  double score;
};

// Every positive-score candidate under `prox`, in the oracle's order
// (score descending, node ascending).
std::vector<Scored> AllScores(const S3Instance& inst, const Query& q,
                              const S3kOptions& opts,
                              const std::vector<double>& prox) {
  QueryExtension ext(q.keywords.size());
  for (size_t i = 0; i < q.keywords.size(); ++i) {
    for (KeywordId k : inst.ExtendKeyword(q.keywords[i])) ext[i].insert(k);
  }
  ConnectionBuilder builder(inst, opts.score.eta);
  std::vector<Scored> out;
  for (social::ComponentId c = 0; c < inst.components().ComponentCount();
       ++c) {
    for (const Candidate& cand : builder.Build(c, ext).candidates) {
      const double s = CandidateScore(cand, prox);
      if (s > 0.0) out.push_back({cand.node, s});
    }
  }
  std::sort(out.begin(), out.end(), [](const Scored& a, const Scored& b) {
    return a.score != b.score ? a.score > b.score : a.node < b.node;
  });
  return out;
}

// True if the oracle's greedy pass for k compares two scores closer
// than `gap`: it reads the order up to its k-th pick, plus the next
// entry (the best candidate it leaves out).
bool GreedyNearTie(const S3Instance& inst, const std::vector<Scored>& all,
                   size_t k, double gap) {
  std::vector<doc::NodeId> picked;
  for (size_t i = 0; i < all.size(); ++i) {
    if (i > 0 && all[i - 1].score - all[i].score < gap) return true;
    if (picked.size() == k) break;
    bool conflict = false;
    for (doc::NodeId p : picked) {
      conflict = conflict || inst.docs().AreVerticalNeighbors(all[i].node, p);
    }
    if (!conflict) picked.push_back(all[i].node);
  }
  return false;
}

// Runs `n_instances` seeded instances from `first_seed`; returns the
// number of (instance, k) pairs compared.
size_t RunDifferential(uint64_t first_seed, size_t n_instances) {
  size_t compared = 0;
  for (uint64_t seed = first_seed; seed < first_seed + n_instances; ++seed) {
    s3::testing::RandomInstanceParams p;
    p.seed = seed;
    p.n_users = 8;
    p.n_docs = 14;
    p.max_children = 6;
    p.n_keyword_pool = 3;
    p.n_tags = 18;
    p.comment_prob = 0.5;
    p.social_density = 0.35;
    const s3::testing::RandomInstance r = s3::testing::BuildRandomInstance(p);
    const S3Instance& inst = *r.instance;
    Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
    Query q;
    q.seeker = static_cast<social::UserId>(rng.Uniform(p.n_users));
    q.keywords = {r.keywords[rng.Uniform(r.keywords.size())]};
    if (rng.Chance(0.25)) {
      q.keywords.push_back(r.keywords[rng.Uniform(r.keywords.size())]);
    }
    std::sort(q.keywords.begin(), q.keywords.end());
    S3kOptions base;
    const std::vector<double> prox =
        s3::testing::ConvergedProx(inst, q.seeker, base.score.gamma, 200);
    const std::vector<Scored> all = AllScores(inst, q, base, prox);

    for (size_t k : {2u, 3u, 4u}) {
      std::ostringstream what;
      what << "seed " << seed << " seeker " << q.seeker << " keywords";
      for (KeywordId kw : q.keywords) what << " " << kw;
      what << " k " << k;
      if (GreedyNearTie(inst, all, k, 1e-9)) continue;
      S3kOptions opts = base;
      opts.k = k;
      S3kSearcher searcher(inst, opts);
      SearchStats st;
      auto got = searcher.Search(q, &st);
      if (!got.ok()) {
        ADD_FAILURE() << what.str() << ": " << got.status().message();
        continue;
      }
      EXPECT_TRUE(st.converged) << what.str();
      std::vector<doc::NodeId> engine;
      for (const ResultEntry& e : *got) {
        if (e.upper != 0.0) engine.push_back(e.node);
      }
      std::vector<doc::NodeId> oracle;
      for (const ResultEntry& e : NaiveSearchWithProx(inst, q, opts, prox)) {
        oracle.push_back(e.node);
      }
      std::sort(engine.begin(), engine.end());
      std::sort(oracle.begin(), oracle.end());
      EXPECT_EQ(engine, oracle) << what.str();
      ++compared;
    }
  }
  return compared;
}

TEST(EngineOracleDifferentialTest, RandomNestedInstancesMatchNaiveSearch) {
  const size_t compared = RunDifferential(/*first_seed=*/1000,
                                          /*n_instances=*/200);
  // Near-ties are rare: nearly every pair is compared.
  EXPECT_GE(compared, 450u);
}

}  // namespace
}  // namespace s3::core
