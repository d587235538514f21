// Certified anytime ((1-ε) top-k) semantics across every query path:
// the core engine, the QueryService, and the ShardRouter.
//
// The contract under test (ISSUE 7):
//   (a) ε = 0 is *bit-for-bit* the exact search — the anytime code
//       path must be unreachable, so entries, iterations, convergence
//       flags and bound exports are EXPECT_EQ'd on doubles;
//   (b) every ε > 0 answer is certified against the NaiveSearch
//       oracle: no omitted document's true (converged) score exceeds
//       the exported remaining_upper, every returned interval brackets
//       its true score, and remaining_upper <= (1+achieved)·kth_lower;
//   (c) the achieved certificate never exceeds the requested ε (modulo
//       one ulp of the exit-condition division — tolerance 1e-9).
// Plus per-request option resolution (k and
// QueryOptions::deadline_seconds against the searcher defaults) and the
// post-search bound-export pin for the shard plan cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/naive_reference.h"
#include "core/s3k.h"
#include "server/query_service.h"
#include "shard/partitioner.h"
#include "shard/shard_router.h"
#include "test_fixtures.h"

namespace s3 {
namespace {

using core::Query;
using core::QueryMode;
using core::QueryOptions;
using core::QueryRequest;
using core::ResultEntry;
using core::S3Instance;
using core::S3kOptions;
using core::S3kSearcher;
using core::SearchStats;
using s3::testing::ConvergedProx;

constexpr double kEpsSweep[] = {0.0, 1e-6, 1e-2, 1e-1};
// One-ulp slack on the achieved-vs-requested comparison (the exit
// condition multiplies, the certificate divides).
constexpr double kCertTol = 1e-9;
// Oracle slack: converged proximities vs the engine's truncated
// bounds (the s3k_test idiom).
constexpr double kOracleTol = 1e-7;

S3kOptions TestOptions() {
  S3kOptions opts;
  opts.k = 4;
  opts.score.gamma = 1.5;
  opts.max_iterations = 400;
  return opts;
}

QueryRequest Anytime(social::UserId seeker, std::vector<KeywordId> kw,
                     double eps, double deadline = 0.0) {
  QueryOptions o;
  o.epsilon_approx = eps;
  o.deadline_seconds = deadline;
  o.mode = QueryMode::kAnytime;
  return QueryRequest(seeker, std::move(kw), o);
}

void ExpectBitIdentical(const std::vector<ResultEntry>& got,
                        const SearchStats& got_stats,
                        const std::vector<ResultEntry>& want,
                        const SearchStats& want_stats, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node) << what << " #" << i;
    EXPECT_EQ(got[i].lower, want[i].lower) << what << " #" << i;
    EXPECT_EQ(got[i].upper, want[i].upper) << what << " #" << i;
  }
  EXPECT_EQ(got_stats.iterations, want_stats.iterations) << what;
  EXPECT_EQ(got_stats.converged, want_stats.converged) << what;
  EXPECT_EQ(got_stats.kth_lower, want_stats.kth_lower) << what;
  EXPECT_EQ(got_stats.remaining_upper, want_stats.remaining_upper) << what;
  EXPECT_EQ(got_stats.certified_epsilon, want_stats.certified_epsilon) << what;
  EXPECT_EQ(got_stats.deadline_exceeded, want_stats.deadline_exceeded) << what;
}

// Certifies one answer against the brute-force oracle: intervals
// bracket true scores, omitted documents stay under remaining_upper,
// and the exported certificate is consistent with the bounds.
void ExpectOracleCertified(const S3Instance& inst, const Query& q,
                           const S3kOptions& opts,
                           const std::vector<ResultEntry>& entries,
                           double kth_lower, double remaining_upper,
                           double certified, const std::string& what) {
  auto prox = ConvergedProx(inst, q.seeker, opts.score.gamma);
  S3kOptions all = opts;
  all.k = 100000;  // every scored candidate, ranked
  auto oracle = core::NaiveSearchWithProx(inst, q, all, prox);

  std::set<doc::NodeId> returned;
  for (const ResultEntry& e : entries) returned.insert(e.node);
  double min_lower = std::numeric_limits<double>::infinity();
  for (const ResultEntry& e : entries) {
    min_lower = std::min(min_lower, e.lower);
  }
  if (entries.empty()) min_lower = 0.0;
  EXPECT_EQ(min_lower, kth_lower) << what << " kth_lower export";

  std::set<doc::NodeId> seen_oracle;
  for (const ResultEntry& o : oracle) {
    seen_oracle.insert(o.node);
    if (returned.count(o.node)) continue;
    // Omitted: the certificate bounds its true score.
    EXPECT_LE(o.lower, remaining_upper + kOracleTol)
        << what << " omitted node " << o.node;
  }
  for (const ResultEntry& e : entries) {
    ASSERT_TRUE(seen_oracle.count(e.node)) << what << " node " << e.node;
    for (const ResultEntry& o : oracle) {
      if (o.node != e.node) continue;
      EXPECT_LE(e.lower, o.lower + kOracleTol) << what << " node " << e.node;
      EXPECT_GE(e.upper, o.lower - kOracleTol) << what << " node " << e.node;
      break;
    }
  }
  // Certificate self-consistency: what the bounds prove.
  if (kth_lower > 0.0) {
    EXPECT_LE(remaining_upper, (1.0 + certified) * kth_lower + kCertTol)
        << what;
  }
}

// ---- QueryOptions validation and resolution ---------------------------------

TEST(QueryOptionsTest, ValidateAcceptsAndRejects) {
  QueryOptions o;
  EXPECT_TRUE(o.Validate().ok());  // all-default is exact

  o.mode = QueryMode::kAnytime;
  o.epsilon_approx = 0.1;
  o.deadline_seconds = 2.5;
  o.k = 7;
  EXPECT_TRUE(o.Validate().ok());

  QueryOptions bad;
  bad.epsilon_approx = -0.1;
  EXPECT_FALSE(bad.Validate().ok());
  bad.epsilon_approx = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(bad.Validate().ok());
  bad.epsilon_approx = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(bad.Validate().ok());

  // epsilon on an exact-mode request is a contradiction, not a no-op.
  bad = QueryOptions{};
  bad.epsilon_approx = 0.01;
  EXPECT_FALSE(bad.Validate().ok());

  bad = QueryOptions{};
  bad.deadline_seconds = -1.0;
  EXPECT_FALSE(bad.Validate().ok());
  bad.deadline_seconds = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(bad.Validate().ok());
}

// A request with k == 0 inherits the searcher's k: bitwise the answer
// of the same request naming that k, and per-request values override
// it.
TEST(QueryOptionsTest, ZeroKInheritsSearcherK) {
  testing::RandomInstanceParams p;
  p.seed = 29;
  p.n_users = 8;
  p.n_docs = 12;
  auto ri = testing::BuildRandomInstance(p);
  S3kOptions defaults = TestOptions();
  defaults.k = 9;
  S3kSearcher searcher(*ri.instance, defaults);

  size_t answered = 0;
  for (social::UserId u = 0; u < p.n_users; ++u) {
    const std::vector<KeywordId> kws = {ri.keywords[0]};
    SearchStats inherit_stats, named_stats, small_stats;
    auto inherit = searcher.Search(QueryRequest(u, kws), &inherit_stats);
    QueryOptions o;
    o.k = 9;
    auto named = searcher.Search(QueryRequest(u, kws, o), &named_stats);
    ASSERT_TRUE(inherit.ok());
    ASSERT_TRUE(named.ok());
    ExpectBitIdentical(*inherit, inherit_stats, *named, named_stats,
                       "seeker " + std::to_string(u));
    answered += inherit->size();

    o.k = 2;
    auto small = searcher.Search(QueryRequest(u, kws, o), &small_stats);
    ASSERT_TRUE(small.ok());
    EXPECT_LE(small->size(), 2u);
  }
  EXPECT_GT(answered, 0u);
}

// An expired per-request deadline truncates the search, and Search and
// SearchWithPlan over a prebuilt plan carrying the same deadline are the
// same search, instruction for instruction.
TEST(QueryOptionsTest, ExpiredDeadlineTruncatesSearchAndPlanSearchAlike) {
  testing::RandomInstanceParams p;
  p.seed = 31;
  p.n_users = 8;
  p.n_docs = 12;
  auto ri = testing::BuildRandomInstance(p);

  // Find a query the exact engine needs >= 2 iterations for, so a
  // microscopic budget provably truncates it.
  S3kOptions exact_opts = TestOptions();
  S3kSearcher probe(*ri.instance, exact_opts);
  Query q;
  bool found = false;
  for (social::UserId u = 0; u < 8 && !found; ++u) {
    for (size_t kw = 0; kw + 1 < ri.keywords.size() && !found; ++kw) {
      Query cand{u, {ri.keywords[kw], ri.keywords[kw + 1]}};
      SearchStats st;
      auto r = probe.Search(cand, &st);
      if (r.ok() && st.iterations >= 2 && !r->empty()) {
        q = cand;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found) << "fixture too easy: every query converges in 1 iter";

  S3kSearcher plain(*ri.instance, exact_opts);
  QueryOptions o;
  o.deadline_seconds = 1e-12;
  const QueryRequest request(q.seeker, q.keywords, o);
  SearchStats req_stats;
  auto req_res = plain.Search(request, &req_stats);
  ASSERT_TRUE(req_res.ok()) << req_res.status().ToString();
  EXPECT_TRUE(req_stats.deadline_exceeded);
  EXPECT_FALSE(req_stats.converged);

  std::vector<KeywordId> sorted = q.keywords;
  std::sort(sorted.begin(), sorted.end());
  auto plan = core::BuildCandidatePlan(*ri.instance, sorted,
                                       exact_opts.use_semantics,
                                       exact_opts.score.eta);
  ASSERT_TRUE(plan.ok());
  S3kSearcher planned(*ri.instance, exact_opts);
  SearchStats plan_stats;
  auto plan_res = planned.SearchWithPlan(request, *plan, &plan_stats);
  ASSERT_TRUE(plan_res.ok()) << plan_res.status().ToString();
  ExpectBitIdentical(*plan_res, plan_stats, *req_res, req_stats,
                     "plan search == search under one deadline");
}

// ---- core engine sweep ------------------------------------------------------

TEST(AnytimeSearchTest, EpsilonSweepMatchesExactAndOracle) {
  for (uint64_t seed : {7u, 19u, 42u}) {
    testing::RandomInstanceParams p;
    p.seed = seed;
    p.n_users = 7;
    p.n_docs = 10;
    auto ri = testing::BuildRandomInstance(p);
    const S3Instance& inst = *ri.instance;
    S3kOptions opts = TestOptions();
    S3kSearcher searcher(inst, opts);

    for (social::UserId u = 0; u < p.n_users; ++u) {
      Query q{u, {ri.keywords[0], ri.keywords[2]}};
      SearchStats exact_stats;
      auto exact = searcher.Search(q, &exact_stats);
      ASSERT_TRUE(exact.ok()) << exact.status().ToString();

      for (double eps : kEpsSweep) {
        const std::string what = "seed=" + std::to_string(seed) +
                                 " seeker=" + std::to_string(u) +
                                 " eps=" + std::to_string(eps);
        SearchStats stats;
        auto res = searcher.Search(Anytime(u, q.keywords, eps), &stats);
        ASSERT_TRUE(res.ok()) << res.status().ToString();

        if (eps == 0.0) {
          // (a) the anytime path must be unreachable at eps = 0.
          ExpectBitIdentical(*res, stats, *exact, exact_stats, what);
          continue;
        }
        // Anytime may only stop earlier, never later.
        EXPECT_LE(stats.iterations, exact_stats.iterations) << what;
        EXPECT_TRUE(stats.converged) << what;
        // (c) achieved <= requested.
        EXPECT_LE(stats.certified_epsilon, eps + kCertTol) << what;
        // (b) oracle-certified.
        if (!res->empty()) {
          ExpectOracleCertified(inst, q, opts, *res, stats.kth_lower,
                                stats.remaining_upper,
                                stats.certified_epsilon, what);
        }
      }
    }
  }
}

// A very loose certificate must actually trigger the early exit on a
// query the exact engine works multiple iterations for — pins that the
// anytime path is live, not vacuously certified at the exact stop.
TEST(AnytimeSearchTest, LooseEpsilonExitsBeforeExactStop) {
  testing::RandomInstanceParams p;
  p.seed = 23;
  p.n_users = 10;
  p.n_docs = 14;
  p.social_density = 0.4;
  auto ri = testing::BuildRandomInstance(p);
  S3kOptions opts = TestOptions();
  S3kSearcher searcher(*ri.instance, opts);

  bool exited_early = false;
  for (social::UserId u = 0; u < p.n_users && !exited_early; ++u) {
    for (size_t kw = 0; kw < ri.keywords.size() && !exited_early; ++kw) {
      Query q{u, {ri.keywords[kw]}};
      SearchStats exact_stats;
      auto exact = searcher.Search(q, &exact_stats);
      ASSERT_TRUE(exact.ok());
      if (exact->empty() || exact_stats.iterations < 3) continue;
      SearchStats stats;
      auto res = searcher.Search(Anytime(u, q.keywords, 8.0), &stats);
      ASSERT_TRUE(res.ok());
      EXPECT_LE(stats.certified_epsilon, 8.0 + kCertTol);
      if (stats.iterations < exact_stats.iterations) exited_early = true;
    }
  }
  EXPECT_TRUE(exited_early)
      << "eps=8 never stopped before the exact threshold condition";
}

// Requests with mixed certificates over one plan, run back to back on
// one searcher in both orders: each answer is bitwise a fresh
// searcher's, so no request's options leak into the next search.
TEST(AnytimeSearchTest, MixedEpsilonRequestsShareOneSearcher) {
  testing::RandomInstanceParams p;
  p.seed = 11;
  p.n_users = 8;
  p.n_docs = 12;
  auto ri = testing::BuildRandomInstance(p);
  const S3Instance& inst = *ri.instance;
  S3kOptions opts = TestOptions();
  S3kSearcher shared(inst, opts);

  std::vector<KeywordId> kws = {ri.keywords[1], ri.keywords[3]};
  auto plan = core::BuildCandidatePlan(inst, kws, opts.use_semantics,
                                       opts.score.eta);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // One request per sweep point, distinct seekers.
  std::vector<QueryRequest> requests;
  for (size_t i = 0; i < 4; ++i) {
    requests.push_back(
        Anytime(static_cast<social::UserId>(i), kws, kEpsSweep[i]));
  }
  requests[0].options.mode = QueryMode::kExact;  // eps 0 as a plain request

  for (int pass = 0; pass < 2; ++pass) {
    for (size_t j = 0; j < requests.size(); ++j) {
      const size_t i = pass == 0 ? j : requests.size() - 1 - j;
      SearchStats got_stats, want_stats;
      auto got = shared.SearchWithPlan(requests[i], *plan, &got_stats);
      auto want = S3kSearcher(inst, opts).SearchWithPlan(requests[i], *plan,
                                                         &want_stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ExpectBitIdentical(*got, got_stats, *want, want_stats,
                         "mixed-eps request " + std::to_string(i));
      EXPECT_LE(got_stats.certified_epsilon,
                requests[i].options.epsilon_approx + kCertTol);
    }
  }
}

TEST(AnytimeSearchTest, RejectsInvalidPerRequestOptions) {
  auto fig = testing::BuildFigure3();
  S3kSearcher searcher(*fig.instance, TestOptions());

  QueryOptions o;
  o.epsilon_approx = -1.0;
  EXPECT_FALSE(searcher.Search(QueryRequest(fig.u0, {fig.k0}, o)).ok());
  o = QueryOptions{};
  o.epsilon_approx = 0.5;  // kExact + eps: contradiction
  EXPECT_FALSE(searcher.Search(QueryRequest(fig.u0, {fig.k0}, o)).ok());
  o = QueryOptions{};
  o.deadline_seconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(searcher.Search(QueryRequest(fig.u0, {fig.k0}, o)).ok());
}

// ---- service sweep (satellite 3 {service} leg + satellite 6) -------------

server::QueryServiceOptions ServiceOptions() {
  server::QueryServiceOptions o;
  o.workers = 2;
  o.search = TestOptions();
  return o;
}

Result<server::QueryResponse> AskService(server::QueryService& svc,
                                         QueryRequest req) {
  auto fut = svc.SubmitBlocking(std::move(req));
  if (!fut.ok()) return fut.status();
  return fut->get();
}

TEST(AnytimeServiceTest, EpsilonSweepAndCounters) {
  testing::RandomInstanceParams p;
  p.seed = 13;
  p.n_users = 7;
  p.n_docs = 10;
  auto ri = testing::BuildRandomInstance(p);
  std::shared_ptr<const S3Instance> inst = std::move(ri.instance);
  server::QueryService svc(inst, ServiceOptions());
  S3kOptions opts = TestOptions();

  uint64_t expect_anytime = 0;
  for (social::UserId u = 0; u < p.n_users; ++u) {
    Query q{u, {ri.keywords[0], ri.keywords[2]}};
    auto exact = AskService(svc, q);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    EXPECT_EQ(exact->certified_epsilon, exact->stats.certified_epsilon);

    for (double eps : kEpsSweep) {
      const std::string what =
          "seeker=" + std::to_string(u) + " eps=" + std::to_string(eps);
      auto res = AskService(svc, Anytime(u, q.keywords, eps));
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      ++expect_anytime;
      // The response surfaces the achieved certificate.
      EXPECT_EQ(res->certified_epsilon, res->stats.certified_epsilon) << what;
      EXPECT_EQ(res->deadline_exceeded, res->stats.deadline_exceeded) << what;
      if (eps == 0.0) {
        ExpectBitIdentical(res->entries, res->stats, exact->entries,
                           exact->stats, what);
      } else {
        EXPECT_LE(res->certified_epsilon, eps + kCertTol) << what;
        if (!res->entries.empty()) {
          ExpectOracleCertified(*inst, q, opts, res->entries,
                                res->stats.kth_lower,
                                res->stats.remaining_upper,
                                res->certified_epsilon, what);
        }
      }
    }
  }

  auto stats = svc.Stats();
  EXPECT_EQ(stats.anytime_queries, expect_anytime);
  // Every completed query lands in exactly one certificate bucket.
  uint64_t hist_total = 0;
  for (uint64_t b : stats.certified_eps_hist) hist_total += b;
  EXPECT_EQ(hist_total, stats.completed);
  // The operator view renders the anytime block.
  std::string line = server::FormatStats(stats);
  EXPECT_NE(line.find("anytime="), std::string::npos) << line;
  EXPECT_NE(line.find("eps["), std::string::npos) << line;
}

TEST(AnytimeServiceTest, DeadlineExpiryDegradesNotFails) {
  testing::RandomInstanceParams p;
  p.seed = 31;
  p.n_users = 8;
  p.n_docs = 12;
  auto ri = testing::BuildRandomInstance(p);
  std::shared_ptr<const S3Instance> inst = std::move(ri.instance);
  server::QueryService svc(inst, ServiceOptions());

  // A query the engine needs >= 2 iterations for (same probe as the
  // expired-deadline test), so a microscopic deadline provably expires.
  S3kSearcher probe(*inst, TestOptions());
  Query q;
  bool found = false;
  for (social::UserId u = 0; u < 8 && !found; ++u) {
    SearchStats st;
    Query cand{u, {ri.keywords[0], ri.keywords[1]}};
    auto r = probe.Search(cand, &st);
    if (r.ok() && st.iterations >= 2 && !r->empty()) {
      q = cand;
      found = true;
    }
  }
  ASSERT_TRUE(found);

  auto res = AskService(svc, Anytime(q.seeker, q.keywords, 0.0, 1e-12));
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->deadline_exceeded);
  EXPECT_FALSE(res->stats.converged);
  EXPECT_GE(res->certified_epsilon, 0.0);  // may be inf: uncertified
  EXPECT_GE(svc.Stats().deadline_exceeded, 1u);
}

TEST(AnytimeServiceTest, SubmitValidatesOptions) {
  auto fig = testing::BuildFigure3();
  std::shared_ptr<const S3Instance> inst = std::move(fig.instance);
  server::QueryService svc(inst, ServiceOptions());

  QueryOptions o;
  o.epsilon_approx = 0.5;  // exact mode: contradiction
  auto fut = svc.Submit(QueryRequest(fig.u0, {fig.k0}, o));
  EXPECT_FALSE(fut.ok());
  EXPECT_EQ(fut.status().code(), StatusCode::kInvalidArgument);

  o = QueryOptions{};
  o.deadline_seconds = -2.0;
  EXPECT_FALSE(svc.Submit(QueryRequest(fig.u0, {fig.k0}, o)).ok());

  // A well-formed anytime request still answers.
  o = QueryOptions{};
  o.mode = QueryMode::kAnytime;
  o.epsilon_approx = 0.25;
  auto res = AskService(svc, QueryRequest(fig.u0, {fig.k0}, o));
  EXPECT_TRUE(res.ok());
}

// ---- router sweep (satellite 3 {router} leg + satellite 2) ---------------

// Disjoint social groups over a shared keyword pool (the shard_test
// fixture shape, compacted).
struct MultiGroup {
  std::unique_ptr<S3Instance> instance;
  std::vector<KeywordId> keywords;
};

MultiGroup BuildMultiGroup(uint32_t n_groups, uint32_t users_per_group,
                           uint64_t seed) {
  MultiGroup out;
  out.instance = std::make_unique<S3Instance>();
  S3Instance& inst = *out.instance;
  Rng rng(seed);

  for (uint32_t u = 0; u < n_groups * users_per_group; ++u) {
    inst.AddUser("u" + std::to_string(u));
  }
  for (uint32_t k = 0; k < 5; ++k) {
    out.keywords.push_back(inst.InternKeyword("kw" + std::to_string(k)));
  }
  inst.DeclareSubClass("kw1", "kw0");

  for (uint32_t g = 0; g < n_groups; ++g) {
    const social::UserId base = g * users_per_group;
    std::vector<doc::DocId> docs;
    const uint32_t n_docs = 2 + g % 3;
    for (uint32_t i = 0; i < n_docs; ++i) {
      doc::Document d("doc");
      uint32_t child = d.AddChild(0, "sec");
      d.AddKeywords(0, {out.keywords[rng.Uniform(out.keywords.size())]});
      d.AddKeywords(child, {out.keywords[rng.Uniform(out.keywords.size())]});
      const social::UserId poster =
          base + static_cast<social::UserId>(rng.Uniform(users_per_group));
      docs.push_back(
          inst.AddDocument(std::move(d),
                           "g" + std::to_string(g) + "d" + std::to_string(i),
                           poster)
              .value());
      if (i > 0 && rng.Chance(0.6)) {
        (void)inst.AddComment(docs[i],
                              inst.docs().RootNode(docs[rng.Uniform(i)]));
      }
    }
    for (uint32_t t = 0; t < 2; ++t) {
      const social::UserId author =
          base + static_cast<social::UserId>(rng.Uniform(users_per_group));
      (void)inst.AddTagOnFragment(
          author, inst.docs().RootNode(docs[rng.Uniform(docs.size())]),
          rng.Chance(0.7) ? out.keywords[rng.Uniform(out.keywords.size())]
                          : kInvalidKeyword);
    }
    for (uint32_t a = 0; a < users_per_group; ++a) {
      for (uint32_t b = 0; b < users_per_group; ++b) {
        if (a != b && rng.Chance(0.6)) {
          (void)inst.AddSocialEdge(base + a, base + b,
                                   0.2 + 0.8 * rng.NextDouble());
        }
      }
    }
  }
  EXPECT_TRUE(inst.Finalize().ok());
  return out;
}

std::unique_ptr<shard::ShardRouter> ServeShards(const S3Instance& inst,
                                                uint32_t n_shards,
                                                bool cache_on) {
  shard::PartitionOptions popts;
  popts.shard_count = n_shards;
  auto partition = shard::Partition(inst, popts);
  EXPECT_TRUE(partition.ok()) << partition.status().ToString();
  shard::ShardRouterOptions ropts;
  ropts.service = ServiceOptions();
  ropts.service.enable_cache = cache_on;
  auto router = shard::ShardRouter::Serve(std::move(*partition), ropts);
  EXPECT_TRUE(router.ok()) << router.status().ToString();
  return std::move(*router);
}

TEST(AnytimeShardTest, EpsilonSweepThroughRouter) {
  auto mg = BuildMultiGroup(3, 3, 17);
  const S3Instance& full = *mg.instance;
  std::shared_ptr<const S3Instance> full_shared = std::move(mg.instance);
  server::QueryService unsharded(full_shared, ServiceOptions());
  S3kOptions opts = TestOptions();

  for (uint32_t n_shards : {2u, 3u}) {
    auto router = ServeShards(full, n_shards, /*cache_on=*/true);
    for (social::UserId u = 0; u < full.UserCount(); u += 2) {
      Query q{u, {mg.keywords[0], mg.keywords[2]}};
      auto exact = AskService(unsharded, q);
      ASSERT_TRUE(exact.ok()) << exact.status().ToString();

      for (double eps : kEpsSweep) {
        const std::string what = "shards=" + std::to_string(n_shards) +
                                 " seeker=" + std::to_string(u) +
                                 " eps=" + std::to_string(eps);
        QueryRequest req = Anytime(u, q.keywords, eps);

        // Home-shard routing: single-instance semantics verbatim.
        auto homed = router->Query(req);
        ASSERT_TRUE(homed.ok()) << homed.status().ToString();
        if (eps == 0.0) {
          ExpectBitIdentical(homed->entries, homed->stats, exact->entries,
                             exact->stats, what + " [home]");
        } else {
          EXPECT_LE(homed->certified_epsilon, eps + kCertTol)
              << what << " [home]";
        }

        // Scatter-gather: merged entries + a *global* certificate
        // folded from the per-shard exports.
        auto global = router->QueryGlobal(req);
        ASSERT_TRUE(global.ok()) << global.status().ToString();
        EXPECT_FALSE(global->deadline_exceeded) << what;
        if (eps == 0.0) {
          ASSERT_EQ(global->entries.size(), exact->entries.size()) << what;
          for (size_t i = 0; i < exact->entries.size(); ++i) {
            EXPECT_EQ(global->entries[i].node, exact->entries[i].node) << what;
            EXPECT_EQ(global->entries[i].lower, exact->entries[i].lower)
                << what;
            EXPECT_EQ(global->entries[i].upper, exact->entries[i].upper)
                << what;
          }
          // Exact global answers certify (near) zero.
          EXPECT_LE(global->certified_epsilon, kCertTol) << what;
        }
        if (!global->entries.empty()) {
          ExpectOracleCertified(full, q, opts, global->entries,
                                global->kth_lower, global->remaining_upper,
                                global->certified_epsilon, what + " [global]");
        }
        // Per-shard local certificates respect the request.
        for (const shard::ShardReport& r : global->shards) {
          if (!r.queried) continue;
          EXPECT_LE(r.certified_epsilon, eps + kCertTol)
              << what << " shard " << r.shard;
        }
      }
    }
  }
}

// Satellite 2 pin: the per-shard bound exports are the *post-search*
// values — the plan cache stores seeker-independent plans, never
// stats — so a cache-hit answer exports bit-for-bit what the cold
// answer exported. (Referenced from shard_router.cc.)
TEST(AnytimeShardTest, CacheHitExportsMatchColdExports) {
  auto mg = BuildMultiGroup(3, 3, 29);
  const S3Instance& full = *mg.instance;
  std::shared_ptr<const S3Instance> keep = std::move(mg.instance);
  auto router = ServeShards(full, 3, /*cache_on=*/true);

  for (double eps : {0.0, 0.05}) {
    QueryRequest req = Anytime(1, {mg.keywords[1], mg.keywords[3]}, eps);
    auto cold = router->QueryGlobal(req);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    auto warm = router->QueryGlobal(req);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    // The repeat actually exercised the plan cache somewhere.
    bool any_hit = warm->cache_hit;
    for (const shard::ShardReport& r : warm->shards) any_hit |= r.cache_hit;
    EXPECT_TRUE(any_hit) << "eps=" << eps;

    ASSERT_EQ(warm->shards.size(), cold->shards.size());
    for (size_t s = 0; s < cold->shards.size(); ++s) {
      EXPECT_EQ(warm->shards[s].kth_lower, cold->shards[s].kth_lower)
          << "shard " << s << " eps=" << eps;
      EXPECT_EQ(warm->shards[s].remaining_upper,
                cold->shards[s].remaining_upper)
          << "shard " << s << " eps=" << eps;
      EXPECT_EQ(warm->shards[s].certified_epsilon,
                cold->shards[s].certified_epsilon)
          << "shard " << s << " eps=" << eps;
    }
    EXPECT_EQ(warm->kth_lower, cold->kth_lower) << "eps=" << eps;
    EXPECT_EQ(warm->remaining_upper, cold->remaining_upper) << "eps=" << eps;
    EXPECT_EQ(warm->certified_epsilon, cold->certified_epsilon)
        << "eps=" << eps;
    ASSERT_EQ(warm->entries.size(), cold->entries.size());
    for (size_t i = 0; i < cold->entries.size(); ++i) {
      EXPECT_EQ(warm->entries[i].node, cold->entries[i].node);
      EXPECT_EQ(warm->entries[i].lower, cold->entries[i].lower);
      EXPECT_EQ(warm->entries[i].upper, cold->entries[i].upper);
    }
  }
}

TEST(AnytimeShardTest, DeadlineDegradesCertificateNotAvailability) {
  auto mg = BuildMultiGroup(3, 3, 17);
  const S3Instance& full = *mg.instance;
  std::shared_ptr<const S3Instance> keep = std::move(mg.instance);

  // A query whose home-shard search needs >= 2 iterations.
  S3kSearcher probe(full, TestOptions());
  Query q;
  bool found = false;
  for (social::UserId u = 0; u < full.UserCount() && !found; ++u) {
    SearchStats st;
    Query cand{u, {mg.keywords[0], mg.keywords[2]}};
    auto r = probe.Search(cand, &st);
    if (r.ok() && st.iterations >= 2 && !r->empty()) {
      q = cand;
      found = true;
    }
  }
  ASSERT_TRUE(found);

  auto router = ServeShards(full, 2, /*cache_on=*/false);
  auto resp = router->QueryGlobal(Anytime(q.seeker, q.keywords, 0.0, 1e-12));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();  // degraded, not failed
  EXPECT_TRUE(resp->deadline_exceeded);
  bool any_shard_flag = false;
  for (const shard::ShardReport& r : resp->shards) {
    any_shard_flag |= r.deadline_exceeded;
  }
  EXPECT_TRUE(any_shard_flag);
}

}  // namespace
}  // namespace s3
