// Golden pin for every exit branch of the S3k stop check: each case's
// entries, bounds and stop statistics are recorded as hex bit patterns,
// so any change to how the loop orders, selects or picks candidates —
// however it is implemented — must reproduce them bit for bit. Each
// case also asserts, from its SearchStats and iteration trace, that it
// left the loop through the branch it is named after.
//
// Branches of SearchBatchWithPlan's per-lane stop check:
//   * separation — the top k are pairwise non-neighbors and everything
//     else (the next upper and the undiscovered threshold) fits under
//     the k-th lower bound;
//   * anytime — the certified (1+eps) exit of QueryMode::kAnytime;
//   * deadline — the per-iteration deadline probe;
//   * final — max_iterations reached without a stop.
// An exhausted lane has tail 0, so every upper equals its lower,
// CleanDominated leaves no alive neighbor pair, and the threshold is 0:
// with epsilon >= 0 the separation check converges it, so there is no
// exhausted exit. A negative (or non-finite) S3kOptions::epsilon is
// rejected with InvalidArgument instead, which NegativeEpsilonIsRejected
// pins on the two isolated-seeker queries that used to reach one.
//
// The recorded bits come from x86-64 with glibc's libm (std::pow); a
// platform whose pow rounds differently may move the last bits. On a
// mismatch the failure message prints the observed row in the table's
// syntax.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/s3k.h"
#include "server/query_service.h"
#include "test_fixtures.h"
#include "workload/microblog_gen.h"
#include "workload/query_gen.h"

namespace s3::core {
namespace {

enum class Branch { kSeparation, kAnytime, kDeadline, kFinal };

std::string Hex(double v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, std::bit_cast<uint64_t>(v));
  return buf;
}

// One line: stop statistics, then node:lower:upper per entry.
std::string Render(const std::vector<ResultEntry>& entries,
                   const SearchStats& st) {
  std::string out = "it=" + std::to_string(st.iterations) +
                    " conv=" + std::to_string(st.converged) +
                    " ceps=" + Hex(st.certified_epsilon) +
                    " kth=" + Hex(st.kth_lower) +
                    " rem=" + Hex(st.remaining_upper) +
                    " clean=" + std::to_string(st.candidates_cleaned) + " |";
  for (const ResultEntry& e : entries) {
    out += " " + std::to_string(e.node) + ":" + Hex(e.lower) + ":" +
           Hex(e.upper);
  }
  return out;
}

// A small instance with exact ties and an isolated user:
//   * u1 posts eight single-node documents that each contain "tie";
//     u0 follows u1, so every document gets the same proximity, term
//     for term, and all eight candidates tie exactly on every bound;
//   * u2 has no edges at all: its frontier is empty after one step;
//   * "lonely" is interned but occurs nowhere (no passing component).
struct TieInstance {
  std::unique_ptr<S3Instance> instance;
  social::UserId follower = 0, poster = 0, isolated = 0;
  KeywordId tie = kInvalidKeyword, lonely = kInvalidKeyword;
};

TieInstance BuildTieInstance() {
  TieInstance t;
  t.instance = std::make_unique<S3Instance>();
  S3Instance& inst = *t.instance;
  t.follower = inst.AddUser("follower");
  t.poster = inst.AddUser("poster");
  t.isolated = inst.AddUser("isolated");
  t.tie = inst.InternKeyword("tie");
  t.lonely = inst.InternKeyword("lonely");
  for (int i = 0; i < 8; ++i) {
    doc::Document d("tweet");
    d.AddKeywords(0, {t.tie});
    EXPECT_TRUE(
        inst.AddDocument(std::move(d), "t" + std::to_string(i), t.poster)
            .ok());
  }
  EXPECT_TRUE(inst.AddSocialEdge(t.follower, t.poster, 1.0).ok());
  EXPECT_TRUE(inst.Finalize().ok());
  return t;
}

workload::GenResult Microblog() {
  workload::MicroblogParams p;
  p.seed = 4242;
  p.n_users = 150;
  p.n_tweets = 450;
  p.vocab_size = 300;
  p.n_hashtags = 40;
  p.ontology.n_classes = 30;
  p.ontology.n_entities = 80;
  return workload::GenerateMicroblog(p);
}

core::Query FirstQuery(const workload::GenResult& gen,
                       workload::Frequency freq, size_t n_keywords,
                       uint64_t seed) {
  workload::WorkloadSpec spec;
  spec.freq = freq;
  spec.n_keywords = n_keywords;
  spec.n_queries = 1;
  spec.seed = seed;
  auto qs = workload::BuildWorkload(*gen.instance, gen.semantic_anchors, spec);
  EXPECT_EQ(qs.queries.size(), 1u);
  return qs.queries[0];
}

struct Case {
  std::string name;
  const S3Instance* instance;
  social::UserId seeker;
  std::vector<KeywordId> keywords;
  size_t k = 5;
  size_t max_iterations = 400;
  double epsilon_approx = 0.0;  // > 0 selects QueryMode::kAnytime
  double deadline_seconds = 0.0;
  Branch branch = Branch::kSeparation;
  const char* golden = "";
};

S3kOptions OptionsOf(const Case& c) {
  S3kOptions opts;
  opts.k = c.k;
  opts.max_iterations = c.max_iterations;
  return opts;
}

QueryRequest RequestOf(const Case& c) {
  QueryOptions qo;
  qo.k = c.k;
  qo.mode = c.epsilon_approx > 0.0 ? QueryMode::kAnytime : QueryMode::kExact;
  qo.epsilon_approx = c.epsilon_approx;
  qo.deadline_seconds = c.deadline_seconds;
  qo.trace = true;
  return QueryRequest(c.seeker, c.keywords, qo);
}

// Asserts, from the observable stats, that `c` left through its branch.
void ExpectBranch(const Case& c, const SearchStats& st) {
  ASSERT_FALSE(st.iteration_trace.empty()) << c.name;
  const obs::IterationTraceRecord& last = st.iteration_trace.back();
  const bool exhausted = last.frontier_size == 0;
  // The trace's kth_lower / remaining_upper are the separation test's
  // two sides whenever the order is non-empty.
  const bool separated =
      last.remaining_upper <= last.kth_lower + S3kOptions().epsilon;
  switch (c.branch) {
    case Branch::kSeparation:
      // Converged exactly while the frontier still had mass: only the
      // separation test converges an exact lane before exhaustion.
      EXPECT_TRUE(st.converged) << c.name;
      EXPECT_EQ(c.epsilon_approx, 0.0) << c.name;
      EXPECT_FALSE(exhausted) << c.name;
      EXPECT_TRUE(separated) << c.name;
      break;
    case Branch::kAnytime:
      // Converged before exhaustion with the separation test failing.
      EXPECT_TRUE(st.converged) << c.name;
      EXPECT_GT(c.epsilon_approx, 0.0) << c.name;
      EXPECT_FALSE(exhausted) << c.name;
      EXPECT_GT(last.alive_candidates, 0u) << c.name;
      EXPECT_FALSE(separated) << c.name;
      EXPECT_LE(st.certified_epsilon, c.epsilon_approx * (1 + 1e-12))
          << c.name;
      break;
    case Branch::kDeadline:
      EXPECT_FALSE(st.converged) << c.name;
      EXPECT_TRUE(st.deadline_exceeded) << c.name;
      break;
    case Branch::kFinal:
      EXPECT_FALSE(st.converged) << c.name;
      EXPECT_FALSE(st.deadline_exceeded) << c.name;
      EXPECT_EQ(st.iterations, c.max_iterations) << c.name;
      break;
  }
}

// Many small documents whose nested fragments all match a three-word
// pool: alive vertical neighbors crowd the top of the order at early
// exits, so GreedyTopK skips past the first k+1 candidates.
s3::testing::RandomInstance Nested() {
  s3::testing::RandomInstanceParams p;
  p.seed = 1;
  p.n_users = 8;
  p.n_docs = 30;
  p.max_children = 6;
  p.n_keyword_pool = 3;
  p.n_tags = 20;
  return s3::testing::BuildRandomInstance(p);
}

std::vector<Case> Cases(const workload::GenResult& gen,
                        const TieInstance& tie,
                        const s3::testing::RandomInstance& nested) {
  const S3Instance* mb = gen.instance.get();
  const S3Instance* nest = nested.instance.get();
  // Seeds picked for long searches: common1 runs 10 exact iterations
  // over 40 candidates in 15 components with vertical neighbors (17
  // are cleaned), common2 runs 17 at k=10, and rare1 has fewer
  // candidates than k=50. early1 already holds 6 alive candidates after
  // its first iteration, so a deadline there returns a full top 5.
  const core::Query common1 =
      FirstQuery(gen, workload::Frequency::kCommon, 1, 13);
  const core::Query common2 =
      FirstQuery(gen, workload::Frequency::kCommon, 2, 6);
  const core::Query rare1 = FirstQuery(gen, workload::Frequency::kRare, 1, 22);
  const core::Query early1 =
      FirstQuery(gen, workload::Frequency::kCommon, 1, 6);
  std::vector<Case> cases;

  Case c;
  c = {"separation/common1/k5", mb, common1.seeker, common1.keywords};
  c.golden =
      "it=10 conv=1 ceps=0000000000000000"
      " kth=3fc3c6374b7237ba rem=3fc3bf4eae9171e7"
      " clean=17 |"
      " 19:3fc90928ee323477:3fca83fdcb81303e"
      " 7:3fc56e9662cc19fe:3fc6e96b401b15c5"
      " 13:3fc55d8575fac2a3:3fc6d85a5349be6a"
      " 38:3fc4b6430f48dbd4:3fc63117ec97d79b"
      " 35:3fc3c6374b7237ba:3fc5410c28c13381";
  cases.push_back(c);
  c = {"separation/common2/k10", mb, common2.seeker, common2.keywords, 10};
  c.golden =
      "it=17 conv=1 ceps=0000000000000000"
      " kth=3e72cb922a1be9c2 rem=3e71a9469efa449a"
      " clean=8 |"
      " 3:3fd07b5ad88c7413:3fd0869d3745dc7c"
      " 0:3fa4acfdf60bd48c:3fa4d0b3881aecb3"
      " 13:3f8bae7f69d5b5db:3f8c0139a9a22960"
      " 60:3f8ab249ffa05fd7:3f8b038911d92ae7"
      " 10:3f88bd81c981a250:3f890bbb78e361c3"
      " 35:3f84c231a50b68b9:3f8509ddb0dd5090"
      " 72:3e7f3c90eaa5070e:3e9179742d3e371f"
      " 111:3e773e3009496f0a:3e8cd2e6fc60e055"
      " 118:3e7e8156c228a368:3e7fc482b1b0fb5d"
      " 168:3e72cb922a1be9c2:3e7a49c933e900e6";
  cases.push_back(c);
  c = {"separation/rare1/k50-exceeds-candidates", mb, rare1.seeker,
       rare1.keywords, 50};
  c.golden =
      "it=3 conv=1 ceps=0000000000000000"
      " kth=3f14f790f1db37e7 rem=0000000000000000"
      " clean=8 |"
      " 0:3fcce342736a2705:3fdb15f9b856d472"
      " 25:3fbee6d5b1329bd7:3fd45e0deaee67e6"
      " 98:3fb67ccd7b8a548b:3fd2438bdd845613"
      " 60:3fb4d4ca7e15259f:3fd1d98b1e270a58"
      " 85:3fa4968f29f49980:3fce6e54c7c0a840"
      " 32:3f9b440b519993d9:3fccb1326776b45b"
      " 91:3f99d3decee37c73:3fcc832cd71ff16e"
      " 183:3f14f790f1db37e7:3f9db956c13c16b0"
      " 141:3f300946e2cac07d:3f87bfa6ed25241a"
      " 148:3f40e163d73f790f:3f71cb915cad1a07"
      " 197:3f37f5b0fa03ae90:3f6babbda865f174";
  cases.push_back(c);
  c = {"anytime/common1/eps0.5", mb, common1.seeker, common1.keywords};
  c.epsilon_approx = 0.5;
  c.branch = Branch::kAnytime;
  c.golden =
      "it=6 conv=1 ceps=3fd3a8bd53d0aec8"
      " kth=3fc300fd2f4f129c rem=3fc8d76329c5aadf"
      " clean=17 |"
      " 19:3fc8042672fc6b1f:3fcf81fc135c45c0"
      " 7:3fc4680a33bac9a6:3fcbe5dfd41aa447"
      " 13:3fc45af2d1644a2d:3fcbd8c871c424ce"
      " 38:3fc3de2dc0d2bd55:3fcb5c03613297f6"
      " 35:3fc300fd2f4f129c:3fca7ed2cfaeed3d";
  cases.push_back(c);
  c = {"final/common1/max4", mb, common1.seeker, common1.keywords};
  c.max_iterations = 4;
  c.branch = Branch::kFinal;
  c.golden =
      "it=4 conv=0 ceps=3feb345ada011874"
      " kth=3fc1b0a3ab334b0c rem=3fd05d4f837686a0"
      " clean=17 |"
      " 19:3fc64f0f681e45f3:3fd39518087af8ef"
      " 7:3fc2c2ad2876b67a:3fd1cee6e8a73132"
      " 13:3fc2b857685ceaa2:3fd1c9bc089a4b46"
      " 38:3fc2730172c280ae:3fd1a7110dcd164c"
      " 35:3fc1b0a3ab334b0c:3fd145e22a057b7c";
  cases.push_back(c);
  c = {"deadline/early1/k5", mb, early1.seeker, early1.keywords};
  // Expires after the first iteration, which takes far more than 1 ps.
  c.deadline_seconds = 1e-12;
  c.branch = Branch::kDeadline;
  c.golden =
      "it=1 conv=0 ceps=7ff0000000000000"
      " kth=0000000000000000 rem=4031555555555555"
      " clean=1 |"
      " 3:3fda1db73e9497d3:3feb47bf2dc044f8"
      " 13:3faadc36c403ded4:3fdfcd4df56c6df6"
      " 138:0000000000000000:3f9e877664a10a80"
      " 118:0000000000000000:3f7293725c07cd21";
  cases.push_back(c);
  c = {"separation/nested/k5", nest, 0, {nested.keywords[0]}};
  c.golden =
      "it=12 conv=1 ceps=0000000000000000"
      " kth=3fbfbdd1a273830a rem=3fbf954a3a439830"
      " clean=67 |"
      " 9:3fcedfc36bf7c5e1:3fcf88220737523a"
      " 26:3fc97f78b6eb88ce:3fcabb2a1a02aff4"
      " 113:3fc0d9ace34cd90d:3fc1820b7e8c6566"
      " 80:3fc02fa86450894c:3fc0d806ff9015a5"
      " 88:3fbfbdd1a273830a:3fc0562bd486c4ee";
  cases.push_back(c);
  c = {"anytime/nested/k3-eps0.5", nest, 0, {nested.keywords[0]}, 3};
  c.epsilon_approx = 0.5;
  c.branch = Branch::kAnytime;
  c.golden =
      "it=7 conv=1 ceps=3fd0a5087a73bb10"
      " kth=3fc063eae10a3ba5 rem=3fc4a7295eb27040"
      " clean=41 |"
      " 9:3fcdbd4dfb1e2aaf:3fd15dee33045e38"
      " 26:3fc88ef198c220ac:3fd0f61e509cf8fb"
      " 113:3fc063eae10a3ba5:3fc562794bf4cd66";
  cases.push_back(c);
  c = {"final/nested/k5-max2", nest, 5, {nested.keywords[1]}};
  c.max_iterations = 2;
  c.branch = Branch::kFinal;
  c.golden =
      "it=2 conv=0 ceps=4086915fceede254"
      " kth=3f5423712b2f61f7 rem=3fec71c71c71c71c"
      " clean=5 |"
      " 4:3fb0ce5b956e7e89:3fd72a1ba34e410a"
      " 20:3fb0ce5b956e7e89:3fd72a1ba34e410a"
      " 39:3fa52423d97535aa:3fd59b093921481d"
      " 7:3f9fb635c62fd080:3fd4f1e81a559e70"
      " 128:3f5423712b2f61f7:3fd30aa82ecc5eca";
  cases.push_back(c);
  c = {"deadline/nested/k3", nest, 6, {nested.keywords[1]}, 3};
  c.deadline_seconds = 1e-12;
  c.branch = Branch::kDeadline;
  c.golden =
      "it=1 conv=0 ceps=7ff0000000000000"
      " kth=0000000000000000 rem=3ff5555555555555"
      " clean=0 |"
      " 5:3fad7b9b9dcb4ea0:3fdf3447651db12a"
      " 4:3fa0d8eb3598bf37:3fde8ce4839f0a03"
      " 20:0000000000000000:3fdc71c71cebf21c";
  cases.push_back(c);
  c = {"separation/ties/k3", tie.instance.get(), tie.follower, {tie.tie}, 3};
  c.golden =
      "it=63 conv=1 ceps=0000000000000000"
      " kth=3fa1111111102e3c rem=3fa111111111a847"
      " clean=0 |"
      " 0:3fa1111111102e3c:3fa111111111a847"
      " 1:3fa1111111102e3c:3fa111111111a847"
      " 2:3fa1111111102e3c:3fa111111111a847";
  cases.push_back(c);
  c = {"separation/ties/k8-all", tie.instance.get(), tie.follower,
       {tie.tie}, 8};
  c.golden =
      "it=2 conv=1 ceps=0000000000000000"
      " kth=3f92f684bda12f68 rem=0000000000000000"
      " clean=0 |"
      " 0:3f92f684bda12f68:3fac71c71cc3391c"
      " 1:3f92f684bda12f68:3fac71c71cc3391c"
      " 2:3f92f684bda12f68:3fac71c71cc3391c"
      " 3:3f92f684bda12f68:3fac71c71cc3391c"
      " 4:3f92f684bda12f68:3fac71c71cc3391c"
      " 5:3f92f684bda12f68:3fac71c71cc3391c"
      " 6:3f92f684bda12f68:3fac71c71cc3391c"
      " 7:3f92f684bda12f68:3fac71c71cc3391c";
  cases.push_back(c);
  return cases;
}

TEST(StopCheckGoldenTest, EveryExitBranchMatchesRecordedBits) {
  const auto gen = Microblog();
  const TieInstance tie = BuildTieInstance();
  const auto nested = Nested();
  for (const Case& c : Cases(gen, tie, nested)) {
    S3kSearcher searcher(*c.instance, OptionsOf(c));
    SearchStats st;
    auto got = searcher.Search(RequestOf(c), &st);
    ASSERT_TRUE(got.ok()) << c.name << ": " << got.status().message();
    ExpectBranch(c, st);
    EXPECT_EQ(Render(*got, st), c.golden)
        << "observed row for " << c.name << ":\n  c.golden = \""
        << Render(*got, st) << "\";";
  }
}

// A negative or non-finite S3kOptions::epsilon is rejected on every
// search path. The isolated seeker's two queries are the ones an
// epsilon of -1e-9 once drove into an exhausted-lane exit (no passing
// component) and into max_iterations (an undiscoverable component).
TEST(StopCheckGoldenTest, NegativeEpsilonIsRejected) {
  TieInstance tie = BuildTieInstance();
  const S3Instance& inst = *tie.instance;
  for (double eps : {-1e-9, -1.0, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    S3kOptions opts;
    opts.k = 3;
    opts.epsilon = eps;
    opts.max_iterations = 4;
    S3kSearcher searcher(inst, opts);
    for (KeywordId kw : {tie.lonely, tie.tie}) {
      const QueryRequest req(tie.isolated, {kw});
      auto got = searcher.Search(req);
      ASSERT_FALSE(got.ok()) << eps;
      EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument) << eps;
      auto plan = BuildCandidatePlan(inst, {kw}, true, 0.5);
      ASSERT_TRUE(plan.ok());
      EXPECT_EQ(searcher.SearchWithPlan(req, *plan).status().code(),
                StatusCode::kInvalidArgument)
          << eps;
      EXPECT_EQ(searcher.SearchBatchWithPlan({ResolveLane(req, opts)}, *plan)
                    .status()
                    .code(),
                StatusCode::kInvalidArgument)
          << eps;
    }
  }
  // Through the serving layer.
  std::shared_ptr<const S3Instance> shared(std::move(tie.instance));
  server::QueryServiceOptions sopts;
  sopts.workers = 1;
  sopts.search.epsilon = -1e-9;
  server::QueryService service(shared, sopts);
  auto future = service.Submit(QueryRequest(tie.isolated, {tie.tie}));
  ASSERT_TRUE(future.ok());
  auto response = future->get();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

// The tie fixture really ties: every returned entry has the same upper
// bits, and the stop check breaks the tie by node id ascending.
TEST(StopCheckGoldenTest, TiesBreakByNodeOrder) {
  const TieInstance tie = BuildTieInstance();
  S3kOptions opts;
  opts.k = 3;
  S3kSearcher searcher(*tie.instance, opts);
  auto got = searcher.Search(QueryRequest(tie.follower, {tie.tie}));
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 3u);
  for (size_t i = 1; i < got->size(); ++i) {
    EXPECT_EQ((*got)[i].upper, (*got)[0].upper);
    EXPECT_EQ((*got)[i].lower, (*got)[0].lower);
    EXPECT_LT((*got)[i - 1].node, (*got)[i].node);
  }
}

// Every golden case answered as one member of a mixed batch (lanes of
// different k, certificates and deadlines over one plan) reproduces its
// solo row: the selection and the lazy full ordering are per lane.
TEST(StopCheckGoldenTest, BatchedMembersMatchSoloRows) {
  const auto gen = Microblog();
  const TieInstance tie = BuildTieInstance();
  const auto nested = Nested();
  const std::vector<Case> cases = Cases(gen, tie, nested);
  // Group the cases that share an instance, keywords and searcher
  // options into one batch each.
  std::vector<bool> done(cases.size(), false);
  size_t batched_groups = 0;
  for (size_t i = 0; i < cases.size(); ++i) {
    if (done[i]) continue;
    std::vector<size_t> group;
    for (size_t j = i; j < cases.size(); ++j) {
      if (!done[j] && cases[j].instance == cases[i].instance &&
          cases[j].keywords == cases[i].keywords &&
          cases[j].max_iterations == cases[i].max_iterations) {
        group.push_back(j);
        done[j] = true;
      }
    }
    const Case& head = cases[group[0]];
    S3kSearcher searcher(*head.instance, OptionsOf(head));
    std::vector<KeywordId> sorted = head.keywords;
    std::sort(sorted.begin(), sorted.end());
    auto plan = BuildCandidatePlan(*head.instance, sorted, true, 0.5);
    ASSERT_TRUE(plan.ok());
    // Each member twice, so lanes repeat and the batch is wider than 1.
    std::vector<BatchSeeker> batch;
    std::vector<size_t> member_case;
    for (int rep = 0; rep < 2; ++rep) {
      for (size_t ci : group) {
        batch.push_back(ResolveLane(RequestOf(cases[ci]), OptionsOf(head)));
        member_case.push_back(ci);
      }
    }
    auto got = searcher.SearchBatchWithPlan(batch, *plan);
    ASSERT_TRUE(got.ok()) << head.name;
    ++batched_groups;
    for (size_t m = 0; m < batch.size(); ++m) {
      const Case& c = cases[member_case[m]];
      if (c.branch == Branch::kDeadline) {
        // A lane's deadline is measured from the batch start, so it
        // still expires after the first iteration.
        EXPECT_TRUE((*got)[m].stats.deadline_exceeded) << c.name;
      }
      EXPECT_EQ(Render((*got)[m].entries, (*got)[m].stats), c.golden)
          << "batched member " << m << " (" << c.name << ")";
    }
  }
  EXPECT_GE(batched_groups, 3u);
}

}  // namespace
}  // namespace s3::core
