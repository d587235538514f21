// Shared fixtures: instances modelled on the paper's running examples
// (Figure 1 and Figure 3), a seeded random-instance generator used by
// the S3k-vs-brute-force property tests, and the converged-proximity /
// exact-score oracle those tests compare the engine against.
#ifndef S3_TESTS_TEST_FIXTURES_H_
#define S3_TESTS_TEST_FIXTURES_H_

#include <cmath>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/connections.h"
#include "core/s3_instance.h"
#include "core/s3k.h"
#include "core/score.h"

namespace s3::testing {

// The Figure 3-style instance, arranged so that the normalization
// arithmetic of Example 2.3 holds:
//   * edges leaving u0: u0 -> URI0 (postedBy‾, w 1), u0 -> u3
//     (social, w 0.3) — first-edge normalization 1/1.3;
//   * edges leaving URI0's vertical neighborhood: URI0 -> u0 (postedBy),
//     URI0.0.0 -> a0 (hasSubject‾), URI0.1 -> URI1 (commentsOn‾),
//     URI0.1 -> a1 (hasSubject‾) — four weight-1 edges, normalization
//     1/4.
struct Figure3 {
  std::unique_ptr<core::S3Instance> instance;
  social::UserId u0, u1, u2, u3;
  doc::DocId doc0, doc1;
  doc::NodeId uri0, uri0_0, uri0_0_0, uri0_1, uri1;
  social::TagId a0, a1;
  KeywordId k0, k1, k2;
};

inline Figure3 BuildFigure3() {
  Figure3 f;
  f.instance = std::make_unique<core::S3Instance>();
  core::S3Instance& inst = *f.instance;

  f.u0 = inst.AddUser("u0");
  f.u1 = inst.AddUser("u1");
  f.u2 = inst.AddUser("u2");
  f.u3 = inst.AddUser("u3");

  f.k0 = inst.InternKeyword("k0");
  f.k1 = inst.InternKeyword("k1");
  f.k2 = inst.InternKeyword("k2");

  // URI0 with children URI0.0 (child URI0.0.0) and URI0.1.
  doc::Document d0("doc");
  uint32_t n00 = d0.AddChild(0, "sec");      // URI0.0  (local 1)
  uint32_t n000 = d0.AddChild(n00, "par");   // URI0.0.0 (local 2)
  uint32_t n01 = d0.AddChild(0, "sec");      // URI0.1  (local 3)
  d0.AddKeywords(n000, {f.k0});
  d0.AddKeywords(n01, {f.k1});
  f.doc0 = inst.AddDocument(std::move(d0), "URI0", f.u0).value();
  f.uri0 = inst.docs().RootNode(f.doc0);
  f.uri0_0 = inst.docs().GlobalId(f.doc0, n00);
  f.uri0_0_0 = inst.docs().GlobalId(f.doc0, n000);
  f.uri0_1 = inst.docs().GlobalId(f.doc0, n01);

  // URI1, a single-node document by u1, commenting on URI0.1.
  doc::Document d1("doc");
  d1.AddKeywords(0, {f.k1});
  f.doc1 = inst.AddDocument(std::move(d1), "URI1", f.u1).value();
  f.uri1 = inst.docs().RootNode(f.doc1);
  (void)inst.AddComment(f.doc1, f.uri0_1);

  // Tags: a0 by u2 on URI0.0.0 with keyword k2; a1 by u3 on URI0.1
  // (endorsement).
  f.a0 = inst.AddTagOnFragment(f.u2, f.uri0_0_0, f.k2).value();
  f.a1 = inst.AddTagOnFragment(f.u3, f.uri0_1, kInvalidKeyword).value();

  // Social edges (weights from the figure).
  (void)inst.AddSocialEdge(f.u0, f.u3, 0.3);
  (void)inst.AddSocialEdge(f.u1, f.u3, 0.5);
  (void)inst.AddSocialEdge(f.u3, f.u1, 0.5);
  (void)inst.AddSocialEdge(f.u2, f.u1, 0.7);

  (void)inst.Finalize();
  return f;
}

// The Figure 1 scenario: d0 (sections/paragraphs), d1 replies to d0,
// d2 comments on d0.3.2, u4 tags d0.5.1 with "university"; an RDFS
// ontology links "m.s." to "degree" and "graduate".
struct Figure1 {
  std::unique_ptr<core::S3Instance> instance;
  social::UserId u0, u1, u2, u3, u4;
  doc::DocId d0, d1, d2;
  doc::NodeId d0_root, d0_3, d0_3_2, d0_5, d0_5_1;
  doc::NodeId d1_root, d2_root, d2_7, d2_7_5;
  KeywordId kw_university, kw_ms, kw_degree, kw_graduate;
  social::TagId tag_university;
};

inline Figure1 BuildFigure1() {
  Figure1 f;
  f.instance = std::make_unique<core::S3Instance>();
  core::S3Instance& inst = *f.instance;

  f.u0 = inst.AddUser("u0");
  f.u1 = inst.AddUser("u1");
  f.u2 = inst.AddUser("u2");
  f.u3 = inst.AddUser("u3");
  f.u4 = inst.AddUser("u4");

  f.kw_university = inst.InternKeyword("university");
  f.kw_ms = inst.InternKeyword("m.s.");
  f.kw_degree = inst.InternKeyword("degree");
  f.kw_graduate = inst.InternKeyword("graduate");

  // Ontology: a M.S. is a degree; someone with a degree is a graduate.
  inst.DeclareSubClass("m.s.", "degree");
  inst.DeclareSubClass("degree", "graduate");

  // d0: article with (among others) sections 3 and 5, paragraphs 3.2
  // and 5.1.
  doc::Document d0("article");
  uint32_t s1 = d0.AddChild(0, "sec");
  uint32_t s2 = d0.AddChild(0, "sec");
  uint32_t sec3 = d0.AddChild(0, "sec");
  uint32_t p31 = d0.AddChild(sec3, "par");
  uint32_t p32 = d0.AddChild(sec3, "par");
  uint32_t s4 = d0.AddChild(0, "sec");
  uint32_t sec5 = d0.AddChild(0, "sec");
  uint32_t p51 = d0.AddChild(sec5, "par");
  (void)s1;
  (void)s2;
  (void)p31;
  (void)s4;
  d0.AddKeywords(p32, {inst.InternKeyword("opportun")});
  f.d0 = inst.AddDocument(std::move(d0), "d0", f.u0).value();
  f.d0_root = inst.docs().RootNode(f.d0);
  f.d0_3 = inst.docs().GlobalId(f.d0, sec3);
  f.d0_3_2 = inst.docs().GlobalId(f.d0, p32);
  f.d0_5 = inst.docs().GlobalId(f.d0, sec5);
  f.d0_5_1 = inst.docs().GlobalId(f.d0, p51);

  // d1 by u2: "When I got my M.S. @UAlberta in 2012" — replies to d0.
  doc::Document d1("tweet");
  uint32_t t1 = d1.AddChild(0, "text");
  d1.AddKeywords(t1, {f.kw_ms, inst.InternKeyword("@ualberta"),
                      inst.InternKeyword("2012")});
  f.d1 = inst.AddDocument(std::move(d1), "d1", f.u2).value();
  f.d1_root = inst.docs().RootNode(f.d1);
  (void)inst.AddComment(f.d1, f.d0_root);

  // d2 by u3: comments on d0.3.2; its paragraph 7.5 mentions
  // "university".
  doc::Document d2("comment");
  uint32_t sec7 = 0;
  for (int i = 0; i < 7; ++i) sec7 = d2.AddChild(0, "sec");
  uint32_t p75 = 0;
  for (int i = 0; i < 5; ++i) p75 = d2.AddChild(sec7, "par");
  d2.AddKeywords(p75, {f.kw_university});
  f.d2 = inst.AddDocument(std::move(d2), "d2", f.u3).value();
  f.d2_root = inst.docs().RootNode(f.d2);
  f.d2_7 = inst.docs().GlobalId(f.d2, sec7);
  f.d2_7_5 = inst.docs().GlobalId(f.d2, p75);
  (void)inst.AddComment(f.d2, f.d0_3_2);

  // u4 tags d0.5.1 with "university".
  f.tag_university =
      inst.AddTagOnFragment(f.u4, f.d0_5_1, f.kw_university).value();

  // Social: u1 friend of u0 (and some context edges).
  (void)inst.AddSocialEdge(f.u1, f.u0, 1.0);
  (void)inst.AddSocialEdge(f.u0, f.u1, 1.0);
  (void)inst.AddSocialEdge(f.u1, f.u4, 0.4);

  (void)inst.Finalize();
  return f;
}

// Random small instance for oracle-comparison property tests.
struct RandomInstanceParams {
  uint64_t seed = 1;
  uint32_t n_users = 6;
  uint32_t n_docs = 8;
  uint32_t max_children = 3;
  uint32_t n_keyword_pool = 6;
  uint32_t n_tags = 6;
  double comment_prob = 0.5;
  double social_density = 0.3;
};

struct RandomInstance {
  std::unique_ptr<core::S3Instance> instance;
  std::vector<KeywordId> keywords;
};

inline RandomInstance BuildRandomInstance(const RandomInstanceParams& p) {
  RandomInstance out;
  out.instance = std::make_unique<core::S3Instance>();
  core::S3Instance& inst = *out.instance;
  Rng rng(p.seed);

  for (uint32_t u = 0; u < p.n_users; ++u) {
    inst.AddUser("u" + std::to_string(u));
  }
  for (uint32_t k = 0; k < p.n_keyword_pool; ++k) {
    out.keywords.push_back(inst.InternKeyword("kw" + std::to_string(k)));
  }
  // Small ontology over part of the pool: kw1 ≺sc kw0, kw2 type kw0.
  if (p.n_keyword_pool >= 3) {
    inst.DeclareSubClass("kw1", "kw0");
    inst.DeclareType("kw2", "kw0");
  }

  std::vector<doc::DocId> docs;
  for (uint32_t i = 0; i < p.n_docs; ++i) {
    doc::Document d("doc");
    uint32_t n_children = static_cast<uint32_t>(rng.Uniform(p.max_children + 1));
    for (uint32_t c = 0; c < n_children; ++c) {
      uint32_t parent =
          static_cast<uint32_t>(rng.Uniform(d.NodeCount()));
      uint32_t child = d.AddChild(parent, "n");
      if (rng.Chance(0.7)) {
        d.AddKeywords(child,
                      {out.keywords[rng.Uniform(out.keywords.size())]});
      }
    }
    if (rng.Chance(0.7)) {
      d.AddKeywords(0, {out.keywords[rng.Uniform(out.keywords.size())]});
    }
    social::UserId poster =
        static_cast<social::UserId>(rng.Uniform(p.n_users));
    doc::DocId id =
        inst.AddDocument(std::move(d), "d" + std::to_string(i), poster)
            .value();
    docs.push_back(id);
    if (i > 0 && rng.Chance(p.comment_prob)) {
      doc::DocId target = docs[rng.Uniform(i)];
      uint32_t local = static_cast<uint32_t>(
          rng.Uniform(inst.docs().NodeCount(target)));
      (void)inst.AddComment(id, inst.docs().GlobalId(target, local));
    }
  }

  std::vector<social::TagId> tags;
  for (uint32_t t = 0; t < p.n_tags; ++t) {
    social::UserId author =
        static_cast<social::UserId>(rng.Uniform(p.n_users));
    KeywordId kw = rng.Chance(0.6)
                       ? out.keywords[rng.Uniform(out.keywords.size())]
                       : kInvalidKeyword;
    if (!tags.empty() && rng.Chance(0.25)) {
      auto r = inst.AddTagOnTag(author, tags[rng.Uniform(tags.size())], kw);
      if (r.ok()) tags.push_back(r.value());
    } else {
      doc::NodeId subject = static_cast<doc::NodeId>(
          rng.Uniform(inst.docs().NodeCount()));
      auto r = inst.AddTagOnFragment(author, subject, kw);
      if (r.ok()) tags.push_back(r.value());
    }
  }

  for (uint32_t a = 0; a < p.n_users; ++a) {
    for (uint32_t b = 0; b < p.n_users; ++b) {
      if (a != b && rng.Chance(p.social_density)) {
        (void)inst.AddSocialEdge(a, b, 0.2 + 0.8 * rng.NextDouble());
      }
    }
  }

  (void)inst.Finalize();
  return out;
}

// The rows of `m` as (column, value) lists, read through
// TransitionMatrix::Row() — the input of ReferenceStep.
using ReferenceRows = std::vector<std::vector<std::pair<uint32_t, double>>>;

inline ReferenceRows RowsOf(const social::TransitionMatrix& m) {
  ReferenceRows rows(m.rows());
  for (uint32_t r = 0; r < m.rows(); ++r) rows[r] = m.Row(r);
  return rows;
}

// A span's items as a vector, for EXPECT_EQ on lookups that return
// spans (std::span has no operator==).
template <typename T>
std::vector<T> AsVector(std::span<const T> items) {
  return std::vector<T>(items.begin(), items.end());
}

// Sum of row `r` of `m`, read through TransitionMatrix::Row().
inline double SumOfRow(const social::TransitionMatrix& m, uint32_t r) {
  double sum = 0.0;
  for (const auto& [col, w] : m.Row(r)) sum += w;
  return sum;
}

// One exploration step out = in · T as a plain dense loop over source
// rows in ascending order: a scalar oracle that shares no code with the
// engine's propagation kernels. Each output row accumulates its terms
// in ascending source-row order, the order the kernels promise, so the
// two agree bit for bit.
inline void ReferenceStep(const ReferenceRows& rows,
                          const std::vector<double>& in,
                          std::vector<double>& out) {
  out.assign(in.size(), 0.0);
  for (uint32_t r = 0; r < in.size(); ++r) {
    if (in[r] == 0.0) continue;
    for (const auto& [col, w] : rows[r]) out[col] += in[r] * w;
  }
}

// prox≤iters(seeker, ·) for every entity row: Cγ · Σ_{n≤iters}
// (δ_seeker · Tⁿ) / γⁿ, stepped with ReferenceStep. With the default
// depth γ^-iters ≈ 0, so this is the converged proximity.
inline std::vector<double> ConvergedProx(const core::S3Instance& inst,
                                         social::UserId seeker, double gamma,
                                         size_t iters = 120) {
  const ReferenceRows rows = RowsOf(inst.matrix());
  const size_t total = inst.layout().total();
  const double c_gamma = core::CGamma(gamma);
  std::vector<double> prox(total, 0.0), frontier(total, 0.0), next;
  const uint32_t seeker_row = inst.RowOfUser(seeker);
  prox[seeker_row] = c_gamma;
  frontier[seeker_row] = 1.0;
  for (size_t n = 1; n <= iters; ++n) {
    ReferenceStep(rows, frontier, next);
    frontier.swap(next);
    bool any = false;
    for (uint32_t r = 0; r < total; ++r) {
      if (frontier[r] == 0.0) continue;
      any = true;
      prox[r] += c_gamma * frontier[r] / std::pow(gamma, double(n));
    }
    if (!any) break;
  }
  return prox;
}

// Exact score of document `node` for `q` under `prox` (normally
// ConvergedProx): the node's candidate in its own component, built
// afresh with the query's extension. The engine reports truncated
// bounds, so returned intervals must bracket this value.
inline double ExactScore(const core::S3Instance& inst, const core::Query& q,
                         const core::S3kOptions& opts, doc::NodeId node,
                         const std::vector<double>& prox) {
  core::QueryExtension ext(q.keywords.size());
  for (size_t i = 0; i < q.keywords.size(); ++i) {
    if (opts.use_semantics) {
      for (KeywordId k : inst.ExtendKeyword(q.keywords[i])) ext[i].insert(k);
    } else {
      ext[i].insert(q.keywords[i]);
    }
  }
  core::ConnectionBuilder b(inst, opts.score.eta);
  auto cc =
      b.Build(inst.components().Of(social::EntityId::Fragment(node)), ext);
  for (const core::Candidate& c : cc.candidates) {
    if (c.node == node) return core::CandidateScore(c, prox);
  }
  return 0.0;
}

}  // namespace s3::testing

#endif  // S3_TESTS_TEST_FIXTURES_H_
