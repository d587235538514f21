#include "core/naive_reference.h"

#include <algorithm>
#include <cmath>
#include <queue>

namespace s3::core {

using social::EntityId;
using social::EntityKind;

namespace {

// DFS over explicit paths. `entered` is the node the path entered; the
// next edge may leave any vertical neighbor, normalized by D(entered).
// `adj` indexes every out-edge of the instance's edge log.
void EnumeratePaths(const S3Instance& inst, const social::OutAdjacency& adj,
                    uint32_t entered_row, double product, size_t remaining,
                    double gamma, double c_gamma, size_t depth,
                    std::vector<double>& acc) {
  if (remaining == 0) return;
  const auto& edges = inst.edges();
  const auto& layout = inst.layout();
  EntityId entered = layout.Entity(entered_row);

  // Collect the outgoing edges of neigh(entered) ∪ {entered} and the
  // normalization denominator.
  std::vector<uint32_t> out_edges(adj[entered_row].begin(),
                                  adj[entered_row].end());
  double denom = social::OutWeight(edges, adj[entered_row]);
  if (entered.kind() == EntityKind::kFragment) {
    for (doc::NodeId v : inst.docs().VerticalNeighbors(entered.index())) {
      const auto oe = adj[layout.Row(EntityId::Fragment(v))];
      denom += social::OutWeight(edges, oe);
      out_edges.insert(out_edges.end(), oe.begin(), oe.end());
    }
  }
  if (denom <= 0.0) return;

  for (uint32_t eidx : out_edges) {
    const social::NetEdge& e = edges.edge(eidx);
    const double nw = e.weight / denom;
    const uint32_t target_row = layout.Row(e.target);
    const double p = product * nw;
    acc[target_row] +=
        c_gamma * p / std::pow(gamma, static_cast<double>(depth + 1));
    EnumeratePaths(inst, adj, target_row, p, remaining - 1, gamma, c_gamma,
                   depth + 1, acc);
  }
}

}  // namespace

std::vector<double> NaiveProx(const S3Instance& instance,
                              social::UserId seeker, size_t max_len,
                              double gamma) {
  const double c_gamma = CGamma(gamma);
  std::vector<double> acc(instance.layout().total(), 0.0);
  const uint32_t seeker_row = instance.RowOfUser(seeker);
  acc[seeker_row] += c_gamma;  // the empty path
  const social::OutAdjacency adj =
      social::IndexOutEdges(instance.layout(), instance.edges());
  EnumeratePaths(instance, adj, seeker_row, 1.0, max_len, gamma, c_gamma, 0,
                 acc);
  return acc;
}

std::vector<double> NaiveBestPathProx(const S3Instance& instance,
                                      social::UserId seeker, size_t max_len,
                                      double gamma) {
  const double c_gamma = CGamma(gamma);
  const auto& matrix = instance.matrix();
  const uint32_t total = instance.layout().total();
  // Max-product Dijkstra over T entries, each step damped by 1/γ.
  std::vector<double> best(total, 0.0);
  std::vector<size_t> hops(total, 0);
  using Item = std::pair<double, uint32_t>;
  std::priority_queue<Item> pq;
  const uint32_t seeker_row = instance.RowOfUser(seeker);
  best[seeker_row] = 1.0;
  pq.push({1.0, seeker_row});
  while (!pq.empty()) {
    auto [p, row] = pq.top();
    pq.pop();
    if (p < best[row]) continue;
    if (hops[row] >= max_len) continue;
    for (const auto& [col, w] : matrix.Row(row)) {
      double np = p * w / gamma;
      if (np > best[col]) {
        best[col] = np;
        hops[col] = hops[row] + 1;
        pq.push({np, col});
      }
    }
  }
  std::vector<double> prox(total, 0.0);
  for (uint32_t row = 0; row < total; ++row) {
    if (row == seeker_row) {
      prox[row] = c_gamma;  // the empty path is the best path
    } else if (best[row] > 0.0) {
      prox[row] = c_gamma * best[row];
    }
  }
  return prox;
}

std::vector<ResultEntry> NaiveSearchWithProx(
    const S3Instance& instance, const Query& query,
    const S3kOptions& options, const std::vector<double>& prox) {
  // Semantic extension.
  QueryExtension ext(query.keywords.size());
  for (size_t i = 0; i < query.keywords.size(); ++i) {
    if (options.use_semantics) {
      for (KeywordId k : instance.ExtendKeyword(query.keywords[i])) {
        ext[i].insert(k);
      }
    } else {
      ext[i].insert(query.keywords[i]);
    }
  }

  // Score every candidate of every component.
  ConnectionBuilder builder(instance, options.score.eta);
  struct Scored {
    doc::NodeId node;
    double score;
  };
  std::vector<Scored> scored;
  for (social::ComponentId c = 0;
       c < instance.components().ComponentCount(); ++c) {
    ComponentCandidates cc = builder.Build(c, ext);
    for (const Candidate& cand : cc.candidates) {
      double s = CandidateScore(cand, prox);
      if (s > 0.0) scored.push_back(Scored{cand.node, s});
    }
  }
  std::sort(scored.begin(), scored.end(), [](const Scored& a,
                                             const Scored& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.node < b.node;
  });

  // Greedy top-k with the vertical-neighbor exclusion (Def. 3.2).
  std::vector<ResultEntry> out;
  for (const Scored& s : scored) {
    bool conflict = false;
    for (const ResultEntry& r : out) {
      if (instance.docs().AreVerticalNeighbors(s.node, r.node)) {
        conflict = true;
        break;
      }
    }
    if (conflict) continue;
    out.push_back(ResultEntry{s.node, s.score, s.score});
    if (out.size() == options.k) break;
  }
  return out;
}

std::vector<ResultEntry> NaiveSearch(const S3Instance& instance,
                                     const Query& query,
                                     const S3kOptions& options,
                                     size_t max_len) {
  std::vector<double> prox =
      NaiveProx(instance, query.seeker, max_len, options.score.gamma);
  return NaiveSearchWithProx(instance, query, options, prox);
}

}  // namespace s3::core
