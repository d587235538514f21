#include "core/score.h"

#include <algorithm>

namespace s3::core {

double CandidateScore(const Candidate& cand,
                      const std::vector<double>& prox) {
  double score = 1.0;
  for (const auto& per_keyword : cand.sources) {
    double sum = 0.0;
    for (const auto& [src, w] : per_keyword) {
      sum += static_cast<double>(w) * prox[src];
    }
    score *= sum;
  }
  return score;
}

double CandidateLowerBound(const Candidate& cand,
                           const std::vector<double>& all_prox) {
  return CandidateScore(cand, all_prox);
}

double TailCoefficient(const std::vector<std::pair<uint32_t, float>>& sources,
                       const std::vector<double>& column_max) {
  TailAccumulator acc;
  for (const auto& [src, w] : sources) acc.Add(src, w, column_max[src]);
  return acc.Coefficient();
}

double CandidateUpperBound(const Candidate& cand,
                           const std::vector<double>& all_prox,
                           const std::vector<double>& column_max,
                           double tail) {
  double score = 1.0;
  for (const auto& per_keyword : cand.sources) {
    double sum = 0.0;
    double w_total = 0.0;
    for (const auto& [src, w] : per_keyword) {
      sum += static_cast<double>(w) * all_prox[src];
      w_total += static_cast<double>(w);
    }
    score *= KeywordUpperBound(sum, w_total,
                               TailCoefficient(per_keyword, column_max),
                               tail);
  }
  return score;
}

}  // namespace s3::core
