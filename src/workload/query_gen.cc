#include "workload/query_gen.h"

#include <algorithm>
#include <unordered_set>

#include "common/rng.h"

namespace s3::workload {

std::string WorkloadLabel(const WorkloadSpec& spec) {
  std::string out = spec.freq == Frequency::kCommon ? "+" : "-";
  out += "," + std::to_string(spec.n_keywords);
  out += "," + std::to_string(spec.k);
  return out;
}

QuerySet BuildWorkload(const core::S3Instance& instance,
                       const std::vector<KeywordId>& anchors,
                       const WorkloadSpec& spec) {
  Rng rng(spec.seed);
  QuerySet out;
  out.label = WorkloadLabel(spec);
  out.k = spec.k;

  // Rank indexed keywords by document frequency.
  std::vector<std::pair<size_t, KeywordId>> by_df;
  for (KeywordId k : instance.index().Keywords()) {
    by_df.emplace_back(instance.index().DocumentFrequency(k), k);
  }
  std::sort(by_df.begin(), by_df.end());
  if (by_df.empty()) return out;

  // Frequency buckets: bottom / top quartile.
  size_t quarter = std::max<size_t>(1, by_df.size() / 4);
  size_t lo_begin = 0, lo_end = quarter;
  size_t hi_begin = by_df.size() - quarter, hi_end = by_df.size();
  size_t begin = spec.freq == Frequency::kRare ? lo_begin : hi_begin;
  size_t end = spec.freq == Frequency::kRare ? lo_end : hi_end;

  // For multi-keyword queries the extra keywords are drawn from the
  // component of the first keyword's first match, so that conjunctive
  // queries have answers — the realistic "topical phrase" shape.
  auto component_keywords = [&](KeywordId seed_kw) {
    std::vector<KeywordId> pool;
    const auto& postings = instance.index().Postings(seed_kw);
    if (postings.empty()) return pool;
    doc::NodeId node = postings[rng.Uniform(postings.size())];
    social::ComponentId comp =
        instance.components().Of(social::EntityId::Fragment(node));
    for (uint32_t row : instance.components().Members(comp)) {
      social::EntityId e = instance.layout().Entity(row);
      if (e.kind() != social::EntityKind::kFragment) continue;
      const auto kws = instance.docs().Keywords(e.index());
      pool.insert(pool.end(), kws.begin(), kws.end());
    }
    std::sort(pool.begin(), pool.end());
    pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
    return pool;
  };

  for (size_t q = 0; q < spec.n_queries; ++q) {
    core::Query query;
    query.seeker =
        static_cast<social::UserId>(rng.Uniform(instance.UserCount()));
    // First keyword: frequency bucket or semantic anchor.
    KeywordId first;
    if (!anchors.empty() && rng.Chance(spec.anchor_prob)) {
      first = anchors[rng.Uniform(anchors.size())];
    } else {
      first = by_df[begin + rng.Uniform(end - begin)].second;
    }
    query.keywords.push_back(first);

    if (spec.n_keywords > 1) {
      // Anchors have no postings; use a member of their extension to
      // locate a component.
      KeywordId seed = first;
      if (instance.index().Postings(seed).empty()) {
        for (KeywordId k : instance.ExtendKeyword(first)) {
          if (!instance.index().Postings(k).empty()) {
            seed = k;
            break;
          }
        }
      }
      std::vector<KeywordId> pool = component_keywords(seed);
      // Prefer pool members that fall in the frequency bucket: common
      // co-occurring words keep multi-keyword queries selective but
      // not degenerate (they still match several components).
      std::vector<KeywordId> preferred;
      {
        std::unordered_set<KeywordId> bucket;
        for (size_t i = begin; i < end; ++i) bucket.insert(by_df[i].second);
        for (KeywordId k : pool) {
          if (bucket.contains(k)) preferred.push_back(k);
        }
      }
      if (preferred.size() >= spec.n_keywords - 1) pool = preferred;
      size_t attempts = 0;
      while (query.keywords.size() < spec.n_keywords &&
             attempts++ < 200) {
        KeywordId k = pool.empty()
                          ? by_df[begin + rng.Uniform(end - begin)].second
                          : pool[rng.Uniform(pool.size())];
        if (std::find(query.keywords.begin(), query.keywords.end(), k) ==
            query.keywords.end()) {
          query.keywords.push_back(k);
        }
      }
      // Degenerate pools: pad from the bucket.
      while (query.keywords.size() < spec.n_keywords) {
        KeywordId k = by_df[begin + rng.Uniform(end - begin)].second;
        if (std::find(query.keywords.begin(), query.keywords.end(), k) ==
            query.keywords.end()) {
          query.keywords.push_back(k);
        }
      }
    }
    out.queries.push_back(std::move(query));
  }
  return out;
}

}  // namespace s3::workload
