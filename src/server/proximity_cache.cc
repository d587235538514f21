#include "server/proximity_cache.h"

#include <algorithm>
#include <utility>

namespace s3::server {

PlanCacheKey MakePlanKey(std::vector<KeywordId> keywords,
                         bool use_semantics, double eta) {
  PlanCacheKey key;
  std::sort(keywords.begin(), keywords.end());
  key.keywords = std::move(keywords);
  key.use_semantics = use_semantics;
  key.eta = eta;
  return key;
}

ProximityCache::ProximityCache(size_t shards, size_t capacity_per_shard) {
  if (shards < 1) shards = 1;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(capacity_per_shard));
  }
}

std::shared_ptr<const core::CandidatePlan> ProximityCache::Lookup(
    const PlanCacheKey& key, uint64_t generation) {
  Shard& shard = ShardFor(key);
  std::shared_ptr<const core::CandidatePlan> out;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (auto* found = shard.lru.Get(key)) out = *found;
  }
  if (out != nullptr && out->generation == generation) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  return out;
}

void ProximityCache::Insert(
    const PlanCacheKey& key,
    std::shared_ptr<const core::CandidatePlan> plan) {
  Shard& shard = ShardFor(key);
  // The plan an insert displaces is freed after unlocking, so a
  // worker's Lookup on this shard does not wait for the frees.
  std::shared_ptr<const core::CandidatePlan> displaced;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (auto* held = shard.lru.Get(key)) {
      // Checked under the shard lock: a worker still on an older
      // snapshot may finish its build after a newer plan landed.
      if ((*held)->generation > plan->generation) return;
      displaced = std::exchange(*held, std::move(plan));
    } else {
      shard.lru.Put(key, std::move(plan));
    }
  }
  insertions_.fetch_add(1, std::memory_order_relaxed);
}

ProximityCacheStats ProximityCache::Stats() const {
  ProximityCacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.insertions = insertions_.load(std::memory_order_relaxed);
  out.repairs = repairs_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    out.evictions += shard->lru.evictions();
    out.entries += shard->lru.size();
  }
  return out;
}

}  // namespace s3::server
