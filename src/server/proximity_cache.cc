#include "server/proximity_cache.h"

#include <algorithm>

namespace s3::server {

PlanCacheKey MakePlanKey(std::vector<KeywordId> keywords,
                         bool use_semantics, double eta,
                         uint64_t generation) {
  PlanCacheKey key;
  std::sort(keywords.begin(), keywords.end());
  key.keywords = std::move(keywords);
  key.use_semantics = use_semantics;
  key.eta = eta;
  key.generation = generation;
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
    const PlanCacheKey& key) {
  Shard& shard = ShardFor(key);
  std::shared_ptr<const core::CandidatePlan> out;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (auto* found = shard.lru.Get(key)) out = *found;
  }
  if (out != nullptr) {
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
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    // Purge floor, checked under the shard lock: a worker that missed
    // on generation g before a swap purged g may finish its build
    // afterwards — admitting the entry would strand an unreachable
    // plan in the LRU (and let it evict live ones) until the next
    // swap. The purge raises the floor *before* sweeping the shards,
    // so a lock-ordered insert either observes the raised floor here
    // or lands before the sweep and gets swept.
    if (key.generation <
        min_generation_.load(std::memory_order_acquire)) {
      return;
    }
    shard.lru.Put(key, std::move(plan));
  }
  insertions_.fetch_add(1, std::memory_order_relaxed);
}

size_t ProximityCache::PurgeGenerationsBelow(uint64_t current) {
  // Raise the insert floor first so a concurrent plan build racing
  // this purge cannot re-admit a stale entry after its shard was
  // swept.
  uint64_t floor = min_generation_.load(std::memory_order_relaxed);
  while (floor < current &&
         !min_generation_.compare_exchange_weak(
             floor, current, std::memory_order_acq_rel)) {
  }
  size_t purged = 0;
  std::vector<std::shared_ptr<const core::CandidatePlan>> stale;
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      purged += shard->lru.EraseIf(
          [current](const PlanCacheKey& key,
                    const std::shared_ptr<const core::CandidatePlan>&) {
            return key.generation < current;
          },
          &stale);
    }
    // Free the stale plans (their candidate indexes) after unlocking,
    // so a worker's Lookup on this shard does not wait for the frees.
    stale.clear();
  }
  purged_.fetch_add(purged, std::memory_order_relaxed);
  return purged;
}

ProximityCacheStats ProximityCache::Stats() const {
  ProximityCacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.insertions = insertions_.load(std::memory_order_relaxed);
  out.purged = purged_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    out.evictions += shard->lru.evictions();
    out.entries += shard->lru.size();
  }
  return out;
}

}  // namespace s3::server
