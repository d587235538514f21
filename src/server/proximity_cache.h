// Sharded LRU cache of candidate plans — the cross-query reuse layer.
//
// A CandidatePlan (core/s3k.h) is the seeker-independent half of a
// query: semantic extension, passing components, and the candidate
// index over their candidates (reverse source index, neighbor pairs,
// slot caps). For one snapshot generation it depends only on the
// keyword multiset and the (use_semantics, eta) score parameters, so
// any two queries over the same keywords — the dominant case in the
// paper's I1/I2 workloads, whose common-keyword mixes repeat a small
// hot set — can share one plan and skip extension, component
// filtering, ConnectionBuilder work and the index build entirely; only
// the per-query bound state and the seeker's exploration remain.
//
// Keying / canonicalization: keywords are sorted before keying. The
// score is a product over query keywords, so a plan built from the
// sorted list answers any permutation of the same multiset.
//
// Invalidation: by generation tag, never by global flush. Every key
// carries the generation of the snapshot its plan was built over; a
// SwapSnapshot bumps the generation the service looks up with, so
// stale plans simply stop matching (and in-flight queries on the old
// snapshot keep hitting theirs). PurgeGenerationsBelow reclaims the
// stale entries' memory eagerly, freeing them outside the shard locks;
// LRU eviction would age them out anyway. In-flight queries keep their
// plan alive through the shared_ptr even after eviction or purge.
//
// Sharding: the key hash picks a shard; each shard is an independently
// locked LruCache, so concurrent workers only contend when their keys
// collide on a shard — not on one global mutex.
#ifndef S3_SERVER_PROXIMITY_CACHE_H_
#define S3_SERVER_PROXIMITY_CACHE_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/lru_cache.h"
#include "core/s3k.h"

namespace s3::server {

// Cache key: canonicalized (sorted) keyword multiset plus the plan-
// shaping score parameters and the snapshot generation the plan was
// built over (a plan's source rows and component ids are meaningless
// against any other generation).
struct PlanCacheKey {
  std::vector<KeywordId> keywords;  // sorted ascending
  bool use_semantics = true;
  double eta = 0.5;
  uint64_t generation = 0;

  bool operator==(const PlanCacheKey& o) const {
    // eta compares by bit pattern, matching the hash below (floating
    // `==` would disagree with the hash on +0.0 vs -0.0 and on NaN,
    // violating the Hash/Eq contract the LRU map relies on).
    return use_semantics == o.use_semantics &&
           generation == o.generation &&
           std::bit_cast<uint64_t>(eta) == std::bit_cast<uint64_t>(o.eta) &&
           keywords == o.keywords;
  }
};

struct PlanCacheKeyHash {
  size_t operator()(const PlanCacheKey& key) const {
    // FNV-1a over the keyword ids and parameters.
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    for (KeywordId k : key.keywords) mix(k);
    mix(key.use_semantics ? 1 : 0);
    mix(std::bit_cast<uint64_t>(key.eta));
    mix(key.generation);
    return static_cast<size_t>(h);
  }
};

// Canonicalizes a query keyword list into a cache key. The generation
// is deliberately not defaulted: it is load-bearing for invalidation,
// and a caller that silently pinned generation 0 would be serving
// stale plans after the first swap.
PlanCacheKey MakePlanKey(std::vector<KeywordId> keywords,
                         bool use_semantics, double eta,
                         uint64_t generation);

// Monotonic counters, readable while the cache is in use.
struct ProximityCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t purged = 0;  // stale-generation entries reclaimed
  size_t entries = 0;

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

class ProximityCache {
 public:
  // `shards` independently locked LRU shards of `capacity_per_shard`
  // plans each (both clamped to >= 1).
  ProximityCache(size_t shards, size_t capacity_per_shard);

  ProximityCache(const ProximityCache&) = delete;
  ProximityCache& operator=(const ProximityCache&) = delete;

  // Returns the cached plan or nullptr; counts a hit/miss.
  std::shared_ptr<const core::CandidatePlan> Lookup(const PlanCacheKey& key);

  // Inserts (or refreshes) a plan, evicting the shard's LRU entry when
  // over capacity.
  void Insert(const PlanCacheKey& key,
              std::shared_ptr<const core::CandidatePlan> plan);

  // Drops every entry whose generation is below `current` (snapshot
  // generations only grow, so those can never be looked up again), and
  // raises the insert floor so a racing plan build from an already-
  // purged generation cannot re-admit a stale entry afterwards.
  // Returns the number reclaimed. Current-generation entries — and the
  // plans in-flight queries still hold — are untouched: this is a
  // targeted purge, not a flush.
  size_t PurgeGenerationsBelow(uint64_t current);

  ProximityCacheStats Stats() const;

  size_t shard_count() const { return shards_.size(); }

 private:
  struct Shard {
    std::mutex mutex;
    LruCache<PlanCacheKey, std::shared_ptr<const core::CandidatePlan>,
             PlanCacheKeyHash>
        lru;

    explicit Shard(size_t capacity) : lru(capacity) {}
  };

  Shard& ShardFor(const PlanCacheKey& key) {
    return *shards_[PlanCacheKeyHash{}(key) % shards_.size()];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> purged_{0};
  // Insert floor set by PurgeGenerationsBelow; inserts below it are
  // dropped (their generation can never be looked up again).
  std::atomic<uint64_t> min_generation_{0};
};

}  // namespace s3::server

#endif  // S3_SERVER_PROXIMITY_CACHE_H_
