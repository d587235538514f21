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
// Generations: one entry per key, holding the newest plan built for
// it. A swap invalidates nothing by itself. The service
// (QueryService::ResolvePlan) compares the entry's generation with the
// snapshot a query is bound to: the same generation is a hit; an older
// one on the service's current chain of swaps is repaired
// (core::RepairCandidatePlan: only the passing components a delta
// touched are built again) and the repair replaces it, as a fresh
// build replaces an older plan from off that chain; a newer one —
// the query's worker is still on an old snapshot — is left alone while
// that query builds its own plan, uncached. Insert never lets an older
// generation displace a newer one, so a late build cannot roll an entry
// back. In-flight queries keep their plan alive through the shared_ptr
// even after replacement or eviction.
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
// shaping score parameters. The generation is not part of it: the
// entry's plan carries its own (CandidatePlan::generation).
struct PlanCacheKey {
  std::vector<KeywordId> keywords;  // sorted ascending
  bool use_semantics = true;
  double eta = 0.5;

  bool operator==(const PlanCacheKey& o) const {
    // eta compares by bit pattern, matching the hash below (floating
    // `==` would disagree with the hash on +0.0 vs -0.0 and on NaN,
    // violating the Hash/Eq contract the LRU map relies on).
    return use_semantics == o.use_semantics &&
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
    return static_cast<size_t>(h);
  }
};

// Canonicalizes a query keyword list into a cache key.
PlanCacheKey MakePlanKey(std::vector<KeywordId> keywords,
                         bool use_semantics, double eta);

// Monotonic counters, readable while the cache is in use. A lookup is
// a hit only when the entry's plan is of the generation asked for;
// every other lookup is a miss, whether the service then repairs the
// entry or builds a plan.
struct ProximityCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t repairs = 0;  // misses served by repairing an older plan
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

  // Returns the key's plan, of whatever generation, or nullptr. Counts
  // a hit when the plan was built on `generation`, else a miss.
  std::shared_ptr<const core::CandidatePlan> Lookup(const PlanCacheKey& key,
                                                    uint64_t generation);

  // Makes `plan` the key's entry unless the entry holds a newer
  // generation's plan; a new key may evict the shard's LRU entry.
  void Insert(const PlanCacheKey& key,
              std::shared_ptr<const core::CandidatePlan> plan);

  // Counts a miss that was served by repairing the entry's plan.
  void RecordRepair() { repairs_.fetch_add(1, std::memory_order_relaxed); }

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
  std::atomic<uint64_t> repairs_{0};
};

}  // namespace s3::server

#endif  // S3_SERVER_PROXIMITY_CACHE_H_
