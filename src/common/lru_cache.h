// Capacity-bounded LRU map: the building block under the sharded
// proximity cache (server/proximity_cache.h).
//
// Intrusive recency list (std::list, front = most recent) plus an
// unordered_map from key to list iterator, so Get / Put / eviction are
// all O(1) expected. Not thread-safe by design — the cache shards wrap
// one LruCache each behind their own mutex, which keeps this class
// trivially testable and the locking visible at the call site.
#ifndef S3_COMMON_LRU_CACHE_H_
#define S3_COMMON_LRU_CACHE_H_

#include <cstddef>
#include <list>
#include <unordered_map>
#include <utility>

namespace s3 {

template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache {
 public:
  // Capacity must be at least 1 (a zero-capacity cache would make
  // every Put an immediate self-eviction).
  explicit LruCache(size_t capacity)
      : capacity_(capacity < 1 ? 1 : capacity) {}

  // Looks up `key`, marking it most-recently used. Returns nullptr on
  // miss. The pointer is invalidated by the next Put.
  V* Get(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    items_.splice(items_.begin(), items_, it->second);
    return &it->second->second;
  }

  // Peek without touching recency (for tests and stats).
  const V* Peek(const K& key) const {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->second;
  }

  // Inserts or overwrites `key`, marking it most-recently used and
  // evicting the least-recently-used entry when over capacity.
  void Put(K key, V value) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      items_.splice(items_.begin(), items_, it->second);
      return;
    }
    items_.emplace_front(std::move(key), std::move(value));
    index_.emplace(items_.front().first, items_.begin());
    if (items_.size() > capacity_) {
      index_.erase(items_.back().first);
      items_.pop_back();
      ++evictions_;
    }
  }

  bool Contains(const K& key) const { return index_.count(key) != 0; }

  size_t size() const { return items_.size(); }
  size_t capacity() const { return capacity_; }
  size_t evictions() const { return evictions_; }

  void Clear() {
    items_.clear();
    index_.clear();
  }

 private:
  const size_t capacity_;
  std::list<std::pair<K, V>> items_;  // front = most recently used
  std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator,
                     Hash>
      index_;
  size_t evictions_ = 0;
};

}  // namespace s3

#endif  // S3_COMMON_LRU_CACHE_H_
