// Read-only lists keyed by a dense id, stored flat (CSR): one offsets
// array and one item array, built by a single stable counting sort.
//
// This is the instance's replacement for hash maps keyed by user, node,
// tag, entity or row ids: a lookup is two array reads, a build is two
// linear passes, and a copy is two memcpys.
#ifndef S3_COMMON_FLAT_LISTS_H_
#define S3_COMMON_FLAT_LISTS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace s3 {

template <typename T>
class FlatLists {
 public:
  // Groups items by key. `each(emit)` must call emit(key, item) for
  // every item to index, in the same order on both of the two calls
  // Build makes (one to count, one to place); keys are < n_keys. Within
  // one key, items keep their emission order (the sort is stable).
  template <typename Each>
  void Build(size_t n_keys, Each&& each) {
    // offsets_[k + 2] counts key k; after the prefix sum offsets_[k + 1]
    // is k's start, and placement advances it to k's end, which is
    // k + 1's start — so the first n_keys + 1 entries are the offsets.
    offsets_.assign(n_keys + 2, 0);
    each([&](uint32_t key, const T&) { ++offsets_[key + 2]; });
    for (size_t k = 2; k < offsets_.size(); ++k) {
      offsets_[k] += offsets_[k - 1];
    }
    items_.resize(offsets_.back());
    each([&](uint32_t key, const T& item) {
      items_[offsets_[key + 1]++] = item;
    });
    offsets_.pop_back();
  }

  // The list of `key`; empty for a key without items or past the end.
  std::span<const T> operator[](size_t key) const {
    if (key + 1 >= offsets_.size()) return {};
    return {items_.data() + offsets_[key], items_.data() + offsets_[key + 1]};
  }

  size_t keys() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }

 private:
  std::vector<uint32_t> offsets_;
  std::vector<T> items_;
};

}  // namespace s3

#endif  // S3_COMMON_FLAT_LISTS_H_
