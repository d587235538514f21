// Read-only lists keyed by a dense id, stored flat (CSR): one offsets
// array and one item array, built by a single stable counting sort.
//
// This is the instance's replacement for hash maps keyed by user, node,
// tag, entity, row or keyword ids: a lookup is two array reads, a build
// is two linear passes, and a copy is two memcpys. A successor
// generation splices its new items onto its base's lists (Splice), and
// a snapshot decoder hands over lists it has already laid out (Assign).
#ifndef S3_COMMON_FLAT_LISTS_H_
#define S3_COMMON_FLAT_LISTS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
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

  // Rebuilds as `base`'s lists with new items appended: key k's list is
  // base[k], each item passed through `map`, then the items `each(emit)`
  // emits for k, in emission order (Build's contract). One pass over
  // `base` and two over the new items. n_keys >= base.keys(), and
  // `base` is not this.
  template <typename Each, typename Map>
  void Splice(const FlatLists& base, size_t n_keys, Each&& each, Map&& map) {
    offsets_.assign(n_keys + 2, 0);
    each([&](uint32_t key, const T&) { ++offsets_[key + 2]; });
    for (size_t k = 0; k < base.keys(); ++k) {
      offsets_[k + 2] += base.offsets_[k + 1] - base.offsets_[k];
    }
    for (size_t k = 2; k < offsets_.size(); ++k) {
      offsets_[k] += offsets_[k - 1];
    }
    items_.resize(offsets_.back());
    for (size_t k = 0; k < base.keys(); ++k) {
      for (const T& item : base[k]) items_[offsets_[k + 1]++] = map(item);
    }
    each([&](uint32_t key, const T& item) {
      items_[offsets_[key + 1]++] = item;
    });
    offsets_.pop_back();
  }
  template <typename Each>
  void Splice(const FlatLists& base, size_t n_keys, Each&& each) {
    Splice(base, n_keys, each, [](const T& item) { return item; });
  }

  // Sorts every list and drops repeated items within it, compacting the
  // item array in one pass. Lists already strictly ascending are only
  // scanned.
  void SortUnique() {
    uint32_t out = 0;
    for (size_t k = 0; k + 1 < offsets_.size(); ++k) {
      T* first = items_.data() + offsets_[k];
      T* last = items_.data() + offsets_[k + 1];
      if (std::adjacent_find(first, last, std::greater_equal<T>()) != last) {
        std::sort(first, last);
        last = std::unique(first, last);
      }
      offsets_[k] = out;
      out = static_cast<uint32_t>(
          std::move(first, last, items_.data() + out) - items_.data());
    }
    if (!offsets_.empty()) offsets_.back() = out;
    items_.resize(out);
  }

  // Adopts decoded lists: offsets has keys + 1 entries, starts at 0,
  // never decreases and ends at items.size() (the caller checked).
  void Assign(std::vector<uint32_t> offsets, std::vector<T> items) {
    offsets_ = std::move(offsets);
    items_ = std::move(items);
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
