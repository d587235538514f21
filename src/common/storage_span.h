// View-or-owned backing for derived read-path arrays.
//
// Every large structure S3Instance::AttachDerived adopts — CSR row
// pointers, columns and values, the component union-find forest — is read
// element-wise on the query hot path but only ever *replaced
// wholesale* when state changes (Build, IncrementalUpdate and
// AdoptForest all construct fresh arrays and swap them in; no code
// mutates an adopted array in place). StorageSpan<T> exploits that
// contract: it exposes a vector-shaped read API over either
//
//   owned  — a std::vector<T> it holds (heap attach, and every array a
//            Build/IncrementalUpdate produces), or
//   view   — a borrowed pointer+length into an mmap'd snapshot
//            section, pinned by a shared_ptr<const MappedRegion> so
//            the mapping outlives every reader.
//
// Reads are branch-free: data_/size_ are kept pointing at whichever
// backing is active, so operator[] costs the same as on a raw vector.
// Copying an owned span deep-copies the vector; copying a view is O(1)
// and shares the pin. A delta generation does not copy its base's
// matrix: IncrementalUpdate reads the base's spans (owned or mapped)
// and builds owned output. Nothing ever writes through a view.
#ifndef S3_COMMON_STORAGE_SPAN_H_
#define S3_COMMON_STORAGE_SPAN_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/mmap_file.h"

namespace s3 {

template <typename T>
class StorageSpan {
 public:
  StorageSpan() = default;

  // Owned backing (implicit: every Build-path `span = std::move(vec)`).
  StorageSpan(std::vector<T> v) : owned_(std::move(v)) { SyncOwned(); }

  // View backing over `size` elements at `data`, which must lie inside
  // `pin`'s byte range and stay valid for the pin's lifetime.
  static StorageSpan View(const T* data, size_t size,
                          std::shared_ptr<const MappedRegion> pin) {
    StorageSpan s;
    s.pin_ = std::move(pin);
    s.data_ = data;
    s.size_ = size;
    return s;
  }

  StorageSpan(const StorageSpan& other)
      : owned_(other.owned_), pin_(other.pin_) {
    if (pin_) {
      data_ = other.data_;
      size_ = other.size_;
    } else {
      SyncOwned();
    }
  }
  StorageSpan(StorageSpan&& other) noexcept { *this = std::move(other); }
  StorageSpan& operator=(const StorageSpan& other) {
    if (this != &other) *this = StorageSpan(other);
    return *this;
  }
  StorageSpan& operator=(StorageSpan&& other) noexcept {
    owned_ = std::move(other.owned_);
    pin_ = std::move(other.pin_);
    if (pin_) {
      data_ = other.data_;
      size_ = other.size_;
    } else {
      SyncOwned();
    }
    other.pin_.reset();
    other.owned_.clear();
    other.SyncOwned();
    return *this;
  }
  StorageSpan& operator=(std::vector<T> v) {
    pin_.reset();
    owned_ = std::move(v);
    SyncOwned();
    return *this;
  }

  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  const T& back() const { return data_[size_ - 1]; }

  bool is_view() const { return pin_ != nullptr; }

  // Materialized owned copy (view contents included) — for code that
  // needs a mutable continuation of the current contents.
  std::vector<T> ToVector() const { return std::vector<T>(begin(), end()); }

  void clear() {
    pin_.reset();
    owned_.clear();
    owned_.shrink_to_fit();
    SyncOwned();
  }

 private:
  void SyncOwned() {
    data_ = owned_.data();
    size_ = owned_.size();
  }

  const T* data_ = nullptr;
  size_t size_ = 0;
  std::vector<T> owned_;
  std::shared_ptr<const MappedRegion> pin_;
};

}  // namespace s3

#endif  // S3_COMMON_STORAGE_SPAN_H_
