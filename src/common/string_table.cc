#include "common/string_table.h"

#include <functional>

namespace s3 {

size_t StringTable::Hash(std::string_view text, uint8_t tag) {
  return std::hash<std::string_view>{}(text) ^
         (static_cast<size_t>(tag) * 0x9e3779b97f4a7c15ULL);
}

uint32_t StringTable::Find(std::string_view text, uint8_t tag) const {
  if (slots_.empty()) return kNotFound;
  const size_t mask = slots_.size() - 1;
  for (size_t i = Hash(text, tag) & mask;; i = (i + 1) & mask) {
    const uint32_t id = slots_[i];
    if (id == kNotFound || Matches(id, text, tag)) return id;
  }
}

uint32_t StringTable::Intern(std::string_view text, uint8_t tag) {
  if (2 * (size() + 1) > slots_.size()) {
    Rehash(slots_.empty() ? 16 : 2 * slots_.size());
  }
  const size_t mask = slots_.size() - 1;
  size_t i = Hash(text, tag) & mask;
  for (; slots_[i] != kNotFound; i = (i + 1) & mask) {
    if (Matches(slots_[i], text, tag)) return slots_[i];
  }
  const uint32_t id = static_cast<uint32_t>(size());
  arena_.append(text);
  ends_.push_back(static_cast<uint32_t>(arena_.size()));
  tags_.push_back(tag);
  slots_[i] = id;
  return id;
}

void StringTable::Reserve(size_t n, size_t bytes) {
  arena_.reserve(arena_.size() + bytes);
  ends_.reserve(size() + n);
  tags_.reserve(size() + n);
  size_t slots = slots_.empty() ? 16 : slots_.size();
  while (2 * (size() + n) > slots) slots *= 2;
  if (slots != slots_.size()) Rehash(slots);
}

void StringTable::Rehash(size_t slots) {
  slots_.assign(slots, kNotFound);
  const size_t mask = slots - 1;
  for (uint32_t id = 0; id < size(); ++id) {
    size_t i = Hash(Text(id), tags_[id]) & mask;
    while (slots_[i] != kNotFound) i = (i + 1) & mask;
    slots_[i] = id;
  }
}

}  // namespace s3
