// Unified identifier space for the vertices of the S3 network graph:
// users (Ω), document fragments (D) and tags (T). Social paths (paper
// §2.5) run over exactly these three populations.
#ifndef S3_SOCIAL_ENTITY_H_
#define S3_SOCIAL_ENTITY_H_

#include <cstdint>
#include <functional>
#include <string>

namespace s3::social {

using UserId = uint32_t;
using TagId = uint32_t;

enum class EntityKind : uint8_t { kUser = 0, kFragment = 1, kTag = 2 };

// Packed (kind, index) pair. Index is bounded by 2^30.
class EntityId {
 public:
  EntityId() : packed_(UINT32_MAX) {}
  EntityId(EntityKind kind, uint32_t index)
      : packed_((static_cast<uint32_t>(kind) << 30) | index) {}

  static EntityId User(UserId u) { return EntityId(EntityKind::kUser, u); }
  // Inverse of packed() — the storage layer's serialized form. The
  // caller must validate the kind bits (packed >> 30 == 3 names no
  // entity kind) before trusting the result; see EntityId::ValidKind.
  static EntityId FromPacked(uint32_t packed) {
    EntityId e;
    e.packed_ = packed;
    return e;
  }
  static bool ValidKind(uint32_t packed) { return (packed >> 30) <= 2; }
  static EntityId Fragment(uint32_t node) {
    return EntityId(EntityKind::kFragment, node);
  }
  static EntityId Tag(TagId t) { return EntityId(EntityKind::kTag, t); }

  bool valid() const { return packed_ != UINT32_MAX; }
  EntityKind kind() const {
    return static_cast<EntityKind>(packed_ >> 30);
  }
  uint32_t index() const { return packed_ & 0x3fffffffu; }
  uint32_t packed() const { return packed_; }

  bool operator==(const EntityId& o) const { return packed_ == o.packed_; }
  bool operator!=(const EntityId& o) const { return packed_ != o.packed_; }
  bool operator<(const EntityId& o) const { return packed_ < o.packed_; }

  std::string ToString() const;

 private:
  uint32_t packed_;
};

// Maps entities to a dense row space [0, total): users first, then
// fragments, then tags. Used by the transition matrix and the allProx /
// borderProx vectors.
class EntityLayout {
 public:
  EntityLayout(uint32_t n_users, uint32_t n_fragments, uint32_t n_tags)
      : n_users_(n_users), n_fragments_(n_fragments), n_tags_(n_tags) {}

  uint32_t total() const { return n_users_ + n_fragments_ + n_tags_; }
  uint32_t n_users() const { return n_users_; }
  uint32_t n_fragments() const { return n_fragments_; }
  uint32_t n_tags() const { return n_tags_; }

  uint32_t Row(EntityId e) const {
    switch (e.kind()) {
      case EntityKind::kUser:
        return e.index();
      case EntityKind::kFragment:
        return n_users_ + e.index();
      case EntityKind::kTag:
        return n_users_ + n_fragments_ + e.index();
    }
    return UINT32_MAX;
  }

  EntityId Entity(uint32_t row) const {
    if (row < n_users_) return EntityId::User(row);
    if (row < n_users_ + n_fragments_) {
      return EntityId::Fragment(row - n_users_);
    }
    return EntityId::Tag(row - n_users_ - n_fragments_);
  }

 private:
  uint32_t n_users_;
  uint32_t n_fragments_;
  uint32_t n_tags_;
};

}  // namespace s3::social

#endif  // S3_SOCIAL_ENTITY_H_
