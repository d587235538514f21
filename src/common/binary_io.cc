#include "common/binary_io.h"

#include <array>

namespace s3 {

namespace {

// Slice-by-8 tables for CRC-32 (ISO-HDLC), built once at first use.
// kTables[0] is the classic bytewise table; kTables[j][b] is the CRC of
// byte b followed by j zero bytes, so eight input bytes fold in with
// eight independent lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables BuildCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t j = 1; j < t.size(); ++j) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xffu];
    }
  }
  return t;
}

uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  static const CrcTables kT = BuildCrcTables();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; size -= 8, p += 8) {
    const uint32_t lo = crc ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = kT[7][lo & 0xffu] ^ kT[6][(lo >> 8) & 0xffu] ^
          kT[5][(lo >> 16) & 0xffu] ^ kT[4][lo >> 24] ^
          kT[3][hi & 0xffu] ^ kT[2][(hi >> 8) & 0xffu] ^
          kT[1][(hi >> 16) & 0xffu] ^ kT[0][hi >> 24];
  }
  for (; size > 0; --size, ++p) {
    crc = kT[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace s3
