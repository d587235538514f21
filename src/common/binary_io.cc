#include "common/binary_io.h"

#include <zlib.h>

#include <algorithm>

namespace s3 {

uint32_t Crc32(const void* data, size_t size) {
  // zlib's crc32 is the same ISO-HDLC CRC; its length is a uInt, so
  // inputs past 4 GiB are fed in slices.
  const Bytef* p = static_cast<const Bytef*>(data);
  uLong crc = crc32(0L, Z_NULL, 0);
  while (size > 0) {
    const size_t n = std::min<size_t>(size, 1u << 30);
    crc = crc32(crc, p, static_cast<uInt>(n));
    p += n;
    size -= n;
  }
  return static_cast<uint32_t>(crc);
}

}  // namespace s3
