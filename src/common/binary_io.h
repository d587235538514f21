// Little-endian binary encoding primitives shared by the storage
// layer: the versioned binary snapshot codec (core/snapshot_binary),
// the delta WAL records (core/instance_delta) and the s3_snapshot
// inspector tool.
//
// ByteWriter appends fixed-width integers, IEEE doubles and
// length-prefixed strings to a caller-owned std::string. ByteReader is
// the bounds-checked inverse: every read is validated against the
// remaining input and failures latch (subsequent reads return zero
// values), so parsing code stays linear and checks `ok()` once per
// section instead of per field. Corrupt lengths can therefore never
// read out of bounds — and callers must still gate large
// count-driven allocations with FitsCount() so a flipped length byte
// cannot request gigabytes before the latch is consulted.
#ifndef S3_COMMON_BINARY_IO_H_
#define S3_COMMON_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace s3 {

// CRC-32 (ISO-HDLC, reflected polynomial 0xEDB88320; zlib's crc32) —
// the framing checksum of snapshot sections and WAL records.
uint32_t Crc32(const void* data, size_t size);
inline uint32_t Crc32(std::string_view bytes) {
  return Crc32(bytes.data(), bytes.size());
}

// Append-only little-endian sink over a caller-owned string.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { AppendLe(v); }
  void U64(uint64_t v) { AppendLe(v); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    AppendLe(bits);
  }
  // u32 byte length followed by the raw bytes.
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out_->append(s.data(), s.size());
  }
  // Unsigned LEB128: 7 value bits per byte, high bit = continuation.
  // Small values (the common case for ids, counts and deltas) take one
  // byte — the compact-section workhorse of snapshot format v2.
  void Var(uint64_t v) {
    while (v >= 0x80) {
      U8(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    U8(static_cast<uint8_t>(v));
  }
  // Varint byte length followed by the raw bytes (v2 string framing).
  void VarStr(std::string_view s) {
    Var(s.size());
    out_->append(s.data(), s.size());
  }

  size_t size() const { return out_->size(); }

 private:
  template <typename T>
  void AppendLe(T v) {
    char buf[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    out_->append(buf, sizeof(T));
  }

  std::string* out_;
};

// Bounds-checked little-endian reader with a failure latch: reading
// past the end (or a string whose length exceeds the remaining input)
// sets failed() and yields zero values from then on. Callers parse a
// whole section linearly and convert `!ok()` into one InvalidArgument
// via status().
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  uint8_t U8() { return ReadLe<uint8_t>(); }
  uint32_t U32() { return ReadLe<uint32_t>(); }
  uint64_t U64() { return ReadLe<uint64_t>(); }
  double F64() {
    uint64_t bits = ReadLe<uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  // Inverse of ByteWriter::Var. Rejects non-canonical encodings longer
  // than 10 bytes and 64-bit overflow (both latch the failure), so a
  // flipped continuation bit can never spin past the section end.
  uint64_t Var() {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      uint8_t b = U8();
      if (failed_) return 0;
      if (shift == 63 && (b & 0xfe) != 0) {  // would overflow 64 bits
        failed_ = true;
        return 0;
      }
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
    }
    failed_ = true;
    return 0;
  }

  // Inverse of ByteWriter::VarStr.
  std::string VarStr() { return std::string(VarStrView()); }

  // VarStr without the copy: a view into the input.
  std::string_view VarStrView() {
    uint64_t len = Var();
    if (failed_ || len > remaining()) {
      failed_ = true;
      return std::string_view();
    }
    std::string_view out = data_.substr(pos_, static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return out;
  }

  // Inverse of ByteWriter::Str.
  std::string Str() {
    uint32_t len = U32();
    if (failed_ || len > remaining()) {
      failed_ = true;
      return std::string();
    }
    std::string out(data_.substr(pos_, len));
    pos_ += len;
    return out;
  }

  // Raw byte view without copying (used for nested frames).
  std::string_view Bytes(size_t n) {
    if (failed_ || n > remaining()) {
      failed_ = true;
      return std::string_view();
    }
    std::string_view out = data_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  void Skip(size_t n) { (void)Bytes(n); }

  // True iff `count` elements of at least `min_elem_bytes` each can
  // still be present in the remaining input. Gate every
  // count-driven reserve/resize with this so corrupt counts fail fast
  // instead of allocating.
  bool FitsCount(uint64_t count, size_t min_elem_bytes) const {
    if (failed_) return false;
    if (min_elem_bytes == 0) min_elem_bytes = 1;
    return count <= remaining() / min_elem_bytes;
  }

  bool ok() const { return !failed_; }
  bool failed() const { return failed_; }
  // Marks the input malformed (semantic validation failures share the
  // latch with framing failures).
  void Fail() { failed_ = true; }

  size_t offset() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return !failed_ && pos_ == data_.size(); }

  // InvalidArgument naming the failure offset, or OK while !failed().
  Status status(std::string_view context) const {
    if (!failed_) return Status::OK();
    return Status::InvalidArgument(std::string(context) +
                                   ": truncated or malformed at byte " +
                                   std::to_string(pos_));
  }

 private:
  template <typename T>
  T ReadLe() {
    if (failed_ || sizeof(T) > remaining()) {
      failed_ = true;
      return T{0};
    }
    T v{0};
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace s3

#endif  // S3_COMMON_BINARY_IO_H_
