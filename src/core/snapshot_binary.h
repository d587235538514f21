// The snapshot codec for *finalized* S3 instances: the one encoding
// the storage layer, every checkpoint and every tool read and write.
//
// A snapshot carries the population (users, documents, tags, social
// edges and the network edge log, the weighted RDF graph) *and* the derived
// state: interned term dictionary, saturated triple store,
// inverted-index postings, transition-matrix CSR, component
// union-find forest and the keyword→component directory. Loading
// decodes the sections in three independent groups at once, straight
// into the instance's flat stores, then goes through
// S3Instance::FromSnapshot / AttachDerived and skips all
// recomputation; generation and lineage round-trip intact, which is
// what lets the server's SnapshotManager resume a killed process at
// its exact pre-crash generation. Weights are stored as IEEE doubles,
// so every value survives bit for bit.
//
// Format v3 (see src/server/STORAGE.md): an 8-byte magic and a u32
// version, a CRC-guarded section *table* up front, varint/delta-encoded
// compact sections for the population, postings and CSR columns, and
// 64-byte-aligned fixed-width sections (matrix row_ptr / values,
// component forest) that AttachBinarySnapshot hands to the instance as
// zero-copy StorageSpan views over the mmap'd file. Any other version,
// formats v1 and v2 included, is rejected.
//
// Corruption — truncation, bit flips, garbage — is detected at the
// framing layer and reported as InvalidArgument with the failing
// section named, never undefined behaviour. All multi-byte values are
// little-endian (common/binary_io.h).
#ifndef S3_CORE_SNAPSHOT_BINARY_H_
#define S3_CORE_SNAPSHOT_BINARY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mmap_file.h"
#include "common/status.h"
#include "core/s3_instance.h"

namespace s3::core {

// The format version written and read.
inline constexpr uint32_t kBinarySnapshotVersion = 3;

// Serializes `instance` — population and derived state — into a
// snapshot. Deterministic: the same instance always yields the same
// bytes. Fails with FailedPrecondition on an unfinalized instance
// (there is no derived state to save).
Result<std::string> SaveBinarySnapshot(const S3Instance& instance);

// Parses, checksum-verifies and validates a snapshot, returning a
// finalized instance without running Finalize.
// Everything is copied to the heap — no views — and every section's
// checksum, the aligned ones included, is verified. Any framing or
// validation failure is InvalidArgument naming the offending section.
Result<std::shared_ptr<const S3Instance>> LoadBinarySnapshot(
    std::string_view bytes);

// Attaches a snapshot from a mapped region: decodes the compact
// sections and hands the aligned sections to the instance as zero-copy
// views pinning `region` (heap copies when the host is big-endian or a
// section lands misaligned in memory). The returned instance (and
// every ApplyDelta successor that still shares a view) keeps the
// mapping alive; deleting the file on disk while attached is safe
// (POSIX keeps mapped pages valid).
//
// Checksums are lazy: the aligned payloads skip their CRC pass, which
// keeps attach from paging in the large float arrays. Compact and raw
// sections are always verified, since their decode walks every byte
// anyway. Corruption in an aligned section is still bounded: the
// decoder checks the row pointers against the column stream and
// AttachDerived checks the forest's shape, so what gets through is a
// flip that keeps the shape valid — a float value, a forest parent, or
// a row pointer that moves one row boundary. LoadBinarySnapshot
// verifies every checksum.
Result<std::shared_ptr<const S3Instance>> AttachBinarySnapshot(
    std::shared_ptr<const MappedRegion> region);

// ---- inspection (tools/s3_snapshot) -----------------------------------

struct SnapshotSectionInfo {
  uint32_t id = 0;
  const char* name = "?";
  uint64_t size = 0;   // payload bytes on disk
  uint32_t crc = 0;    // stored checksum
  bool crc_ok = false; // stored checksum matches the payload
  // Wire encoding: "raw" (fixed-width streams), "varint-delta"
  // (compact) or "aligned" (zero-copy views).
  const char* encoding = "raw";
  // Decoded in-memory bytes (equals `size` for raw and aligned
  // sections; larger for compact ones — size/mem_bytes is the
  // section's compression ratio).
  uint64_t mem_bytes = 0;
};

struct SnapshotInfo {
  uint32_t version = 0;
  // From the META section (zero when META is unreadable).
  uint64_t generation = 0;
  uint64_t lineage = 0;
  uint64_t rdf_social_edges = 0;
  uint64_t n_users = 0, n_docs = 0, n_nodes = 0, n_tags = 0;
  uint64_t n_keywords = 0, n_edges = 0, n_terms = 0, n_triples = 0;
  std::vector<SnapshotSectionInfo> sections;
};

// Frame-level inspection: header, section table, checksum verification
// and the META summary — without materializing an instance. Fails only
// when the header or section framing itself is unreadable; per-section
// checksum mismatches are reported via `crc_ok`.
Result<SnapshotInfo> InspectBinarySnapshot(std::string_view bytes);

}  // namespace s3::core

#endif  // S3_CORE_SNAPSHOT_BINARY_H_
