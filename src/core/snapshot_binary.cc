#include "core/snapshot_binary.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <future>
#include <type_traits>
#include <utility>

#include "common/binary_io.h"
#include "doc/document_wire.h"

namespace s3::core {

namespace {

// First byte outside ASCII (PNG-style) so no text file can alias the
// magic; trailing \n catches CRLF mangling.
constexpr char kMagic[8] = {'\x89', 'S', '3', 'S', 'N', 'A', 'P', '\n'};

// Layout (see src/server/STORAGE.md for the full spec):
//
//   magic(8) · u32 version=2 · u32 section_count · u32 table_crc ·
//   table[section_count] · payloads
//
// The table is section_count fixed 36-byte entries
//   (u32 id, u8 encoding, u8 elem_size, u16 reserved=0,
//    u64 offset, u64 disk_size, u64 mem_bytes, u32 crc)
// and is covered by table_crc; version and section_count are pinned by
// the parse itself. Payloads follow at the exact offsets the canonical
// writer produces — aligned sections at the next multiple of 64, all
// others immediately after their predecessor — with the gaps
// zero-padded and *validated* as zeros on parse. Every byte of a
// file is therefore accounted for (magic / pinned header / table CRC /
// padding / payload CRCs), which is what lets the bit-flip robustness
// sweep assert that any single-bit corruption is rejected on the
// eager-CRC paths.
//
// Encodings:
//   raw          — fixed-width little-endian fields (META, DOCS).
//   varint-delta — LEB128 fields, ascending id sequences and postings
//                  /CSR columns delta-coded; weights carry a tag byte
//                  (0 → implied 1.0, 1 → F64 follows).
//   aligned      — little-endian fixed-width array at a 64-byte file
//                  offset; attaches as a zero-copy StorageSpan view.

enum Encoding : uint8_t {
  kEncRaw = 0,
  kEncCompact = 1,
  kEncAligned = 2,
};

// Section ids, in table and file order.
enum SectionId : uint32_t {
  kMeta = 1,           // raw: generation/lineage, saturation stats, counts
  kVocab = 2,          // keyword spellings, id order
  kUsers = 3,          // user URIs, id order
  kTerms = 4,          // RDF term dictionary, id order
  kTriples = 5,        // saturated triple store, store order
  kDocs = 6,           // raw: document trees + root URIs, id order
  kComments = 7,       // per-doc comment target, checked against EDGES
  kTags = 8,           // tag table, id order
  kSocial = 9,         // explicit social edges, insertion order
  kEdges = 10,         // network edge log, insertion order
  kIndex = 11,         // inverted-index postings, ascending keyword
  kMatrixRowPtr = 12,  // aligned u64[rows+1]
  kMatrixCols = 13,    // per-row delta-coded columns
  kMatrixVals = 14,    // aligned f64[nnz]
  kMatrixDenom = 15,   // aligned f64[rows]
  kForest = 16,        // aligned u32[rows]
  kKwComps = 17,       // keyword -> component directory, ascending
};
constexpr uint32_t kSectionCount = 17;
constexpr size_t kTableEntryBytes = 36;
constexpr uint64_t kAlignment = 64;

// Entity indices are packed into 30 bits (social/entity.h); any count
// at or above this limit cannot have been produced by a real instance.
constexpr uint64_t kMaxEntityCount = 1u << 30;

const char* SectionName(uint32_t id) {
  switch (id) {
    case kMeta: return "META";
    case kVocab: return "VOCAB";
    case kUsers: return "USERS";
    case kTerms: return "TERMS";
    case kTriples: return "TRIPLES";
    case kDocs: return "DOCS";
    case kComments: return "COMMENTS";
    case kTags: return "TAGS";
    case kSocial: return "SOCIAL";
    case kEdges: return "EDGES";
    case kIndex: return "INDEX";
    case kMatrixRowPtr: return "MATRIXROWPTR";
    case kMatrixCols: return "MATRIXCOLS";
    case kMatrixVals: return "MATRIXVALS";
    case kMatrixDenom: return "MATRIXDENOM";
    case kForest: return "FOREST";
    case kKwComps: return "KWCOMPS";
    default: return "?";
  }
}

Status SectionError(uint32_t id, const std::string& why) {
  return Status::InvalidArgument(std::string("binary snapshot, section ") +
                                 SectionName(id) + ": " + why);
}

struct SectionSpec {
  uint8_t encoding;
  uint8_t elem_size;  // aligned sections: element width; 0 otherwise
};

const SectionSpec& Spec(uint32_t id) {
  static const SectionSpec specs[kSectionCount + 1] = {
      {kEncRaw, 0},      // 0 (unused)
      {kEncRaw, 0},      // 1 META
      {kEncCompact, 0},  // 2 VOCAB
      {kEncCompact, 0},  // 3 USERS
      {kEncCompact, 0},  // 4 TERMS
      {kEncCompact, 0},  // 5 TRIPLES
      {kEncRaw, 0},      // 6 DOCS (document_wire, shared with the WAL)
      {kEncCompact, 0},  // 7 COMMENTS
      {kEncCompact, 0},  // 8 TAGS
      {kEncCompact, 0},  // 9 SOCIAL
      {kEncCompact, 0},  // 10 EDGES
      {kEncCompact, 0},  // 11 INDEX
      {kEncAligned, 8},  // 12 MATRIXROWPTR
      {kEncCompact, 0},  // 13 MATRIXCOLS
      {kEncAligned, 8},  // 14 MATRIXVALS
      {kEncAligned, 8},  // 15 MATRIXDENOM
      {kEncAligned, 4},  // 16 FOREST
      {kEncCompact, 0},  // 17 KWCOMPS
  };
  return specs[id];
}

const char* EncodingName(uint8_t encoding) {
  switch (encoding) {
    case kEncCompact: return "varint-delta";
    case kEncAligned: return "aligned";
    default: return "raw";
  }
}

// Population counts and identity carried by the META section; every
// other section is validated against these.
struct Meta {
  uint64_t generation = 0;
  uint64_t lineage = 0;
  uint64_t rdf_social_edges = 0;
  rdf::SaturationStats saturation;
  uint64_t n_users = 0, n_docs = 0, n_nodes = 0, n_tags = 0;
  uint64_t n_keywords = 0, n_edges = 0, n_terms = 0, n_triples = 0;
};

void WriteMeta(const S3Instance& inst, ByteWriter& w) {
  w.U64(inst.generation());
  w.U64(inst.lineage());
  w.U64(inst.rdf_social_edges());
  const rdf::SaturationStats& st = inst.saturation_stats();
  w.U64(st.input_triples);
  w.U64(st.derived_triples);
  w.U64(st.rounds);
  w.U64(inst.UserCount());
  w.U64(inst.docs().DocumentCount());
  w.U64(inst.docs().NodeCount());
  w.U64(inst.TagCount());
  w.U64(inst.vocabulary().size());
  w.U64(inst.edges().size());
  w.U64(inst.terms().size());
  w.U64(inst.rdf_graph().size());
}

bool ReadMeta(ByteReader& r, Meta& m) {
  m.generation = r.U64();
  m.lineage = r.U64();
  m.rdf_social_edges = r.U64();
  m.saturation.input_triples = static_cast<size_t>(r.U64());
  m.saturation.derived_triples = static_cast<size_t>(r.U64());
  m.saturation.rounds = static_cast<size_t>(r.U64());
  m.n_users = r.U64();
  m.n_docs = r.U64();
  m.n_nodes = r.U64();
  m.n_tags = r.U64();
  m.n_keywords = r.U64();
  m.n_edges = r.U64();
  m.n_terms = r.U64();
  m.n_triples = r.U64();
  return r.AtEnd();
}

// ---- section writers ---------------------------------------------------
// Each returns the wire payload and reports through `mem` the section's
// decoded fixed-width size (u64 counts, u32 ids and lengths, f64
// weights), the numerator-free half of the compression ratio surfaced
// by `s3_snapshot inspect`.

void WriteWeightTag(ByteWriter& w, double weight) {
  if (weight == 1.0) {
    w.U8(0);
  } else {
    w.U8(1);
    w.F64(weight);
  }
}

std::string WriteVocab(const S3Instance& inst, uint64_t* mem) {
  std::string p;
  ByteWriter w(&p);
  w.Var(inst.vocabulary().size());
  *mem = 8;
  for (KeywordId k = 0; k < inst.vocabulary().size(); ++k) {
    std::string_view s = inst.vocabulary().Spelling(k);
    w.VarStr(s);
    *mem += 4 + s.size();
  }
  return p;
}

std::string WriteUsers(const S3Instance& inst, uint64_t* mem) {
  std::string p;
  ByteWriter w(&p);
  w.Var(inst.users().size());
  *mem = 8;
  for (const User& u : inst.users()) {
    w.VarStr(u.uri);
    *mem += 4 + u.uri.size();
  }
  return p;
}

std::string WriteTerms(const S3Instance& inst, uint64_t* mem) {
  std::string p;
  ByteWriter w(&p);
  const rdf::TermDictionary& terms = inst.terms();
  w.Var(terms.size());
  *mem = 8;
  for (rdf::TermId t = 0; t < terms.size(); ++t) {
    w.U8(static_cast<uint8_t>(terms.Kind(t)));
    w.VarStr(terms.Text(t));
    *mem += 5 + terms.Text(t).size();
  }
  return p;
}

std::string WriteTriples(const S3Instance& inst, uint64_t* mem) {
  std::string p;
  ByteWriter w(&p);
  const auto& triples = inst.rdf_graph().triples();
  w.Var(triples.size());
  *mem = 8 + 20 * triples.size();
  for (const rdf::Triple& t : triples) {
    w.Var(t.subject);
    w.Var(t.property);
    w.Var(t.object);
    WriteWeightTag(w, t.weight);
  }
  return p;
}

// Raw DOCS payload: u64 document count, then per document its root URI
// (u32 length + bytes) and its tree in the wire format the WAL shares
// (doc/document_wire.h).
std::string WriteDocs(const S3Instance& inst) {
  std::string p;
  ByteWriter w(&p);
  const doc::DocumentStore& docs = inst.docs();
  w.U64(docs.DocumentCount());
  for (doc::DocId d = 0; d < docs.DocumentCount(); ++d) {
    w.Str(docs.RootUri(d));
    doc::WriteDocumentTree(docs, d, w);
  }
  return p;
}

std::string WriteComments(const S3Instance& inst, uint64_t* mem) {
  std::string p;
  ByteWriter w(&p);
  const std::vector<doc::NodeId> targets = inst.CommentTargets();
  w.Var(targets.size());
  *mem = 8 + 4 * targets.size();
  for (const doc::NodeId t : targets) {
    w.Var(t == doc::kInvalidNode ? 0 : static_cast<uint64_t>(t) + 1);
  }
  return p;
}

std::string WriteTags(const S3Instance& inst, uint64_t* mem) {
  std::string p;
  ByteWriter w(&p);
  w.Var(inst.tags().size());
  *mem = 8 + 13 * inst.tags().size();
  for (const Tag& t : inst.tags()) {
    w.Var(t.author);
    w.U8(t.subject.kind() == social::EntityKind::kTag ? 1 : 0);
    w.Var(t.subject.index());
    w.Var(t.keyword == kInvalidKeyword ? 0
                                       : static_cast<uint64_t>(t.keyword) + 1);
  }
  return p;
}

std::string WriteSocial(const S3Instance& inst, uint64_t* mem) {
  std::string p;
  ByteWriter w(&p);
  const auto& edges = inst.explicit_social_edges();
  w.Var(edges.size());
  *mem = 8 + 16 * edges.size();
  for (const S3Instance::ExplicitSocialEdge& e : edges) {
    w.Var(e.from);
    w.Var(e.to);
    WriteWeightTag(w, e.weight);
  }
  return p;
}

// EDGES opcodes. The edge log is dominated by two redundant shapes:
// social edges that mirror the SOCIAL section entry-for-entry (same
// from/to/weight, in order), and inverse twins appended by
// AddWithInverse right after their forward edge. Both collapse to one
// byte; everything else is written in full with the entity's (kind,
// index) split packed low so small indices stay small varints.
constexpr uint8_t kEdgeOpSocialRef = 0x40;  // next SOCIAL entry, verbatim
constexpr uint8_t kEdgeOpInverse = 0x41;    // mirror of the previous edge

uint32_t KindSplit(social::EntityId e) {
  return (e.index() << 2) | static_cast<uint32_t>(e.kind());
}

bool IsForwardLabel(social::EdgeLabel label) {
  const auto v = static_cast<uint8_t>(label);
  return v >= 1 && (v % 2) == 1;  // kPostedBy/kCommentsOn/kHasSubject/kHasAuthor
}

std::string WriteEdges(const S3Instance& inst, uint64_t* mem) {
  std::string p;
  ByteWriter w(&p);
  w.Var(inst.edges().size());
  *mem = 8 + 17 * inst.edges().size();
  const auto& social_edges = inst.explicit_social_edges();
  size_t social_cursor = 0;
  const social::NetEdge* prev = nullptr;
  for (const social::NetEdge& e : inst.edges().edges()) {
    if (e.label == social::EdgeLabel::kSocial &&
        social_cursor < social_edges.size() &&
        e.source == social::EntityId::User(social_edges[social_cursor].from) &&
        e.target == social::EntityId::User(social_edges[social_cursor].to) &&
        e.weight == social_edges[social_cursor].weight) {
      w.U8(kEdgeOpSocialRef);
      ++social_cursor;
    } else if (prev != nullptr && IsForwardLabel(prev->label) &&
               static_cast<uint8_t>(e.label) ==
                   static_cast<uint8_t>(prev->label) + 1 &&
               e.source == prev->target && e.target == prev->source &&
               e.weight == prev->weight) {
      w.U8(kEdgeOpInverse);
    } else {
      w.U8(static_cast<uint8_t>(e.label));
      w.Var(KindSplit(e.source));
      w.Var(KindSplit(e.target));
      WriteWeightTag(w, e.weight);
    }
    prev = &e;
  }
  return p;
}

std::string WriteIndex(const S3Instance& inst, uint64_t* mem) {
  std::string p;
  ByteWriter w(&p);
  const std::vector<KeywordId> keys = inst.index().Keywords();  // ascending
  w.Var(keys.size());
  *mem = 8;
  KeywordId prev_k = 0;
  bool first = true;
  for (KeywordId k : keys) {
    const std::span<const doc::NodeId> postings = inst.index().Postings(k);
    w.Var(first ? k : k - prev_k);
    first = false;
    prev_k = k;
    w.Var(postings.size());
    *mem += 12 + 4 * postings.size();
    doc::NodeId prev_n = 0;
    for (size_t i = 0; i < postings.size(); ++i) {
      w.Var(i == 0 ? postings[i] : postings[i] - prev_n);
      prev_n = postings[i];
    }
  }
  return p;
}

std::string WriteMatrixRowPtr(const S3Instance& inst, uint64_t* mem) {
  std::string p;
  ByteWriter w(&p);
  for (uint64_t v : inst.matrix().row_ptr()) w.U64(v);
  *mem = p.size();
  return p;
}

std::string WriteMatrixCols(const S3Instance& inst, uint64_t* mem) {
  std::string p;
  ByteWriter w(&p);
  const social::TransitionMatrix& m = inst.matrix();
  *mem = 4 * m.col_index().size();
  for (size_t row = 0; row < m.rows(); ++row) {
    const uint64_t begin = m.row_ptr()[row], end = m.row_ptr()[row + 1];
    uint32_t prev = 0;
    for (uint64_t i = begin; i < end; ++i) {
      const uint32_t c = m.col_index()[i];
      w.Var(i == begin ? c : c - prev);
      prev = c;
    }
  }
  return p;
}

std::string WriteMatrixVals(const S3Instance& inst, uint64_t* mem) {
  std::string p;
  ByteWriter w(&p);
  for (double v : inst.matrix().values()) w.F64(v);
  *mem = p.size();
  return p;
}

std::string WriteMatrixDenom(const S3Instance& inst, uint64_t* mem) {
  std::string p;
  ByteWriter w(&p);
  for (double v : inst.matrix().denominators()) w.F64(v);
  *mem = p.size();
  return p;
}

std::string WriteForest(const S3Instance& inst, uint64_t* mem) {
  std::string p;
  ByteWriter w(&p);
  for (uint32_t parent : inst.components().forest()) w.U32(parent);
  *mem = p.size();
  return p;
}

std::string WriteKeywordComps(const S3Instance& inst, uint64_t* mem) {
  std::string p;
  ByteWriter w(&p);
  std::vector<KeywordId> keys;
  for (KeywordId k = 0; k < inst.vocabulary().size(); ++k) {
    if (!inst.ComponentsWithKeyword(k).empty()) keys.push_back(k);
  }
  w.Var(keys.size());
  *mem = 8;
  KeywordId prev_k = 0;
  bool first = true;
  for (KeywordId k : keys) {
    const std::span<const social::ComponentId> comps =
        inst.ComponentsWithKeyword(k);
    w.Var(first ? k : k - prev_k);
    first = false;
    prev_k = k;
    w.Var(comps.size());
    *mem += 12 + 4 * comps.size();
    social::ComponentId prev_c = 0;
    for (size_t i = 0; i < comps.size(); ++i) {
      w.Var(i == 0 ? comps[i] : comps[i] - prev_c);
      prev_c = comps[i];
    }
  }
  return p;
}

Result<std::string> EncodeSnapshot(const S3Instance& inst) {
  struct Out {
    std::string payload;
    uint64_t mem_bytes = 0;
  };
  Out sections[kSectionCount];
  auto set = [&](uint32_t id, std::string payload, uint64_t mem) {
    sections[id - 1] = Out{std::move(payload), mem};
  };
  {
    std::string meta;
    ByteWriter w(&meta);
    WriteMeta(inst, w);
    const uint64_t mem = meta.size();
    set(kMeta, std::move(meta), mem);
  }
  // Two statements per section: the writer must run before its
  // mem_bytes out-param is read (argument evaluation order is
  // unspecified).
  auto add = [&](uint32_t id, std::string (*writer)(const S3Instance&,
                                                    uint64_t*)) {
    uint64_t mem = 0;
    std::string payload = writer(inst, &mem);
    set(id, std::move(payload), mem);
  };
  add(kVocab, WriteVocab);
  add(kUsers, WriteUsers);
  add(kTerms, WriteTerms);
  add(kTriples, WriteTriples);
  {
    std::string docs = WriteDocs(inst);  // raw: disk and memory agree
    const uint64_t docs_mem = docs.size();
    set(kDocs, std::move(docs), docs_mem);
  }
  add(kComments, WriteComments);
  add(kTags, WriteTags);
  add(kSocial, WriteSocial);
  add(kEdges, WriteEdges);
  add(kIndex, WriteIndex);
  add(kMatrixRowPtr, WriteMatrixRowPtr);
  add(kMatrixCols, WriteMatrixCols);
  add(kMatrixVals, WriteMatrixVals);
  add(kMatrixDenom, WriteMatrixDenom);
  add(kForest, WriteForest);
  add(kKwComps, WriteKeywordComps);

  // Lay the payloads out (aligned sections at 64-byte file offsets)
  // and build the table.
  const uint64_t header_bytes = sizeof(kMagic) + 4 + 4 + 4 +
                                kSectionCount * kTableEntryBytes;
  std::string table;
  ByteWriter tw(&table);
  uint64_t offsets[kSectionCount];
  uint64_t pos = header_bytes;
  for (uint32_t id = 1; id <= kSectionCount; ++id) {
    const SectionSpec& spec = Spec(id);
    if (spec.encoding == kEncAligned) {
      pos = (pos + kAlignment - 1) / kAlignment * kAlignment;
    }
    offsets[id - 1] = pos;
    const Out& s = sections[id - 1];
    tw.U32(id);
    tw.U8(spec.encoding);
    tw.U8(spec.elem_size);
    tw.U8(0);  // reserved
    tw.U8(0);
    tw.U64(pos);
    tw.U64(s.payload.size());
    tw.U64(s.mem_bytes);
    tw.U32(Crc32(s.payload));
    pos += s.payload.size();
  }

  std::string out;
  out.reserve(static_cast<size_t>(pos));
  out.append(kMagic, sizeof(kMagic));
  {
    ByteWriter w(&out);
    w.U32(kBinarySnapshotV2);
    w.U32(kSectionCount);
    w.U32(Crc32(table));
  }
  out.append(table);
  for (uint32_t id = 1; id <= kSectionCount; ++id) {
    out.resize(static_cast<size_t>(offsets[id - 1]), '\0');  // zero padding
    out.append(sections[id - 1].payload);
  }
  return out;
}

// ---- parse -------------------------------------------------------------

// One located section.
struct Entry {
  uint64_t offset = 0;
  uint64_t disk_size = 0;
  uint64_t mem_bytes = 0;
  uint32_t crc = 0;
  std::string_view payload;
};

// Validates the header (magic, version), the table checksum and the
// exact canonical layout (offsets, alignment, zero padding, no
// trailing bytes): the one header check every entry point shares. Does
// NOT check payload checksums — callers pick eager or lazy per
// section.
Status ParseTable(std::string_view bytes, Entry (&entries)[kSectionCount]) {
  ByteReader r(bytes);
  std::string_view magic = r.Bytes(sizeof(kMagic));
  if (r.failed() || magic != std::string_view(kMagic, sizeof(kMagic))) {
    return Status::InvalidArgument(
        "binary snapshot: bad magic (not a binary snapshot file)");
  }
  const uint32_t version = r.U32();
  if (r.failed()) {
    return Status::InvalidArgument("binary snapshot: header truncated");
  }
  if (version == 1) {
    return Status::InvalidArgument(
        "binary snapshot: format v1 is no longer read; upgrade the file "
        "with `s3_snapshot convert <in> <out> --to=binary` built from a "
        "commit that still reads v1 (90a31ea or earlier)");
  }
  if (version != kBinarySnapshotV2) {
    return Status::InvalidArgument(
        "binary snapshot: unsupported format version " +
        std::to_string(version));
  }
  const uint32_t n_sections = r.U32();
  const uint32_t table_crc = r.U32();
  if (r.failed() || n_sections != kSectionCount) {
    return Status::InvalidArgument(
        "binary snapshot: expected " + std::to_string(kSectionCount) +
        " sections, header declares " + std::to_string(n_sections));
  }
  std::string_view table = r.Bytes(kSectionCount * kTableEntryBytes);
  if (r.failed()) {
    return Status::InvalidArgument("binary snapshot: section table truncated");
  }
  if (Crc32(table) != table_crc) {
    return Status::InvalidArgument(
        "binary snapshot: section table checksum mismatch");
  }
  ByteReader tr(table);
  uint64_t pos = r.offset();
  for (uint32_t expect = 1; expect <= kSectionCount; ++expect) {
    const SectionSpec& spec = Spec(expect);
    const uint32_t id = tr.U32();
    const uint8_t encoding = tr.U8();
    const uint8_t elem_size = tr.U8();
    const uint8_t reserved0 = tr.U8();
    const uint8_t reserved1 = tr.U8();
    Entry& e = entries[expect - 1];
    e.offset = tr.U64();
    e.disk_size = tr.U64();
    e.mem_bytes = tr.U64();
    e.crc = tr.U32();
    if (tr.failed() || id != expect || encoding != spec.encoding ||
        elem_size != spec.elem_size || reserved0 != 0 || reserved1 != 0) {
      return Status::InvalidArgument(
          std::string("binary snapshot: malformed table entry for section ") +
          SectionName(expect));
    }
    const uint64_t align = encoding == kEncAligned ? kAlignment : 1;
    const uint64_t aligned_pos = (pos + align - 1) / align * align;
    if (e.offset != aligned_pos) {
      return SectionError(expect, "unexpected payload offset");
    }
    if (aligned_pos > bytes.size() ||
        e.disk_size > bytes.size() - aligned_pos) {
      return SectionError(expect, "payload truncated");
    }
    // Alignment gaps are part of the canonical layout: they must be
    // zero so no byte of the file escapes validation.
    for (uint64_t i = pos; i < aligned_pos; ++i) {
      if (bytes[static_cast<size_t>(i)] != 0) {
        return SectionError(expect, "nonzero padding");
      }
    }
    if (encoding == kEncAligned &&
        (elem_size == 0 || e.disk_size % elem_size != 0 ||
         e.mem_bytes != e.disk_size)) {
      return SectionError(expect, "bad aligned extent");
    }
    e.payload = bytes.substr(static_cast<size_t>(aligned_pos),
                             static_cast<size_t>(e.disk_size));
    pos = aligned_pos + e.disk_size;
  }
  if (pos != bytes.size()) {
    return Status::InvalidArgument(
        "binary snapshot: trailing bytes after the last section");
  }
  return Status::OK();
}

// ---- section readers ---------------------------------------------------
// Each reader consumes its payload exactly (AtEnd is part of the
// contract) and validates counts and ids against META.

Status ReadVocab(ByteReader& r, const Meta& meta, Vocabulary& vocab) {
  const uint64_t n = r.Var();
  if (n != meta.n_keywords) return SectionError(kVocab, "count mismatch");
  if (!r.FitsCount(n, 1)) return SectionError(kVocab, "count truncated");
  // Each spelling is a varint length and its bytes: the rest of the
  // payload bounds the arena.
  vocab.Reserve(static_cast<size_t>(n), r.remaining());
  for (uint64_t i = 0; i < n; ++i) {
    const std::string_view spelling = r.VarStrView();
    if (r.failed()) break;
    if (vocab.Intern(spelling) != i) {
      return SectionError(kVocab,
                          "duplicate spelling at id " + std::to_string(i));
    }
  }
  if (!r.AtEnd()) return r.status("binary snapshot, section VOCAB");
  return Status::OK();
}

Status ReadUsers(ByteReader& r, const Meta& meta,
                   std::vector<User>& users) {
  const uint64_t n = r.Var();
  if (n != meta.n_users) return SectionError(kUsers, "count mismatch");
  if (!r.FitsCount(n, 1)) return SectionError(kUsers, "count truncated");
  users.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    users.push_back(User{static_cast<social::UserId>(i), r.VarStr()});
  }
  if (!r.AtEnd()) return r.status("binary snapshot, section USERS");
  return Status::OK();
}

Status ReadTerms(ByteReader& r, const Meta& meta,
                   rdf::TermDictionary& terms) {
  const uint64_t n = r.Var();
  if (n != meta.n_terms) return SectionError(kTerms, "count mismatch");
  if (!r.FitsCount(n, 2)) return SectionError(kTerms, "count truncated");
  terms.Reserve(static_cast<size_t>(n), r.remaining());
  for (uint64_t i = 0; i < n; ++i) {
    const uint8_t kind = r.U8();
    const std::string_view text = r.VarStrView();
    if (r.failed()) break;
    if (kind > 1) return SectionError(kTerms, "bad term kind");
    if (terms.Intern(text, static_cast<rdf::TermKind>(kind)) != i) {
      return SectionError(kTerms,
                          "duplicate term at id " + std::to_string(i));
    }
  }
  if (!r.AtEnd()) return r.status("binary snapshot, section TERMS");
  return Status::OK();
}

Status ReadTriples(ByteReader& r, const Meta& meta,
                     const rdf::TermDictionary& terms,
                     rdf::TripleStore& rdf) {
  const uint64_t n = r.Var();
  if (n != meta.n_triples) return SectionError(kTriples, "count mismatch");
  if (!r.FitsCount(n, 4)) return SectionError(kTriples, "count truncated");
  std::vector<rdf::Triple> triples(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t s = r.Var();
    const uint64_t p = r.Var();
    const uint64_t o = r.Var();
    const uint8_t tag = r.U8();
    if (tag > 1) return SectionError(kTriples, "bad weight tag");
    const double w = tag == 0 ? 1.0 : r.F64();
    if (r.failed()) break;
    if (s >= meta.n_terms || p >= meta.n_terms || o >= meta.n_terms) {
      return SectionError(kTriples, "term id out of range");
    }
    if (terms.Kind(static_cast<rdf::TermId>(s)) != rdf::TermKind::kUri ||
        terms.Kind(static_cast<rdf::TermId>(p)) != rdf::TermKind::kUri) {
      return SectionError(kTriples, "literal subject or property");
    }
    if (!(w >= 0.0 && w <= 1.0)) {
      return SectionError(kTriples, "weight outside [0,1]");
    }
    triples[i] = rdf::Triple{static_cast<rdf::TermId>(s),
                             static_cast<rdf::TermId>(p),
                             static_cast<rdf::TermId>(o), w};
  }
  if (!r.AtEnd()) return r.status("binary snapshot, section TRIPLES");
  const Status adopted = rdf.Adopt(std::move(triples));
  if (!adopted.ok()) return SectionError(kTriples, adopted.message());
  return Status::OK();
}

Status ReadDocs(ByteReader& r, const Meta& meta,
                doc::DocumentStore& docs) {
  const uint64_t n = r.U64();
  if (n != meta.n_docs) return SectionError(kDocs, "count mismatch");
  // Each document takes 8 bytes besides its nodes (URI length, node
  // count), each node at least 12 and each keyword 4, so the payload
  // bounds all three: corrupt counts cannot reserve more than it holds.
  const uint64_t fixed = 8 * n + 12 * meta.n_nodes;
  if (r.FitsCount(n, 8) && r.FitsCount(meta.n_nodes, 12) &&
      fixed <= r.remaining()) {
    docs.Reserve(static_cast<size_t>(n), static_cast<size_t>(meta.n_nodes),
                 (r.remaining() - fixed) / 4);
  }
  for (uint64_t d = 0; d < n; ++d) {
    const std::string_view uri = r.Bytes(r.U32());
    if (r.failed()) break;
    Result<doc::DocId> added =
        doc::AppendDocumentTree(r, meta.n_keywords, uri, docs);
    if (!added.ok()) {
      return SectionError(kDocs, "doc " + std::to_string(d) + ": " +
                                     added.status().message());
    }
  }
  if (!r.AtEnd()) return r.status("binary snapshot, section DOCS");
  if (docs.NodeCount() != meta.n_nodes) {
    return SectionError(kDocs, "node total mismatch");
  }
  return Status::OK();
}

Status ReadComments(ByteReader& r, const Meta& meta,
                      std::vector<doc::NodeId>& comment_target) {
  const uint64_t n = r.Var();
  if (n != meta.n_docs) return SectionError(kComments, "count mismatch");
  if (!r.FitsCount(n, 1)) return SectionError(kComments, "count truncated");
  comment_target.reserve(static_cast<size_t>(n));
  for (uint64_t d = 0; d < n; ++d) {
    const uint64_t v = r.Var();
    if (r.failed()) break;
    if (v != 0 && v - 1 >= kMaxEntityCount) {
      return SectionError(kComments, "bad comment target");
    }
    comment_target.push_back(
        v == 0 ? doc::kInvalidNode : static_cast<doc::NodeId>(v - 1));
  }
  if (!r.AtEnd()) return r.status("binary snapshot, section COMMENTS");
  return Status::OK();
}

Status ReadTags(ByteReader& r, const Meta& meta, std::vector<Tag>& tags) {
  const uint64_t n = r.Var();
  if (n != meta.n_tags) return SectionError(kTags, "count mismatch");
  if (!r.FitsCount(n, 4)) return SectionError(kTags, "count truncated");
  tags.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t author = r.Var();
    const uint8_t on_tag = r.U8();
    const uint64_t subject = r.Var();
    const uint64_t keyword_plus = r.Var();
    if (r.failed()) break;
    if (on_tag > 1 || subject >= kMaxEntityCount) {
      return SectionError(kTags, "bad tag subject");
    }
    if (author > UINT32_MAX || keyword_plus > UINT32_MAX) {
      return SectionError(kTags, "bad tag field");
    }
    tags.push_back(
        Tag{static_cast<social::TagId>(i), static_cast<social::UserId>(author),
            on_tag ? social::EntityId::Tag(static_cast<uint32_t>(subject))
                   : social::EntityId::Fragment(static_cast<uint32_t>(subject)),
            keyword_plus == 0 ? kInvalidKeyword
                              : static_cast<KeywordId>(keyword_plus - 1)});
  }
  if (!r.AtEnd()) return r.status("binary snapshot, section TAGS");
  return Status::OK();
}

Status ReadSocial(ByteReader& r, const Meta& /*meta*/,
                    std::vector<S3Instance::ExplicitSocialEdge>& social) {
  const uint64_t n = r.Var();
  if (!r.FitsCount(n, 3)) return SectionError(kSocial, "count truncated");
  social.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t from = r.Var();
    const uint64_t to = r.Var();
    const uint8_t tag = r.U8();
    if (tag > 1) return SectionError(kSocial, "bad weight tag");
    const double weight = tag == 0 ? 1.0 : r.F64();
    if (r.failed()) break;
    if (from > UINT32_MAX || to > UINT32_MAX) {
      return SectionError(kSocial, "bad user id");
    }
    social.push_back(S3Instance::ExplicitSocialEdge{
        static_cast<social::UserId>(from), static_cast<social::UserId>(to),
        weight});
  }
  if (!r.AtEnd()) return r.status("binary snapshot, section SOCIAL");
  return Status::OK();
}

Status ReadEdges(ByteReader& r, const Meta& meta,
                   const std::vector<S3Instance::ExplicitSocialEdge>& social,
                   social::EdgeStore& edges) {
  const uint64_t n = r.Var();
  if (n != meta.n_edges) return SectionError(kEdges, "count mismatch");
  if (!r.FitsCount(n, 1)) return SectionError(kEdges, "count truncated");
  size_t social_cursor = 0;
  bool have_prev = false;
  social::NetEdge prev{};
  for (uint64_t i = 0; i < n; ++i) {
    const uint8_t op = r.U8();
    if (r.failed()) break;
    social::NetEdge e{};
    if (op == kEdgeOpSocialRef) {
      if (social_cursor >= social.size()) {
        return SectionError(kEdges, "social backref past SOCIAL section");
      }
      const S3Instance::ExplicitSocialEdge& s = social[social_cursor++];
      if (s.from >= (1u << 30) || s.to >= (1u << 30)) {
        return SectionError(kEdges, "social backref user out of range");
      }
      e = social::NetEdge{social::EntityId::User(s.from),
                          social::EntityId::User(s.to),
                          social::EdgeLabel::kSocial, s.weight};
    } else if (op == kEdgeOpInverse) {
      if (!have_prev || !IsForwardLabel(prev.label)) {
        return SectionError(kEdges, "inverse opcode without forward edge");
      }
      e = social::NetEdge{
          prev.target, prev.source,
          static_cast<social::EdgeLabel>(static_cast<uint8_t>(prev.label) + 1),
          prev.weight};
    } else {
      if (op > static_cast<uint8_t>(social::EdgeLabel::kHasAuthorInv)) {
        return SectionError(kEdges, "bad edge label");
      }
      const uint64_t source = r.Var();
      const uint64_t target = r.Var();
      const uint8_t tag = r.U8();
      if (tag > 1) return SectionError(kEdges, "bad weight tag");
      const double weight = tag == 0 ? 1.0 : r.F64();
      if (r.failed()) break;
      if (source > UINT32_MAX || target > UINT32_MAX ||
          (source & 3) > 2 || (target & 3) > 2) {
        return SectionError(kEdges, "bad edge endpoint kind");
      }
      e = social::NetEdge{
          social::EntityId(static_cast<social::EntityKind>(source & 3),
                           static_cast<uint32_t>(source >> 2)),
          social::EntityId(static_cast<social::EntityKind>(target & 3),
                           static_cast<uint32_t>(target >> 2)),
          static_cast<social::EdgeLabel>(op), weight};
    }
    if (!(e.weight > 0.0 && e.weight <= 1.0)) {
      return SectionError(kEdges, "edge weight outside (0,1]");
    }
    edges.Add(e.source, e.target, e.label, e.weight);
    prev = e;
    have_prev = true;
  }
  if (!r.AtEnd()) return r.status("binary snapshot, section EDGES");
  return Status::OK();
}

// INDEX and KWCOMPS share one layout: a varint entry count, then per
// entry its keyword (delta from the previous entry's), its list length
// and the list delta-coded. Decodes it straight into keyword-keyed flat
// lists (n_keywords keys); keywords must ascend within range, and each
// list must be non-empty and strictly ascending below `item_bound`.
Status ReadKeywordLists(ByteReader& r, uint32_t id, const Meta& meta,
                        uint64_t item_bound, FlatLists<uint32_t>& out) {
  const uint64_t n = r.Var();
  if (!r.FitsCount(n, 2)) return SectionError(id, "count truncated");
  std::vector<uint32_t> offsets(static_cast<size_t>(meta.n_keywords) + 1, 0);
  std::vector<uint32_t> items;
  // Every item takes at least one byte, so the rest of the payload
  // bounds the count (pages past the real count are never touched).
  items.reserve(r.remaining());
  uint64_t next_k = 0;  // first keyword whose offset is not yet set
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t dk = r.Var();
    const uint64_t len = r.Var();
    if (r.failed()) break;
    const uint64_t k = i == 0 ? dk : next_k - 1 + dk;
    if ((i > 0 && dk == 0) || dk >= meta.n_keywords ||
        k >= meta.n_keywords) {
      return SectionError(id, "keyword ids not ascending/in range");
    }
    if (len == 0) {
      return SectionError(id, "empty list for keyword " + std::to_string(k));
    }
    if (!r.FitsCount(len, 1)) return SectionError(id, "list length truncated");
    for (; next_k <= k; ++next_k) {
      offsets[static_cast<size_t>(next_k)] =
          static_cast<uint32_t>(items.size());
    }
    uint64_t prev = 0;
    for (uint64_t j = 0; j < len; ++j) {
      const uint64_t d = r.Var();
      const uint64_t item = j == 0 ? d : prev + d;
      if ((j > 0 && d == 0) || d >= item_bound || item >= item_bound) {
        if (r.failed()) break;
        return SectionError(id, "list of keyword " + std::to_string(k) +
                                    " not ascending/in range");
      }
      prev = item;
      items.push_back(static_cast<uint32_t>(item));
    }
    if (r.failed()) break;
  }
  if (!r.AtEnd()) {
    return r.status(std::string("binary snapshot, section ") +
                    SectionName(id));
  }
  for (; next_k <= meta.n_keywords; ++next_k) {
    offsets[static_cast<size_t>(next_k)] = static_cast<uint32_t>(items.size());
  }
  out.Assign(std::move(offsets), std::move(items));
  return Status::OK();
}

// Decodes the delta-coded column stream using the (already attached)
// row_ptr for row boundaries. Full CSR validation happens again in
// TransitionMatrix::Adopt; the checks here just bound the decode.
Status ReadMatrixCols(ByteReader& r, const Meta& meta,
                        const StorageSpan<uint64_t>& row_ptr,
                        StorageSpan<uint32_t>& out) {
  const uint64_t n_rows = meta.n_users + meta.n_nodes + meta.n_tags;
  const uint64_t nnz = row_ptr[static_cast<size_t>(n_rows)];
  if (!r.FitsCount(nnz, 1)) {
    return SectionError(kMatrixCols, "nnz truncated");
  }
  std::vector<uint32_t> cols(static_cast<size_t>(nnz));
  for (uint64_t row = 0; row < n_rows; ++row) {
    const uint64_t begin = row_ptr[static_cast<size_t>(row)];
    const uint64_t end = row_ptr[static_cast<size_t>(row) + 1];
    if (end < begin || end > nnz) {
      return SectionError(kMatrixCols, "row_ptr not monotone");
    }
    uint64_t prev = 0;
    for (uint64_t i = begin; i < end; ++i) {
      const uint64_t d = r.Var();
      if (r.failed()) break;
      const uint64_t c = i == begin ? d : prev + d;
      if ((i > begin && d == 0) || c >= n_rows) {
        return SectionError(kMatrixCols,
                            "column out of range or not ascending");
      }
      prev = c;
      cols[static_cast<size_t>(i)] = static_cast<uint32_t>(c);
    }
    if (r.failed()) break;
  }
  if (!r.AtEnd()) return r.status("binary snapshot, section MATRIXCOLS");
  if (row_ptr[0] != 0) {
    return SectionError(kMatrixCols, "row_ptr does not start at 0");
  }
  out = std::move(cols);
  return Status::OK();
}

// Attaches one aligned section: a zero-copy view when a region is
// pinned, views are allowed, the host is little-endian and the mapped
// bytes land element-aligned; an owned decoded copy otherwise (the
// misaligned / big-endian / forced-copy fallback).
template <typename T>
Status AttachAligned(const Entry& e, uint32_t id, uint64_t expect_count,
                     const std::shared_ptr<const MappedRegion>& region,
                     bool allow_views, StorageSpan<T>* out) {
  if (e.disk_size != expect_count * sizeof(T)) {
    return SectionError(id, "extent mismatch");
  }
  const char* base = e.payload.data();
  if (region != nullptr && allow_views &&
      std::endian::native == std::endian::little &&
      reinterpret_cast<uintptr_t>(base) % alignof(T) == 0) {
    *out = StorageSpan<T>::View(reinterpret_cast<const T*>(base),
                                static_cast<size_t>(expect_count), region);
    return Status::OK();
  }
  ByteReader r(e.payload);
  std::vector<T> v;
  v.reserve(static_cast<size_t>(expect_count));
  for (uint64_t i = 0; i < expect_count; ++i) {
    if constexpr (std::is_same_v<T, uint32_t>) {
      v.push_back(r.U32());
    } else if constexpr (std::is_same_v<T, uint64_t>) {
      v.push_back(r.U64());
    } else {
      static_assert(std::is_same_v<T, double>);
      v.push_back(r.F64());
    }
  }
  if (!r.AtEnd()) return SectionError(id, "payload truncated");
  *out = std::move(v);
  return Status::OK();
}

// One decode step of DecodeSnapshot: the section it reads and the
// decoder, which writes only into its own part of the population or
// derived state.
struct Step {
  uint32_t id;
  std::function<Status()> run;
};

// The first failure of a group of steps, by section.
struct GroupFailure {
  uint32_t id = 0;  // 0: none
  bool checksum = false;
  Status status;
};

// Verifies the checksums of a group's sections (all of them first, as
// a serial load would), then runs its steps in order, stopping at the
// first failure.
GroupFailure RunGroup(const std::vector<Step>& steps,
                      const Entry (&entries)[kSectionCount],
                      bool skip_aligned_crc) {
  for (const Step& step : steps) {
    const bool aligned = Spec(step.id).encoding == kEncAligned;
    if (aligned && skip_aligned_crc) continue;
    const Entry& e = entries[step.id - 1];
    if (Crc32(e.payload) != e.crc) {
      return {step.id, true,
              SectionError(step.id, "checksum mismatch (corrupt payload)")};
    }
  }
  for (const Step& step : steps) {
    Status s = step.run();
    if (!s.ok()) return {step.id, false, std::move(s)};
  }
  return {};
}

// Shared load: `region` null means a pure heap load (string input);
// non-null enables zero-copy views per `opts`.
Result<std::shared_ptr<const S3Instance>> DecodeSnapshot(
    std::string_view bytes, std::shared_ptr<const MappedRegion> region,
    const SnapshotAttachOptions& opts) {
  Entry entries[kSectionCount];
  S3_RETURN_IF_ERROR(ParseTable(bytes, entries));

  // Checksum policy: compact and raw payloads are always verified (the
  // decode walks every byte anyway). Aligned payloads are verified
  // eagerly on heap loads and when the caller asks; the lazy default
  // on mmap attach skips them so attach cost stays O(metadata), not
  // O(file) — see SnapshotAttachOptions.
  const bool skip_aligned_crc = region != nullptr && !opts.eager_crc;
  const Entry& meta_entry = entries[kMeta - 1];
  if (Crc32(meta_entry.payload) != meta_entry.crc) {
    return SectionError(kMeta, "checksum mismatch (corrupt payload)");
  }
  Meta meta;
  {
    ByteReader r(meta_entry.payload);
    if (!ReadMeta(r, meta)) {
      return SectionError(kMeta, "truncated");
    }
  }
  if (meta.n_users >= kMaxEntityCount || meta.n_nodes >= kMaxEntityCount ||
      meta.n_tags >= kMaxEntityCount || meta.n_docs >= kMaxEntityCount ||
      meta.n_keywords >= UINT32_MAX || meta.n_terms >= UINT32_MAX ||
      meta.n_edges >= UINT32_MAX || meta.n_triples >= UINT32_MAX) {
    return SectionError(kMeta, "implausible population counts");
  }

  S3Instance::SnapshotPopulation pop;
  S3Instance::SnapshotDerived der;
  std::vector<doc::NodeId> comments;
  pop.terms = std::make_shared<rdf::TermDictionary>();
  pop.rdf = std::make_shared<rdf::TripleStore>();
  const uint64_t n_rows = meta.n_users + meta.n_nodes + meta.n_tags;

  // Each step reads its section into a fresh ByteReader.
  auto read = [&](uint32_t id, auto&& decode) {
    return Step{id, [&entries, id, decode]() {
                  ByteReader r(entries[id - 1].payload);
                  return decode(r);
                }};
  };
  // `count` gives the expected element count once the step runs.
  auto aligned = [&](uint32_t id, auto count, auto* out) {
    return Step{id, [&entries, &region, &opts, id, count, out]() {
                  return AttachAligned(entries[id - 1], id, count(), region,
                                       opts.allow_views, out);
                }};
  };

  // The sections decode in three groups that share no state: DOCS on
  // the calling thread (it alone is a third of the decode on I3×2), the
  // rest of the population and the derived sections on two helpers.
  // Within a group, a section that needs another (TRIPLES the term
  // kinds, EDGES the SOCIAL entries, the matrix columns and values the
  // row pointers) comes after it. A failure is reported as a serial
  // load would report it: the first checksum mismatch by section, else
  // the first decode error.
  const std::vector<Step> docs_group = {
      read(kDocs, [&](ByteReader& r) { return ReadDocs(r, meta, pop.docs); }),
      read(kComments,
           [&](ByteReader& r) { return ReadComments(r, meta, comments); }),
  };
  const std::vector<Step> derived_group = {
      read(kIndex,
           [&](ByteReader& r) {
             FlatLists<doc::NodeId> postings;
             S3_RETURN_IF_ERROR(
                 ReadKeywordLists(r, kIndex, meta, meta.n_nodes, postings));
             der.index = doc::InvertedIndex(std::move(postings));
             return Status::OK();
           }),
      aligned(kMatrixRowPtr, [&] { return n_rows + 1; },
              &der.matrix_row_ptr),
      read(kMatrixCols,
           [&](ByteReader& r) {
             return ReadMatrixCols(r, meta, der.matrix_row_ptr,
                                   der.matrix_cols);
           }),
      aligned(kMatrixVals,
              [&] { return der.matrix_row_ptr[static_cast<size_t>(n_rows)]; },
              &der.matrix_vals),
      aligned(kMatrixDenom, [&] { return n_rows; }, &der.matrix_denom),
      aligned(kForest, [&] { return n_rows; }, &der.component_forest),
      // Component ids are checked against the forest by AttachDerived.
      read(kKwComps,
           [&](ByteReader& r) {
             return ReadKeywordLists(r, kKwComps, meta, n_rows,
                                     der.comps_with_keyword);
           }),
  };
  const std::vector<Step> population_group = {
      read(kVocab,
           [&](ByteReader& r) { return ReadVocab(r, meta, pop.vocabulary); }),
      read(kUsers,
           [&](ByteReader& r) { return ReadUsers(r, meta, pop.users); }),
      read(kTerms,
           [&](ByteReader& r) { return ReadTerms(r, meta, *pop.terms); }),
      read(kTriples,
           [&](ByteReader& r) {
             return ReadTriples(r, meta, *pop.terms, *pop.rdf);
           }),
      read(kTags, [&](ByteReader& r) { return ReadTags(r, meta, pop.tags); }),
      read(kSocial,
           [&](ByteReader& r) {
             return ReadSocial(r, meta, pop.explicit_social);
           }),
      read(kEdges,
           [&](ByteReader& r) {
             return ReadEdges(r, meta, pop.explicit_social, pop.edges);
           }),
  };
  auto run = [&](const std::vector<Step>* steps) {
    return RunGroup(*steps, entries, skip_aligned_crc);
  };
  // A helper that cannot be started runs deferred, in get().
  constexpr auto kPolicy = std::launch::async | std::launch::deferred;
  std::future<GroupFailure> population_done =
      std::async(kPolicy, run, &population_group);
  std::future<GroupFailure> derived_done =
      std::async(kPolicy, run, &derived_group);
  GroupFailure failures[] = {run(&docs_group), population_done.get(),
                             derived_done.get()};
  const GroupFailure* first = nullptr;
  for (const GroupFailure& f : failures) {
    if (f.id == 0) continue;
    if (first == nullptr || f.checksum > first->checksum ||
        (f.checksum == first->checksum && f.id < first->id)) {
      first = &f;
    }
  }
  if (first != nullptr) return first->status;

  der.generation = meta.generation;
  der.lineage = meta.lineage;
  der.rdf_social_edges = meta.rdf_social_edges;
  der.saturation_stats = meta.saturation;

  return S3Instance::FromSnapshot(std::move(pop), std::move(der),
                                  comments);
}

}  // namespace

Result<std::string> SaveBinarySnapshot(const S3Instance& inst) {
  if (!inst.finalized()) {
    return Status::FailedPrecondition(
        "binary snapshots require a finalized instance (the format "
        "serializes derived state)");
  }
  return EncodeSnapshot(inst);
}

Result<std::shared_ptr<const S3Instance>> LoadBinarySnapshot(
    std::string_view bytes) {
  // Heap load: no region to pin, every section copied and every
  // checksum (aligned ones included) verified up front.
  SnapshotAttachOptions opts;
  opts.allow_views = false;
  opts.eager_crc = true;
  return DecodeSnapshot(bytes, /*region=*/nullptr, opts);
}

Result<std::shared_ptr<const S3Instance>> AttachBinarySnapshot(
    std::shared_ptr<const MappedRegion> region,
    const SnapshotAttachOptions& options) {
  if (region == nullptr) {
    return Status::InvalidArgument("attach: null mapped region");
  }
  const std::string_view bytes = region->view();
  return DecodeSnapshot(bytes, std::move(region), options);
}

Result<SnapshotInfo> InspectBinarySnapshot(std::string_view bytes) {
  SnapshotInfo info;
  info.version = kBinarySnapshotV2;
  Entry entries[kSectionCount];
  S3_RETURN_IF_ERROR(ParseTable(bytes, entries));
  for (uint32_t id = 1; id <= kSectionCount; ++id) {
    const Entry& e = entries[id - 1];
    SnapshotSectionInfo s;
    s.id = id;
    s.name = SectionName(id);
    s.size = e.disk_size;
    s.crc = e.crc;
    s.crc_ok = Crc32(e.payload) == e.crc;
    s.encoding = EncodingName(Spec(id).encoding);
    s.mem_bytes = e.mem_bytes;
    info.sections.push_back(s);
  }
  if (info.sections[kMeta - 1].crc_ok) {
    Meta meta;
    ByteReader r(entries[kMeta - 1].payload);
    if (ReadMeta(r, meta)) {
      info.generation = meta.generation;
      info.lineage = meta.lineage;
      info.rdf_social_edges = meta.rdf_social_edges;
      info.n_users = meta.n_users;
      info.n_docs = meta.n_docs;
      info.n_nodes = meta.n_nodes;
      info.n_tags = meta.n_tags;
      info.n_keywords = meta.n_keywords;
      info.n_edges = meta.n_edges;
      info.n_terms = meta.n_terms;
      info.n_triples = meta.n_triples;
    }
  }
  return info;
}

}  // namespace s3::core
