// Binary snapshot codec tests: round-trip fidelity (bit-for-bit
// derived state, generation/lineage, query equivalence, identical
// re-saved bytes), the inspector surface, and robustness — a
// truncated, bit-flipped or garbage snapshot must come back
// InvalidArgument, never crash (the sweep runs under ASan/UBSan in CI).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/binary_io.h"
#include "common/mmap_file.h"
#include "core/instance_delta.h"
#include "core/s3k.h"
#include "core/snapshot_binary.h"
#include "test_fixtures.h"
#include "workload/instance_stats.h"

namespace s3::core {
namespace {

// Committed bytes of a Figure 1 snapshot (tests/data/).
std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(S3_TEST_DATA_DIR "/") + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden fixture " << name;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ---- fidelity helpers --------------------------------------------------

// `check_identity` also pins generation/lineage — golden-fixture
// comparisons drop it (lineage tokens are per-process).
void ExpectSameDerivedState(const S3Instance& got, const S3Instance& want,
                            bool check_identity = true) {
  ASSERT_EQ(got.layout().total(), want.layout().total());

  // Transition matrix: rows and denominators bit for bit.
  ASSERT_EQ(got.matrix().rows(), want.matrix().rows());
  ASSERT_EQ(got.matrix().nonzeros(), want.matrix().nonzeros());
  for (uint32_t row = 0; row < want.matrix().rows(); ++row) {
    EXPECT_EQ(got.matrix().Denominator(row), want.matrix().Denominator(row))
        << "denominator row " << row;
    auto a = got.matrix().Row(row);
    auto b = want.matrix().Row(row);
    ASSERT_EQ(a.size(), b.size()) << "row " << row;
    for (size_t i = 0; i < b.size(); ++i) {
      EXPECT_EQ(a[i].first, b[i].first) << "row " << row;
      EXPECT_EQ(a[i].second, b[i].second) << "row " << row;
    }
  }

  // Component partition: identical ids per row.
  ASSERT_EQ(got.components().ComponentCount(),
            want.components().ComponentCount());
  for (uint32_t row = 0; row < want.layout().total(); ++row) {
    EXPECT_EQ(got.components().OfRow(row), want.components().OfRow(row))
        << "component of row " << row;
  }

  // Postings and the keyword -> component directory.
  for (KeywordId k = 0; k < want.vocabulary().size(); ++k) {
    EXPECT_EQ(testing::AsVector(got.index().Postings(k)),
              testing::AsVector(want.index().Postings(k)))
        << "postings of keyword " << k;
    EXPECT_EQ(testing::AsVector(got.ComponentsWithKeyword(k)),
              testing::AsVector(want.ComponentsWithKeyword(k)))
        << "components of keyword " << k;
  }

  if (check_identity) {
    EXPECT_EQ(got.generation(), want.generation());
    EXPECT_EQ(got.lineage(), want.lineage());
  }
  EXPECT_EQ(got.rdf_social_edges(), want.rdf_social_edges());
  EXPECT_EQ(got.saturation_stats().derived_triples,
            want.saturation_stats().derived_triples);
  EXPECT_EQ(got.terms().size(), want.terms().size());
  EXPECT_EQ(got.rdf_graph().size(), want.rdf_graph().size());
}

void ExpectSameQueryResults(const S3Instance& got, const S3Instance& want,
                            const Query& q) {
  S3kOptions opts;
  opts.k = 5;
  auto a = S3kSearcher(got, opts).Search(q);
  auto b = S3kSearcher(want, opts).Search(q);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < b->size(); ++i) {
    EXPECT_EQ((*a)[i].node, (*b)[i].node) << "rank " << i;
    // Bit-for-bit: the reloaded derived structures are the saved ones.
    EXPECT_EQ((*a)[i].lower, (*b)[i].lower) << "rank " << i;
    EXPECT_EQ((*a)[i].upper, (*b)[i].upper) << "rank " << i;
  }
}

// ---- round trips -------------------------------------------------------

TEST(BinarySnapshotTest, RequiresFinalizedInstance) {
  S3Instance inst;
  inst.AddUser("u");
  auto saved = SaveBinarySnapshot(inst);
  EXPECT_EQ(saved.status().code(), StatusCode::kFailedPrecondition);
}

// Saves `inst`, loads the bytes back and checks that re-saving the
// loaded instance reproduces them exactly: every byte of the format —
// population, derived state, generation and lineage — survives.
std::shared_ptr<const S3Instance> RoundTrip(const S3Instance& inst) {
  auto blob = SaveBinarySnapshot(inst);
  EXPECT_TRUE(blob.ok()) << blob.status().ToString();
  if (!blob.ok()) return nullptr;
  auto loaded = LoadBinarySnapshot(*blob);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  if (!loaded.ok()) return nullptr;
  auto resaved = SaveBinarySnapshot(**loaded);
  EXPECT_TRUE(resaved.ok()) << resaved.status().ToString();
  if (resaved.ok()) EXPECT_EQ(*resaved, *blob);
  return *loaded;
}

TEST(BinarySnapshotTest, Figure1RoundTripBitForBit) {
  auto fig = s3::testing::BuildFigure1();
  auto loaded = RoundTrip(*fig.instance);
  ASSERT_NE(loaded, nullptr);
  ExpectSameDerivedState(*loaded, *fig.instance);
  ExpectSameQueryResults(*loaded, *fig.instance,
                         Query{fig.u1, {fig.kw_degree}});
  ExpectSameQueryResults(*loaded, *fig.instance,
                         Query{fig.u0, {fig.kw_university, fig.kw_ms}});
}

TEST(BinarySnapshotTest, Figure3RoundTripKeepsThePopulation) {
  auto fig = s3::testing::BuildFigure3();
  auto loaded = RoundTrip(*fig.instance);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->UserCount(), fig.instance->UserCount());
  EXPECT_EQ(loaded->TagCount(), fig.instance->TagCount());
  EXPECT_EQ(loaded->docs().NodeCount(), fig.instance->docs().NodeCount());
  EXPECT_EQ(loaded->edges().size(), fig.instance->edges().size());
  EXPECT_TRUE(loaded->docs().FindByUri("URI0.1.1").ok());
  ExpectSameDerivedState(*loaded, *fig.instance);
}

TEST(BinarySnapshotTest, EmptyInstanceRoundTrips) {
  S3Instance inst;
  ASSERT_TRUE(inst.Finalize().ok());
  auto loaded = RoundTrip(inst);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->UserCount(), 0u);
  EXPECT_EQ(loaded->docs().DocumentCount(), 0u);
  EXPECT_EQ(loaded->vocabulary().size(), 0u);
}

TEST(BinarySnapshotTest, SpacesInNamesSurvive) {
  S3Instance inst;
  auto u = inst.AddUser("user with space");
  KeywordId kw = inst.InternKeyword("two words");
  doc::Document d("name with space");
  d.AddKeywords(0, {kw});
  ASSERT_TRUE(inst.AddDocument(std::move(d), "uri with space", u).ok());
  ASSERT_TRUE(inst.Finalize().ok());
  auto loaded = RoundTrip(inst);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->users()[0].uri, "user with space");
  EXPECT_EQ(loaded->vocabulary().Spelling(kw), "two words");
  EXPECT_TRUE(loaded->docs().FindByUri("uri with space").ok());
  EXPECT_EQ(loaded->docs().Name(0), "name with space");
}

// RDF weights are stored as IEEE doubles: a weight no short decimal
// spells comes back bit for bit, and the S3:social sub-property edge it
// carries is imported again.
TEST(BinarySnapshotTest, RdfWeightsSurviveBitForBit) {
  constexpr double kWeight = 0.123456789;
  S3Instance inst;
  inst.AddUser("a");
  inst.AddUser("b");
  inst.DeclareSubProperty("sim", "S3:social");
  const rdf::TermId a = inst.terms().InternUri("a");
  const rdf::TermId sim = inst.terms().InternUri("sim");
  const rdf::TermId b = inst.terms().InternUri("b");
  inst.rdf_graph().Add(a, sim, b, kWeight);
  ASSERT_TRUE(inst.Finalize().ok());
  auto loaded = RoundTrip(inst);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->rdf_social_edges(), 1u);
  EXPECT_EQ(std::bit_cast<uint64_t>(loaded->rdf_graph().Weight(a, sim, b)),
            std::bit_cast<uint64_t>(kWeight));
}

// A document may comment on several fragments. The snapshot keeps
// every target: the EDGES log carries one kCommentsOn edge per target,
// on the heap load and on the mapped attach alike.
TEST(BinarySnapshotTest, EveryCommentTargetSurvives) {
  S3Instance inst;
  auto u = inst.AddUser("u");
  auto add_doc = [&](const std::string& uri) {
    doc::Document d("post");
    d.AddKeywords(0, {inst.InternKeyword(uri)});
    return *inst.AddDocument(std::move(d), uri, u);
  };
  const doc::DocId a = add_doc("a");
  const doc::DocId b = add_doc("b");
  const doc::DocId c = add_doc("c");
  const doc::NodeId a_root = inst.docs().RootNode(a);
  const doc::NodeId b_root = inst.docs().RootNode(b);
  ASSERT_TRUE(inst.AddComment(c, a_root).ok());
  ASSERT_TRUE(inst.AddComment(c, b_root).ok());
  ASSERT_TRUE(inst.Finalize().ok());
  ASSERT_EQ(inst.CommentsOnFragment(a_root).size(), 1u);
  ASSERT_EQ(inst.CommentsOnFragment(b_root).size(), 1u);

  auto blob = SaveBinarySnapshot(inst);
  ASSERT_TRUE(blob.ok());
  auto heap = LoadBinarySnapshot(*blob);
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  auto mapped = AttachBinarySnapshot(MappedRegion::FromBuffer(*blob));
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  for (const auto& loaded : {*heap, *mapped}) {
    EXPECT_EQ(loaded->CommentsOnFragment(a_root).size(), 1u);
    EXPECT_EQ(loaded->CommentsOnFragment(b_root).size(), 1u);
  }
}

TEST(BinarySnapshotTest, RandomInstancesRoundTrip) {
  for (uint64_t seed : {31ull, 32ull, 33ull, 71ull, 72ull, 73ull}) {
    s3::testing::RandomInstanceParams p;
    p.seed = seed;
    auto ri = s3::testing::BuildRandomInstance(p);
    auto loaded = RoundTrip(*ri.instance);
    ASSERT_NE(loaded, nullptr) << "seed " << seed;

    workload::InstanceStats a = workload::ComputeStats(*ri.instance);
    workload::InstanceStats b = workload::ComputeStats(*loaded);
    EXPECT_EQ(a.users, b.users) << seed;
    EXPECT_EQ(a.documents, b.documents) << seed;
    EXPECT_EQ(a.tags, b.tags) << seed;
    EXPECT_EQ(a.social_edges, b.social_edges) << seed;
    EXPECT_EQ(a.network_edges, b.network_edges) << seed;
    EXPECT_EQ(a.keyword_occurrences, b.keyword_occurrences) << seed;
    EXPECT_EQ(a.components, b.components) << seed;
    EXPECT_EQ(a.rdf_triples, b.rdf_triples) << seed;
    ExpectSameDerivedState(*loaded, *ri.instance);
    for (KeywordId k : ri.keywords) {
      ExpectSameQueryResults(*loaded, *ri.instance, Query{0, {k}});
    }
  }
}

TEST(BinarySnapshotTest, SavedBytesAreDeterministic) {
  auto fig = s3::testing::BuildFigure3();
  auto a = SaveBinarySnapshot(*fig.instance);
  auto b = SaveBinarySnapshot(*fig.instance);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

// An applied-delta generation round-trips with its generation and
// lineage, and continues to accept deltas after reload exactly like
// the never-serialized instance.
TEST(BinarySnapshotTest, AppliedGenerationRoundTripsAndStaysLive) {
  auto fig = s3::testing::BuildFigure1();
  std::shared_ptr<const S3Instance> base = std::move(fig.instance);

  InstanceDelta delta(base);
  doc::Document d("doc");
  d.AddKeywords(0, {delta.InternKeyword("fresh")});
  ASSERT_TRUE(delta.AddDocument(std::move(d), "gen1-doc", fig.u2).ok());
  ASSERT_TRUE(delta.AddSocialEdge(fig.u0, fig.u2, 0.4).ok());
  auto gen1 = base->ApplyDelta(delta);
  ASSERT_TRUE(gen1.ok());
  ASSERT_EQ((*gen1)->generation(), 1u);

  auto blob = SaveBinarySnapshot(**gen1);
  ASSERT_TRUE(blob.ok());
  auto loaded = LoadBinarySnapshot(*blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->generation(), 1u);
  EXPECT_EQ((*loaded)->lineage(), (*gen1)->lineage());
  ExpectSameDerivedState(**loaded, **gen1);

  // Same further delta against both: successors must agree bit for bit.
  auto extend = [&](std::shared_ptr<const S3Instance> snap) {
    InstanceDelta next(snap);
    doc::Document nd("doc");
    nd.AddKeywords(0, {next.InternKeyword("fresh")});
    EXPECT_TRUE(next.AddDocument(std::move(nd), "gen2-doc", fig.u1).ok());
    auto applied = snap->ApplyDelta(next);
    EXPECT_TRUE(applied.ok());
    return *applied;
  };
  auto live2 = extend(*gen1);
  auto reloaded2 = extend(*loaded);
  EXPECT_EQ(reloaded2->generation(), 2u);
  ExpectSameQueryResults(*reloaded2, *live2,
                         Query{fig.u0, {fig.kw_university}});
}

// A fresh Finalize after restoring a snapshot must not collide with
// the restored lineage token.
TEST(BinarySnapshotTest, RestoredLineageIsReserved) {
  auto fig = s3::testing::BuildFigure3();
  auto blob = SaveBinarySnapshot(*fig.instance);
  ASSERT_TRUE(blob.ok());
  auto loaded = LoadBinarySnapshot(*blob);
  ASSERT_TRUE(loaded.ok());

  auto other = s3::testing::BuildFigure3();  // runs Finalize
  EXPECT_NE(other.instance->lineage(), (*loaded)->lineage());
}

// ---- inspection --------------------------------------------------------

TEST(SnapshotInspectTest, ReportsSectionsAndMeta) {
  auto fig = s3::testing::BuildFigure1();
  auto blob = SaveBinarySnapshot(*fig.instance);
  ASSERT_TRUE(blob.ok());
  auto info = InspectBinarySnapshot(*blob);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, kBinarySnapshotV2);
  EXPECT_EQ(info->generation, 0u);
  EXPECT_EQ(info->lineage, fig.instance->lineage());
  EXPECT_EQ(info->n_users, fig.instance->UserCount());
  EXPECT_EQ(info->n_nodes, fig.instance->docs().NodeCount());
  EXPECT_EQ(info->n_tags, fig.instance->TagCount());
  ASSERT_EQ(info->sections.size(), 17u);
  for (const auto& section : info->sections) {
    EXPECT_TRUE(section.crc_ok) << section.name;
    // Compact sections report the decoded footprint they expand to; raw
    // and aligned sections are stored as-is.
    if (std::string_view(section.encoding) == "varint-delta") {
      EXPECT_GE(section.mem_bytes, section.size) << section.name;
    } else {
      EXPECT_EQ(section.mem_bytes, section.size) << section.name;
    }
  }
  // The aligned (zero-copy) sections sit at 64-byte file offsets.
  std::vector<std::string_view> aligned;
  for (const auto& section : info->sections) {
    if (std::string_view(section.encoding) == "aligned") {
      aligned.push_back(section.name);
    }
  }
  EXPECT_EQ(aligned, (std::vector<std::string_view>{
                         "MATRIXROWPTR", "MATRIXVALS", "MATRIXDENOM",
                         "FOREST"}));
}

TEST(SnapshotInspectTest, FlagsCorruptSection) {
  auto fig = s3::testing::BuildFigure1();
  auto blob = SaveBinarySnapshot(*fig.instance);
  ASSERT_TRUE(blob.ok());
  // Flip a byte near the end (inside the last section's payload).
  std::string corrupt = *blob;
  corrupt[corrupt.size() - 3] ^= 0x40;
  auto info = InspectBinarySnapshot(corrupt);
  ASSERT_TRUE(info.ok());
  bool any_bad = false;
  for (const auto& section : info->sections) any_bad |= !section.crc_ok;
  EXPECT_TRUE(any_bad);
  // And the loader refuses it.
  EXPECT_EQ(LoadBinarySnapshot(corrupt).status().code(),
            StatusCode::kInvalidArgument);
}

// ---- robustness: corrupt binary input ----------------------------------

// Every truncation, bit flip and garbage input must be rejected.
class BinarySnapshotRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fig = s3::testing::BuildFigure1();
    auto blob = SaveBinarySnapshot(*fig.instance);
    ASSERT_TRUE(blob.ok());
    blob_ = std::move(*blob);
  }

  // Load must fail cleanly — InvalidArgument, no crash, no UB.
  void ExpectRejected(std::string_view bytes, const std::string& what) {
    auto loaded = LoadBinarySnapshot(bytes);
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << what << ": " << loaded.status().ToString();
  }

  std::string blob_;
};

TEST_F(BinarySnapshotRobustnessTest, TruncationsNeverCrash) {
  // Dense sweep over the header + first sections, coarse sweep beyond.
  for (size_t len = 0; len < std::min<size_t>(blob_.size(), 300); ++len) {
    ExpectRejected(std::string_view(blob_).substr(0, len),
                   "truncated to " + std::to_string(len));
  }
  for (size_t len = 300; len < blob_.size(); len += 97) {
    ExpectRejected(std::string_view(blob_).substr(0, len),
                   "truncated to " + std::to_string(len));
  }
}

TEST_F(BinarySnapshotRobustnessTest, BitFlipsNeverCrash) {
  for (size_t at = 0; at < blob_.size(); at += 13) {
    for (int bit : {0, 3, 7}) {
      std::string corrupt = blob_;
      corrupt[at] = static_cast<char>(corrupt[at] ^ (1 << bit));
      // Every byte is either a validated header field or covered by a
      // section checksum, so any flip must be detected.
      ExpectRejected(corrupt, "bit " + std::to_string(bit) + " at byte " +
                                  std::to_string(at));
    }
  }
}

TEST_F(BinarySnapshotRobustnessTest, GarbageNeverCrashes) {
  ExpectRejected("", "empty");
  ExpectRejected("S3 v1\nUSER u\n", "text dump fed to binary loader");
  std::string junk(4096, '\0');
  for (size_t i = 0; i < junk.size(); ++i) {
    junk[i] = static_cast<char>((i * 131 + 17) & 0xff);
  }
  ExpectRejected(junk, "pseudo-random junk");
  // Valid magic followed by junk.
  std::string magic_junk = blob_.substr(0, 8) + junk;
  ExpectRejected(magic_junk, "magic + junk");
  // Trailing garbage after a valid snapshot.
  ExpectRejected(blob_ + "tail", "trailing bytes");
  // A format version no reader knows (the u32 after the magic).
  std::string bad_version = blob_;
  bad_version[8] = 7;
  ExpectRejected(bad_version, "unknown format version");
  // Format v1 is no longer read; the error names the upgrade path.
  std::string v1 = blob_;
  v1[8] = 1;
  ExpectRejected(v1, "format version 1");
  for (const auto& status :
       {LoadBinarySnapshot(v1).status(),
        AttachBinarySnapshot(MappedRegion::FromBuffer(v1)).status(),
        InspectBinarySnapshot(v1).status()}) {
    EXPECT_NE(status.message().find("v1 is no longer read"),
              std::string::npos)
        << status.ToString();
    EXPECT_NE(status.message().find("s3_snapshot convert"),
              std::string::npos)
        << status.ToString();
  }
}

// File offset and size of a section's payload, straight from the
// section table (magic 8 + version/count/crc 12, then 36-byte entries:
// id u32, encoding u8, elem u8, reserved u16, offset u64, size u64,
// mem u64, crc u32).
constexpr size_t kTableAt = 8 + 12;
constexpr size_t kTableEntryBytes = 36;
constexpr uint32_t kSections = 17;

std::pair<size_t, size_t> SectionExtent(const std::string& blob,
                                        uint32_t id) {
  const size_t entry = kTableAt + (id - 1) * kTableEntryBytes;
  ByteReader r(std::string_view(blob).substr(entry, kTableEntryBytes));
  r.Skip(8);
  const uint64_t offset = r.U64();
  const uint64_t size = r.U64();
  return {static_cast<size_t>(offset), static_cast<size_t>(size)};
}

void PutU32(std::string& blob, size_t at, uint32_t v) {
  std::string bytes;
  ByteWriter(&bytes).U32(v);
  blob.replace(at, 4, bytes);
}

// Refreshes a rewritten section's payload CRC and the table CRC over
// it, so only structural validation sees the change.
void ResealSection(std::string& blob, uint32_t id) {
  const auto [at, size] = SectionExtent(blob, id);
  const size_t entry = kTableAt + (id - 1) * kTableEntryBytes;
  PutU32(blob, entry + kTableEntryBytes - 4,
         Crc32(std::string_view(blob).substr(at, size)));
  PutU32(blob, kTableAt - 4,
         Crc32(std::string_view(blob).substr(
             kTableAt, kSections * kTableEntryBytes)));
}

// A *checksum-valid* but semantically hostile snapshot must still be
// rejected: rewrite a section payload and refresh its stored CRC and
// the table CRC over it, so only structural validation stands between
// the bytes and the engine.
TEST(BinarySnapshotConfusionTest, CrcValidKindConfusionIsRejected) {
  constexpr uint32_t kEdgesId = 10;
  const std::string blob = ReadGolden("figure1_v2.snap");
  const auto [edges_at, edges_size] = SectionExtent(blob, kEdgesId);

  // Walk the EDGES stream (varint count, then per edge an opcode:
  // 0x40 and 0x41 stand alone, an edge label is followed by source and
  // target varints and a weight tag) to the first explicit kCommentsOn
  // record.
  ByteReader r(std::string_view(blob).substr(edges_at, edges_size));
  const uint64_t n = r.Var();
  size_t source_at = 0;
  for (uint64_t i = 0; i < n && source_at == 0 && r.ok(); ++i) {
    const uint8_t op = r.U8();
    if (op == 0x40 || op == 0x41) continue;
    const size_t at = r.offset();
    const uint64_t source = r.Var();
    (void)r.Var();  // target
    if (r.U8() == 1) (void)r.F64();
    if (op == static_cast<uint8_t>(social::EdgeLabel::kCommentsOn)) {
      // One varint byte: (index << 2) | kind, Fragment 9.
      ASSERT_EQ(source, (9u << 2) | 1u);
      source_at = edges_at + at;
    }
  }
  ASSERT_NE(source_at, 0u) << "no explicit kCommentsOn edge in the fixture";

  // Rewrite the source to User 0 (kind bits 00): in range for USERS,
  // hostile for the comments_on_ rebuild, invisible to the checksums
  // once they are refreshed.
  std::string corrupt = blob;
  corrupt[source_at] = '\0';
  ResealSection(corrupt, kEdgesId);

  // Sanity: every checksum passes inspection...
  auto info = InspectBinarySnapshot(corrupt);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  for (const auto& section : info->sections) {
    EXPECT_TRUE(section.crc_ok) << section.name;
  }
  // ...and the loader still rejects the kind confusion.
  auto loaded = LoadBinarySnapshot(corrupt);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("kinds do not match"),
            std::string::npos)
      << loaded.status().ToString();
}

// COMMENTS duplicates the last kCommentsOn target of each document's
// root in EDGES. A CRC-valid COMMENTS that names another target must
// not load: doc 1 comments on node 0 in the fixture; point it at 2.
TEST(BinarySnapshotConfusionTest, CommentsDisagreeingWithEdgesAreRejected) {
  constexpr uint32_t kCommentsId = 7;
  const std::string blob = ReadGolden("figure1_v2.snap");
  const auto [comments_at, comments_size] = SectionExtent(blob, kCommentsId);

  // Varint document count, then one varint per document: target + 1,
  // or 0 for none.
  ByteReader r(std::string_view(blob).substr(comments_at, comments_size));
  ASSERT_GE(r.Var(), 2u);
  (void)r.Var();  // doc 0
  const size_t doc1_at = comments_at + r.offset();
  ASSERT_EQ(r.Var(), 1u) << "doc 1 should comment on node 0";
  ASSERT_EQ(comments_at + r.offset(), doc1_at + 1);  // one varint byte

  std::string corrupt = blob;
  corrupt[doc1_at] = static_cast<char>(2 + 1);
  ResealSection(corrupt, kCommentsId);
  auto info = InspectBinarySnapshot(corrupt);
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  for (const auto& status :
       {LoadBinarySnapshot(corrupt).status(),
        AttachBinarySnapshot(MappedRegion::FromBuffer(corrupt)).status()}) {
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("COMMENTS"), std::string::npos)
        << status.ToString();
  }
}

// Byte offsets (into the whole blob) of the DOCS fields a hostile
// rewrite targets: u64 document count, then per document a u32-length
// root URI and a tree (u32 node count; per node u32 parent, u32-length
// name, u32 keyword count and the keyword ids).
struct DocsNodeAt {
  size_t parent_at = 0;
  size_t name_len_at = 0;
  size_t kw_count_at = 0;
  uint32_t kw_count = 0;
};
struct DocsDocAt {
  size_t uri_at = 0;  // the URI bytes
  std::string uri;
  size_t count_at = 0;
  std::vector<DocsNodeAt> nodes;
  size_t end = 0;
};

std::vector<DocsDocAt> WalkDocs(const std::string& blob) {
  constexpr uint32_t kDocsId = 6;
  const auto [at, size] = SectionExtent(blob, kDocsId);
  ByteReader r(std::string_view(blob).substr(at, size));
  std::vector<DocsDocAt> docs(r.U64());
  for (DocsDocAt& d : docs) {
    const uint32_t uri_len = r.U32();
    d.uri_at = at + r.offset();
    d.uri = std::string(r.Bytes(uri_len));
    d.count_at = at + r.offset();
    d.nodes.resize(r.U32());
    for (DocsNodeAt& n : d.nodes) {
      n.parent_at = at + r.offset();
      (void)r.U32();
      n.name_len_at = at + r.offset();
      r.Skip(r.U32());
      n.kw_count_at = at + r.offset();
      n.kw_count = r.U32();
      r.Skip(4 * size_t{n.kw_count});
    }
    d.end = at + r.offset();
  }
  EXPECT_TRUE(r.AtEnd());
  return docs;
}

// A CRC-valid DOCS payload must still be validated tree by tree: a
// forward parent, an out-of-range keyword, a duplicate root URI and a
// node total that disagrees with META are each refused by both the
// heap load and the mmap attach.
TEST(BinarySnapshotConfusionTest, CrcValidHostileDocsAreRejected) {
  constexpr uint32_t kDocsId = 6;
  const std::string blob = ReadGolden("figure1_v2.snap");
  const std::vector<DocsDocAt> docs = WalkDocs(blob);
  ASSERT_GE(docs.size(), 2u);
  ASSERT_EQ(docs[0].uri.size(), docs[1].uri.size());
  const DocsDocAt& wide = docs[0];
  ASSERT_GE(wide.nodes.size(), 3u);
  size_t kw_at = 0;
  for (const DocsNodeAt& n : wide.nodes) {
    if (n.kw_count > 0 && kw_at == 0) kw_at = n.kw_count_at + 4;
  }
  ASSERT_NE(kw_at, 0u) << "no keyword in the first document";

  // (refusal the message names, corrupt blob)
  std::vector<std::pair<std::string, std::string>> cases;
  {
    std::string c = blob;  // node 2's parent is itself
    PutU32(c, wide.nodes[2].parent_at, 2);
    cases.emplace_back("node parent out of range", std::move(c));
  }
  {
    std::string c = blob;
    PutU32(c, kw_at, 1000);  // the fixture interns 7 keywords
    cases.emplace_back("keyword id out of range", std::move(c));
  }
  {
    std::string c = blob;
    c.replace(docs[1].uri_at, docs[1].uri.size(), docs[0].uri);
    cases.emplace_back("document URI already registered", std::move(c));
  }
  {
    // Fold every non-root node of the first document into its root's
    // name, keywordless: the payload keeps its size and parses, but
    // holds fewer nodes than META counts.
    std::string c = blob;
    const DocsNodeAt& root = wide.nodes[0];
    PutU32(c, wide.count_at, 1);
    const size_t name_at = root.name_len_at + 4;
    PutU32(c, root.name_len_at,
           static_cast<uint32_t>(wide.end - 4 - name_at));
    PutU32(c, wide.end - 4, 0);
    cases.emplace_back("node total mismatch", std::move(c));
  }
  for (auto& [what, corrupt] : cases) {
    SCOPED_TRACE(what);
    ASSERT_NE(corrupt, blob);
    ResealSection(corrupt, kDocsId);
    auto info = InspectBinarySnapshot(corrupt);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    for (const auto& status :
         {LoadBinarySnapshot(corrupt).status(),
          AttachBinarySnapshot(MappedRegion::FromBuffer(corrupt)).status()}) {
      ASSERT_FALSE(status.ok());
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(status.message().find("DOCS"), std::string::npos)
          << status.ToString();
      EXPECT_NE(status.message().find(what), std::string::npos)
          << status.ToString();
    }
  }
}

// The golden DOCS bytes survive a load and re-save unchanged: the flat
// document store writes back exactly the trees and root URIs it read.
TEST(BinarySnapshotConfusionTest, GoldenDocsResaveByteIdentical) {
  constexpr uint32_t kDocsId = 6;
  const std::string blob = ReadGolden("figure1_v2.snap");
  auto loaded = LoadBinarySnapshot(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto resaved = SaveBinarySnapshot(**loaded);
  ASSERT_TRUE(resaved.ok()) << resaved.status().ToString();
  const auto [at, size] = SectionExtent(blob, kDocsId);
  const auto [re_at, re_size] = SectionExtent(*resaved, kDocsId);
  EXPECT_EQ(std::string_view(*resaved).substr(re_at, re_size),
            std::string_view(blob).substr(at, size));
}

// ---- malformed population sections -------------------------------------
// The flat decoders check what hash maps used to catch on insert. Each
// test decodes one section of a small instance's snapshot, plants one
// fault, re-encodes the section to its old length and reseals its CRC,
// so only the decoder's own checks stand between the bytes and the
// instance; the heap load and the mmap attach must both refuse the file
// with an InvalidArgument that names the section.

constexpr uint32_t kVocabId = 2;
constexpr uint32_t kTermsId = 4;
constexpr uint32_t kTriplesId = 5;
constexpr uint32_t kIndexId = 11;
constexpr uint32_t kKwCompsId = 17;

// Two users, two documents in separate components that share keyword
// kwb, a typed resource and a literal: every id fits a one-byte varint.
struct PopulationFixture {
  std::string blob;
  size_t n_nodes = 0;
  size_t n_keywords = 0;
  size_t n_components = 0;
};

PopulationFixture BuildPopulationFixture() {
  S3Instance inst;
  inst.AddUser("ua");
  inst.AddUser("ub");
  const KeywordId kwa = inst.InternKeyword("kwa");
  const KeywordId kwb = inst.InternKeyword("kwb");
  doc::Document d0("post");
  const uint32_t child = d0.AddChild(0, "p");
  d0.AddKeywords(0, {kwa});
  d0.AddKeywords(child, {kwa, kwb});
  EXPECT_TRUE(inst.AddDocument(std::move(d0), "da", 0).ok());
  doc::Document d1("post");
  d1.AddKeywords(0, {kwb});
  EXPECT_TRUE(inst.AddDocument(std::move(d1), "db", 1).ok());
  inst.DeclareType("kwa", "cls");
  inst.rdf_graph().Add(inst.terms().InternUri("kwa"),
                       inst.terms().InternUri("label"),
                       inst.terms().InternLiteral("lit"));
  EXPECT_TRUE(inst.Finalize().ok());
  auto blob = SaveBinarySnapshot(inst);
  EXPECT_TRUE(blob.ok()) << blob.status().ToString();
  return {blob.ok() ? *blob : std::string(), inst.docs().NodeCount(),
          inst.vocabulary().size(), inst.components().ComponentCount()};
}

std::string_view Payload(const std::string& blob, uint32_t id) {
  const auto [at, size] = SectionExtent(blob, id);
  return std::string_view(blob).substr(at, size);
}

// Swaps in section `id`'s faulty payload (same length), reseals it and
// expects both loaders to refuse it naming `section` and `why`.
void ExpectSectionFault(const std::string& blob, uint32_t id,
                        const std::string& payload,
                        const std::string& section, const std::string& why) {
  const auto [at, size] = SectionExtent(blob, id);
  ASSERT_EQ(payload.size(), size) << "the fault must keep the length";
  std::string corrupt = blob;
  corrupt.replace(at, size, payload);
  ASSERT_NE(corrupt, blob);
  ResealSection(corrupt, id);
  auto info = InspectBinarySnapshot(corrupt);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  for (const auto& s : info->sections) EXPECT_TRUE(s.crc_ok) << s.name;
  for (const auto& status :
       {LoadBinarySnapshot(corrupt).status(),
        AttachBinarySnapshot(MappedRegion::FromBuffer(corrupt)).status()}) {
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(section), std::string::npos)
        << status.ToString();
    EXPECT_NE(status.message().find(why), std::string::npos)
        << status.ToString();
  }
}

// VOCAB: a varint count, then one varint-length string per keyword.
TEST(PopulationSectionTest, DuplicateSpellingInVocabIsRejected) {
  const PopulationFixture fx = BuildPopulationFixture();
  ByteReader r(Payload(fx.blob, kVocabId));
  std::vector<std::string> spellings(r.Var());
  for (std::string& s : spellings) s = r.VarStr();
  ASSERT_TRUE(r.AtEnd());
  ASSERT_EQ(spellings, (std::vector<std::string>{"kwa", "kwb"}));
  spellings[1] = spellings[0];
  std::string p;
  ByteWriter w(&p);
  w.Var(spellings.size());
  for (const std::string& s : spellings) w.VarStr(s);
  ExpectSectionFault(fx.blob, kVocabId, p, "VOCAB", "duplicate spelling");
}

// TERMS: a varint count, then per term a kind byte (0: URI, 1:
// literal) and its text.
using WireTerms = std::vector<std::pair<uint8_t, std::string>>;

WireTerms DecodeTerms(std::string_view payload) {
  ByteReader r(payload);
  WireTerms terms(r.Var());
  for (auto& [kind, text] : terms) {
    kind = r.U8();
    text = r.VarStr();
  }
  EXPECT_TRUE(r.AtEnd());
  return terms;
}

size_t TermIndex(const WireTerms& terms, uint8_t kind,
                 const std::string& text) {
  auto it = std::find(terms.begin(), terms.end(), std::pair{kind, text});
  EXPECT_NE(it, terms.end()) << text;
  return static_cast<size_t>(it - terms.begin());
}

TEST(PopulationSectionTest, DuplicateTermInTermsIsRejected) {
  const PopulationFixture fx = BuildPopulationFixture();
  WireTerms terms = DecodeTerms(Payload(fx.blob, kTermsId));
  terms[TermIndex(terms, 0, "ub")].second = "ua";
  std::string p;
  ByteWriter w(&p);
  w.Var(terms.size());
  for (const auto& [kind, text] : terms) {
    w.U8(kind);
    w.VarStr(text);
  }
  ExpectSectionFault(fx.blob, kTermsId, p, "TERMS", "duplicate term");
}

// TRIPLES: a varint count, then per triple its subject, property and
// object varints and a weight tag (0: weight 1, 1: an f64 follows).
struct WireTriple {
  uint64_t s = 0, p = 0, o = 0;
  uint8_t tag = 0;
  double weight = 1.0;
};

std::vector<WireTriple> DecodeTriples(std::string_view payload) {
  ByteReader r(payload);
  std::vector<WireTriple> out(r.Var());
  for (WireTriple& t : out) {
    t.s = r.Var();
    t.p = r.Var();
    t.o = r.Var();
    t.tag = r.U8();
    if (t.tag == 1) t.weight = r.F64();
  }
  EXPECT_TRUE(r.AtEnd());
  return out;
}

std::string EncodeTriples(const std::vector<WireTriple>& triples) {
  std::string p;
  ByteWriter w(&p);
  w.Var(triples.size());
  for (const WireTriple& t : triples) {
    w.Var(t.s);
    w.Var(t.p);
    w.Var(t.o);
    w.U8(t.tag);
    if (t.tag == 1) w.F64(t.weight);
  }
  return p;
}

TEST(PopulationSectionTest, DuplicateTripleIsRejected) {
  const PopulationFixture fx = BuildPopulationFixture();
  std::vector<WireTriple> triples =
      DecodeTriples(Payload(fx.blob, kTriplesId));
  ASSERT_GE(triples.size(), 3u);
  triples[2] = triples[0];  // both weight 1
  ExpectSectionFault(fx.blob, kTriplesId, EncodeTriples(triples), "TRIPLES",
                     "duplicate triple");
}

TEST(PopulationSectionTest, LiteralSubjectTripleIsRejected) {
  const PopulationFixture fx = BuildPopulationFixture();
  std::vector<WireTriple> triples =
      DecodeTriples(Payload(fx.blob, kTriplesId));
  const size_t literal =
      TermIndex(DecodeTerms(Payload(fx.blob, kTermsId)), 1, "lit");
  ASSERT_NE(triples.front().s, literal);
  triples.front().s = literal;
  ExpectSectionFault(fx.blob, kTriplesId, EncodeTriples(triples), "TRIPLES",
                     "literal subject");
}

// INDEX and KWCOMPS: a varint entry count, then per entry its keyword
// (delta from the previous entry's), the list length and the list,
// delta-coded.
using KeywordLists = std::vector<std::pair<uint64_t, std::vector<uint64_t>>>;

KeywordLists DecodeKeywordLists(std::string_view payload) {
  ByteReader r(payload);
  KeywordLists out(r.Var());
  uint64_t k = 0;
  for (auto& [key, items] : out) {
    k += r.Var();
    key = k;
    items.resize(r.Var());
    uint64_t v = 0;
    for (uint64_t& item : items) item = v += r.Var();
  }
  EXPECT_TRUE(r.AtEnd());
  return out;
}

std::string EncodeKeywordLists(const KeywordLists& lists) {
  std::string p;
  ByteWriter w(&p);
  w.Var(lists.size());
  uint64_t prev_k = 0;
  for (const auto& [key, items] : lists) {
    w.Var(key - prev_k);
    prev_k = key;
    w.Var(items.size());
    uint64_t prev = 0;
    for (uint64_t item : items) {
      w.Var(item - prev);
      prev = item;
    }
  }
  return p;
}

// Per section, one fault case per entry of `faults`: (what the error
// names, the lists with that fault planted).
void ExpectKeywordListFaults(
    const std::string& blob, uint32_t id, const std::string& section,
    const std::vector<std::pair<std::string, KeywordLists>>& faults) {
  for (const auto& [why, lists] : faults) {
    SCOPED_TRACE(section + ": " + why);
    ExpectSectionFault(blob, id, EncodeKeywordLists(lists), section, why);
  }
}

// The lists hold two keywords (kwa, kwb), and kwb's list has two items.
KeywordLists FixtureLists(const std::string& blob, uint32_t id) {
  KeywordLists lists = DecodeKeywordLists(Payload(blob, id));
  EXPECT_EQ(lists.size(), 2u);
  EXPECT_GE(lists.size() == 2 ? lists[1].second.size() : 0, 2u);
  return lists;
}

std::vector<std::pair<std::string, KeywordLists>> NotAscendingFaults(
    const KeywordLists& lists) {
  KeywordLists repeated_key = lists;
  repeated_key[1].first = repeated_key[0].first;
  KeywordLists repeated_item = lists;
  repeated_item[1].second[1] = repeated_item[1].second[0];
  return {{"keyword ids not ascending", repeated_key},
          {"not ascending", repeated_item}};
}

std::vector<std::pair<std::string, KeywordLists>> OutOfRangeFaults(
    const KeywordLists& lists, uint64_t n_keywords, uint64_t item_bound,
    const std::string& item_why) {
  KeywordLists key = lists;
  key[1].first = n_keywords;
  KeywordLists item = lists;
  item[1].second.back() = item_bound;
  return {{"keyword ids not ascending/in range", key}, {item_why, item}};
}

TEST(PopulationSectionTest, NonAscendingIndexIsRejected) {
  const PopulationFixture fx = BuildPopulationFixture();
  ExpectKeywordListFaults(fx.blob, kIndexId, "INDEX",
                          NotAscendingFaults(FixtureLists(fx.blob, kIndexId)));
}

TEST(PopulationSectionTest, OutOfRangeIndexIsRejected) {
  const PopulationFixture fx = BuildPopulationFixture();
  ExpectKeywordListFaults(
      fx.blob, kIndexId, "INDEX",
      OutOfRangeFaults(FixtureLists(fx.blob, kIndexId), fx.n_keywords,
                       fx.n_nodes, "in range"));
}

TEST(PopulationSectionTest, NonAscendingKwCompsIsRejected) {
  const PopulationFixture fx = BuildPopulationFixture();
  ExpectKeywordListFaults(
      fx.blob, kKwCompsId, "KWCOMPS",
      NotAscendingFaults(FixtureLists(fx.blob, kKwCompsId)));
}

TEST(PopulationSectionTest, OutOfRangeKwCompsIsRejected) {
  const PopulationFixture fx = BuildPopulationFixture();
  // A component id past the forest's count is still below the row
  // bound the decoder applies; the attach refuses it against the forest.
  ExpectKeywordListFaults(
      fx.blob, kKwCompsId, "KWCOMPS",
      OutOfRangeFaults(FixtureLists(fx.blob, kKwCompsId), fx.n_keywords,
                       fx.n_components, "out of range"));
}

// ---- zero-copy attach --------------------------------------------------

class SnapshotAttachTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fig_ = s3::testing::BuildFigure1();
    auto blob = SaveBinarySnapshot(*fig_.instance);
    ASSERT_TRUE(blob.ok()) << blob.status().ToString();
    blob_ = std::move(*blob);
  }

  s3::testing::Figure1 fig_;
  std::string blob_;
};

TEST_F(SnapshotAttachTest, MmapAttachMatchesHeapLoadBitForBit) {
  auto region = MappedRegion::FromBuffer(blob_);
  auto attached = AttachBinarySnapshot(region);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  auto heap = LoadBinarySnapshot(blob_);
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();

  // The aligned sections really are views into the region (heap
  // buffers from FromBuffer are 16-byte aligned and every aligned
  // payload sits at a 64-byte file offset).
  EXPECT_TRUE((*attached)->matrix().values().is_view());
  EXPECT_TRUE((*attached)->matrix().row_ptr().is_view());
  EXPECT_TRUE((*attached)->matrix().denominators().is_view());
  EXPECT_TRUE((*attached)->components().forest().is_view());
  EXPECT_FALSE((*heap)->matrix().values().is_view());

  ExpectSameDerivedState(**attached, *fig_.instance);
  ExpectSameDerivedState(**attached, **heap);
  ExpectSameQueryResults(**attached, **heap,
                         Query{fig_.u1, {fig_.kw_degree}});
  ExpectSameQueryResults(**attached, *fig_.instance,
                         Query{fig_.u0, {fig_.kw_university, fig_.kw_ms}});
}

TEST_F(SnapshotAttachTest, DeltaChainsOnMmapBaseMatchHeapBase) {
  auto region = MappedRegion::FromBuffer(blob_);
  auto attached = AttachBinarySnapshot(region);
  ASSERT_TRUE(attached.ok());
  auto heap = LoadBinarySnapshot(blob_);
  ASSERT_TRUE(heap.ok());

  // The same two-delta chain applied to a view-backed and a heap base
  // must produce bit-identical successors: IncrementalUpdate and
  // BuildIncremental read the base (possibly through views) and write
  // only owned scratch.
  auto extend = [&](std::shared_ptr<const S3Instance> snap) {
    InstanceDelta d1(snap);
    doc::Document nd("doc");
    nd.AddKeywords(0, {d1.InternKeyword("mmap")});
    EXPECT_TRUE(d1.AddDocument(std::move(nd), "mmap-doc", fig_.u2).ok());
    EXPECT_TRUE(d1.AddSocialEdge(fig_.u0, fig_.u2, 0.25).ok());
    auto gen1 = snap->ApplyDelta(d1);
    EXPECT_TRUE(gen1.ok());
    InstanceDelta d2(*gen1);
    EXPECT_TRUE(
        d2.AddTagOnFragment(fig_.u1, fig_.d0_root, d2.InternKeyword("mmap"))
            .ok());
    auto gen2 = (*gen1)->ApplyDelta(d2);
    EXPECT_TRUE(gen2.ok());
    return *gen2;
  };
  auto from_view = extend(*attached);
  auto from_heap = extend(*heap);
  ASSERT_EQ(from_view->generation(), 2u);
  ExpectSameDerivedState(*from_view, *from_heap);
  ExpectSameQueryResults(*from_view, *from_heap,
                         Query{fig_.u1, {fig_.kw_degree}});
}

TEST_F(SnapshotAttachTest, ViewsOutliveTheRegionHandle) {
  auto region = MappedRegion::FromBuffer(blob_);
  auto attached = AttachBinarySnapshot(region);
  ASSERT_TRUE(attached.ok());
  // Dropping the caller's handle must not invalidate the views — the
  // spans pin the region.
  region.reset();
  ExpectSameQueryResults(**attached, *fig_.instance,
                         Query{fig_.u1, {fig_.kw_degree}});
}

TEST_F(SnapshotAttachTest, MisalignedRegionsFallBackToCopies) {
  for (size_t misalign : {1u, 2u, 3u, 4u, 5u, 6u, 7u}) {
    auto region = MappedRegion::FromBuffer(blob_, misalign);
    auto attached = AttachBinarySnapshot(region);
    ASSERT_TRUE(attached.ok())
        << "misalign " << misalign << ": " << attached.status().ToString();
    if (misalign % alignof(double) != 0) {
      EXPECT_FALSE((*attached)->matrix().values().is_view())
          << "misalign " << misalign;
    }
    if (misalign % alignof(uint32_t) != 0) {
      EXPECT_FALSE((*attached)->components().forest().is_view())
          << "misalign " << misalign;
    }
    ExpectSameDerivedState(**attached, *fig_.instance);
  }
}

TEST_F(SnapshotAttachTest, LazyCrcSkipsAlignedEagerCatchesIt) {
  // Corrupt one byte inside MATRIXVALS (aligned, lazily verified).
  auto [offset, size] = SectionExtent(blob_, 14);
  ASSERT_GT(size, 0u);
  std::string corrupt = blob_;
  corrupt[offset + size / 2] ^= 0x10;

  // Lazy attach admits it (the structural shape is intact — that is
  // the documented trade of skipping the float-array CRC pass)...
  auto lazy = AttachBinarySnapshot(MappedRegion::FromBuffer(corrupt));
  EXPECT_TRUE(lazy.ok()) << lazy.status().ToString();
  // ...eager attach and the heap loader both reject it.
  SnapshotAttachOptions eager;
  eager.eager_crc = true;
  auto checked =
      AttachBinarySnapshot(MappedRegion::FromBuffer(corrupt), eager);
  ASSERT_FALSE(checked.ok());
  EXPECT_EQ(checked.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadBinarySnapshot(corrupt).status().code(),
            StatusCode::kInvalidArgument);

  // Corruption in a *compact* section is caught even by the lazy
  // attach — those decode (and checksum) at attach time.
  auto [c_offset, c_size] = SectionExtent(blob_, 13);  // MATRIXCOLS
  ASSERT_GT(c_size, 0u);
  std::string compact_corrupt = blob_;
  compact_corrupt[c_offset] ^= 0x01;
  auto rejected =
      AttachBinarySnapshot(MappedRegion::FromBuffer(compact_corrupt));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotAttachTest, EagerAttachRejectsEveryTruncationAndFlip) {
  SnapshotAttachOptions eager;
  eager.eager_crc = true;
  for (size_t len = 0; len < blob_.size(); len += 61) {
    auto region = MappedRegion::FromBuffer(
        std::string_view(blob_).substr(0, len));
    auto attached = AttachBinarySnapshot(region, eager);
    ASSERT_FALSE(attached.ok()) << "truncated to " << len;
    EXPECT_EQ(attached.status().code(), StatusCode::kInvalidArgument);
  }
  for (size_t at = 0; at < blob_.size(); at += 17) {
    std::string corrupt = blob_;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x20);
    auto attached =
        AttachBinarySnapshot(MappedRegion::FromBuffer(corrupt), eager);
    ASSERT_FALSE(attached.ok()) << "flip at byte " << at;
    EXPECT_EQ(attached.status().code(), StatusCode::kInvalidArgument);
  }
}

// Many threads attach from one shared region and query concurrently —
// the mmap-attach leg of the TSan CI job (*Concurrent* filter).
TEST_F(SnapshotAttachTest, ConcurrentAttachAndQueryFromOneRegion) {
  auto region = MappedRegion::FromBuffer(blob_);
  // One shared pre-attached instance, queried from every thread...
  auto shared = AttachBinarySnapshot(region);
  ASSERT_TRUE(shared.ok());
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // ...plus a private attach per thread against the same region.
      auto mine = AttachBinarySnapshot(region);
      if (!mine.ok()) {
        ++failures;
        return;
      }
      S3kOptions opts;
      opts.k = 3;
      for (int i = 0; i < 25; ++i) {
        const auto& inst = (i % 2 == 0) ? **shared : **mine;
        auto r = S3kSearcher(inst, opts).Search(
            Query{static_cast<social::UserId>(t % 3), {fig_.kw_degree}});
        if (!r.ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---- golden fixture ----------------------------------------------------
// Committed bytes of a Figure 1 snapshot. A codec change that can no
// longer read them is a compatibility break, not a test to update.

TEST(GoldenSnapshotTest, LoadsAndMatchesFreshBuild) {
  const std::string blob = ReadGolden("figure1_v2.snap");
  ASSERT_FALSE(blob.empty());
  auto fig = s3::testing::BuildFigure1();

  auto loaded = LoadBinarySnapshot(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameDerivedState(**loaded, *fig.instance,
                         /*check_identity=*/false);
  ExpectSameQueryResults(**loaded, *fig.instance,
                         Query{fig.u1, {fig.kw_degree}});

  auto attached = AttachBinarySnapshot(MappedRegion::FromBuffer(blob));
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  ExpectSameDerivedState(**attached, *fig.instance,
                         /*check_identity=*/false);
}

// ---- WAL record framing ------------------------------------------------

TEST(WalRecordTest, EncodeDecodeRoundTrip) {
  auto fig = s3::testing::BuildFigure1();
  std::shared_ptr<const S3Instance> base = std::move(fig.instance);

  InstanceDelta delta(base);
  doc::Document d("doc");
  uint32_t child = d.AddChild(0, "para");
  d.AddKeywords(child, {delta.InternKeyword("walword")});
  auto new_doc = delta.AddDocument(std::move(d), "wal-doc", fig.u3);
  ASSERT_TRUE(new_doc.ok());
  ASSERT_TRUE(delta.AddComment(*new_doc, fig.d0_3_2).ok());
  ASSERT_TRUE(delta.AddTagOnFragment(fig.u0, fig.d0_5_1,
                                     delta.InternKeyword("walword"))
                  .ok());
  ASSERT_TRUE(delta.AddSocialEdge(fig.u0, fig.u1, 0.25).ok());

  std::string wal;
  delta.EncodeWalRecord(&wal);
  auto info = InstanceDelta::PeekWalRecord(wal);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->base_generation, 0u);
  EXPECT_EQ(info->base_lineage, base->lineage());
  EXPECT_EQ(info->record_bytes, wal.size());

  size_t consumed = 0;
  auto decoded = InstanceDelta::DecodeWalRecord(wal, &consumed, base);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(consumed, wal.size());
  EXPECT_EQ(decoded->op_count(), delta.op_count());

  // Applying original and decoded deltas yields identical successors.
  auto a = base->ApplyDelta(delta);
  auto b = base->ApplyDelta(*decoded);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameDerivedState(**b, **a);
}

TEST(WalRecordTest, CorruptRecordsAreRejected) {
  auto fig = s3::testing::BuildFigure3();
  std::shared_ptr<const S3Instance> base = std::move(fig.instance);
  InstanceDelta delta(base);
  ASSERT_TRUE(delta.AddSocialEdge(fig.u0, fig.u2, 0.5).ok());
  std::string wal;
  delta.EncodeWalRecord(&wal);

  size_t consumed = 0;
  for (size_t len = 0; len < wal.size(); ++len) {
    EXPECT_FALSE(InstanceDelta::PeekWalRecord(
                     std::string_view(wal).substr(0, len))
                     .ok())
        << "truncated to " << len;
  }
  for (size_t at = 0; at < wal.size(); ++at) {
    std::string corrupt = wal;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x08);
    EXPECT_FALSE(
        InstanceDelta::DecodeWalRecord(corrupt, &consumed, base).ok())
        << "flip at " << at;
  }

  // A record decoded against the wrong generation is refused.
  auto next = base->ApplyDelta(delta);
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(InstanceDelta::DecodeWalRecord(wal, &consumed, *next).ok());
}

// Two records back to back are self-delimiting.
TEST(WalRecordTest, RecordsAreSelfDelimiting) {
  auto fig = s3::testing::BuildFigure3();
  std::shared_ptr<const S3Instance> base = std::move(fig.instance);

  InstanceDelta first(base);
  ASSERT_TRUE(first.AddSocialEdge(fig.u0, fig.u2, 0.5).ok());
  std::string wal;
  first.EncodeWalRecord(&wal);
  const size_t first_bytes = wal.size();

  auto gen1 = base->ApplyDelta(first);
  ASSERT_TRUE(gen1.ok());
  InstanceDelta second(*gen1);
  ASSERT_TRUE(second.AddSocialEdge(fig.u2, fig.u0, 0.7).ok());
  second.EncodeWalRecord(&wal);

  size_t consumed = 0;
  auto d1 = InstanceDelta::DecodeWalRecord(wal, &consumed, base);
  ASSERT_TRUE(d1.ok());
  EXPECT_EQ(consumed, first_bytes);
  auto applied1 = base->ApplyDelta(*d1);
  ASSERT_TRUE(applied1.ok());

  auto d2 = InstanceDelta::DecodeWalRecord(
      std::string_view(wal).substr(consumed), &consumed, *applied1);
  ASSERT_TRUE(d2.ok()) << d2.status().ToString();
  auto applied2 = (*applied1)->ApplyDelta(*d2);
  ASSERT_TRUE(applied2.ok());
  EXPECT_EQ((*applied2)->generation(), 2u);
}

// ---- derived column maximum ---------------------------------------------
// TransitionMatrix::ColumnMax() is derived, never stored: every path
// that produces a matrix — Build, ApplyDelta's IncrementalUpdate, and
// Adopt under a mapped attach or a heap load — must leave it equal, bit
// for bit, to the maximum over the Row() entries of each column.

void ExpectColumnMaxMatchesRows(const S3Instance& inst,
                                const std::string& what) {
  const social::TransitionMatrix& m = inst.matrix();
  std::vector<double> want(m.rows(), 0.0);
  for (uint32_t row = 0; row < m.rows(); ++row) {
    for (const auto& [col, v] : m.Row(row)) {
      want[col] = std::max(want[col], v);
    }
  }
  ASSERT_EQ(m.ColumnMax().size(), want.size()) << what;
  for (size_t col = 0; col < want.size(); ++col) {
    EXPECT_EQ(m.ColumnMax()[col], want[col]) << what << " column " << col;
  }
}

TEST(ColumnMaxTest, MatchesRowsOnEveryMatrixPath) {
  auto fig = s3::testing::BuildFigure1();
  std::shared_ptr<const S3Instance> built = std::move(fig.instance);
  ExpectColumnMaxMatchesRows(*built, "Build");

  // A delta that appends a document (new fragment rows before the tag
  // block, so every old tag column shifts up) and tags it.
  auto grow = [&](const std::shared_ptr<const S3Instance>& base,
                  const std::string& what) {
    InstanceDelta delta(base);
    doc::Document d("doc");
    d.AddChild(0, "p");
    d.AddKeywords(1, {fig.kw_degree});
    auto id = delta.AddDocument(std::move(d), "d3", fig.u2);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(delta.AddTagOnFragment(fig.u1, fig.d0_root, fig.kw_ms).ok());
    ASSERT_TRUE(delta.AddSocialEdge(fig.u2, fig.u1, 0.3).ok());
    auto next = base->ApplyDelta(delta);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    const S3Instance& n = **next;
    ASSERT_GT(n.layout().total(), base->layout().total());
    // The old tag's column moved and still carries its maximum.
    const uint32_t tag_col =
        n.layout().Row(social::EntityId::Tag(fig.tag_university));
    ASSERT_NE(tag_col,
              base->layout().Row(social::EntityId::Tag(fig.tag_university)));
    EXPECT_GT(n.matrix().ColumnMax()[tag_col], 0.0);
    ExpectColumnMaxMatchesRows(n, what);
  };
  grow(built, "ApplyDelta on a built instance");

  auto blob = SaveBinarySnapshot(*built);
  ASSERT_TRUE(blob.ok());
  const std::string path = std::string(::testing::TempDir()) +
                           "s3-column-max-" + std::to_string(::getpid()) +
                           ".snap";
  {
    std::ofstream out(path, std::ios::binary);
    out << *blob;
  }
  std::shared_ptr<const MappedRegion> region;
  ASSERT_TRUE(MappedRegion::Open(path, &region).ok());
  auto attached = AttachBinarySnapshot(region);
  std::remove(path.c_str());
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  ExpectColumnMaxMatchesRows(**attached, "mmap attach");
  EXPECT_EQ((*attached)->matrix().ColumnMax(), built->matrix().ColumnMax());
  grow(*attached, "ApplyDelta on a mapped instance");

  auto heap = LoadBinarySnapshot(*blob);
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  EXPECT_FALSE((*heap)->matrix().values().is_view());
  ExpectColumnMaxMatchesRows(**heap, "heap load");
  EXPECT_EQ((*heap)->matrix().ColumnMax(), built->matrix().ColumnMax());
}

}  // namespace
}  // namespace s3::core
