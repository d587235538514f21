// InstanceDelta: a batch of population growth against one finalized
// S3Instance snapshot — the write side of the live-update pipeline.
//
// The paper's setting is a dynamic social network: documents, tags and
// social edges arrive continuously. A delta records such arrivals
// (new documents with their keywords, new comment/tag/social edges —
// endpoints may be pre-existing entities, new keyword spellings via
// the interning overlay) validated against the base snapshot, without
// mutating it. S3Instance::ApplyDelta(delta) then produces a *new*
// finalized snapshot without a full rebuild: the inverted-index
// postings and keyword->component lists are spliced (the base's lists
// plus the delta's appended ids, in one linear pass), edge-log chunks
// are shared, untouched transition-matrix rows are spliced and
// components are re-discovered incrementally. The base snapshot stays
// immutable and queryable throughout, which is what lets the serving
// layer
// (server/QueryService::SwapSnapshot) hot-swap generations mid-traffic.
//
// Id spaces: a delta continues the base's id spaces. New documents,
// nodes, tags and keywords receive the ids a from-scratch rebuild
// (base operations then delta operations, in order) would assign, so
// callers can wire delta entities together (e.g. tag a document added
// earlier in the same delta) and results over the applied snapshot are
// directly comparable to a rebuilt instance.
//
// Deltas deliberately cannot add users or ontology triples: user rows
// prefix the entity-row space (appending would renumber every
// fragment/tag row) and the saturated RDF graph is shared wholesale
// across generations. Grow either by building a fresh instance.
#ifndef S3_CORE_INSTANCE_DELTA_H_
#define S3_CORE_INSTANCE_DELTA_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/s3_instance.h"

namespace s3::core {

class InstanceDelta {
 public:
  // `base` must be finalized and non-null; the delta validates every
  // operation against it (plus the delta's own accumulated state).
  explicit InstanceDelta(std::shared_ptr<const S3Instance> base);

  // Keyword interning overlay: resolves against the base vocabulary
  // first; unseen spellings get the ids the successor snapshot will
  // assign (base size, base size + 1, ...).
  KeywordId InternKeyword(std::string_view keyword);
  std::vector<KeywordId> InternText(std::string_view text);

  // Population growth, mirroring the S3Instance API. Returned ids are
  // the ids the entities will have in the applied snapshot.
  Result<doc::DocId> AddDocument(doc::Document document, std::string uri,
                                 social::UserId poster);
  Status AddComment(doc::DocId comment, doc::NodeId target);
  Result<social::TagId> AddTagOnFragment(social::UserId author,
                                         doc::NodeId subject,
                                         KeywordId keyword);
  Result<social::TagId> AddTagOnTag(social::UserId author,
                                    social::TagId subject,
                                    KeywordId keyword);
  Status AddSocialEdge(social::UserId from, social::UserId to,
                       double weight);

  const std::shared_ptr<const S3Instance>& base() const { return base_; }
  uint64_t base_generation() const {
    return base_ == nullptr ? 0 : base_->generation();
  }

  bool empty() const { return order_.empty(); }
  size_t op_count() const { return order_.size(); }
  size_t new_document_count() const { return doc_posters_.size(); }
  size_t new_tag_count() const { return tags_.size(); }
  size_t new_social_edge_count() const { return socials_.size(); }
  size_t new_node_count() const { return new_docs_.NodeCount(); }

  // Overlay spellings in id order (first one gets id base-vocab-size).
  const std::vector<std::string>& new_spellings() const {
    return spellings_;
  }

  // Replays every recorded operation, in order, against `target` — the
  // successor instance under construction. Called by
  // S3Instance::ApplyDelta; the target's own validation runs again, so
  // a corrupted delta surfaces as an error, not silent misapplication.
  Status Replay(S3Instance& target) const;

  // ---- WAL serialization ----------------------------------------------
  //
  // A delta serializes as one *self-delimiting* record:
  //
  //   u32 magic · u64 payload size · u32 CRC-32(payload) · payload
  //
  // where the payload opens with the (generation, lineage) of the base
  // snapshot the delta was built against, followed by the interning
  // overlay and the op log in order. Self-delimiting framing is what
  // gives the server's write-ahead log its crash semantics: recovery
  // replays records until the first truncated or corrupt frame and
  // discards the tail (server/snapshot_manager.h).

  // Frame-level view of the record at the head of `bytes`, without
  // decoding the ops — recovery uses it to skip records already
  // covered by a snapshot. InvalidArgument on a truncated or corrupt
  // frame.
  struct WalRecordInfo {
    uint64_t base_generation = 0;
    uint64_t base_lineage = 0;
    size_t record_bytes = 0;  // full frame size, header included
  };
  static Result<WalRecordInfo> PeekWalRecord(std::string_view bytes);

  // Appends this delta as one WAL record to `out`.
  void EncodeWalRecord(std::string* out) const;

  // Decodes the record at the head of `bytes` into a delta against
  // `base` (which must be finalized and match the record's generation
  // and lineage). Every op is rebuilt through the validating
  // InstanceDelta API, so a corrupt payload that survives the checksum
  // still comes back InvalidArgument, never a malformed delta. On
  // success `*consumed` is the frame size.
  static Result<InstanceDelta> DecodeWalRecord(
      std::string_view bytes, size_t* consumed,
      std::shared_ptr<const S3Instance> base);

 private:
  enum class OpKind : uint8_t { kDocument, kComment, kTag, kSocial };

  struct CommentOp {
    doc::DocId comment;
    doc::NodeId target;
  };
  struct TagOp {
    social::UserId author;
    uint32_t subject;  // NodeId or TagId, by on_tag
    KeywordId keyword;
    bool on_tag;
  };
  struct SocialOp {
    social::UserId from;
    social::UserId to;
    double weight;
  };

  // Release-build guard on the ctor's precondition (its assert is
  // compiled out under NDEBUG); every mutating entry point calls it.
  Status CheckBase() const;

  size_t CombinedDocCount() const;
  size_t CombinedNodeCount() const;
  size_t CombinedTagCount() const;
  size_t CombinedKeywordCount() const;
  // DocId owning `node` in the combined id space (kInvalidDoc if the
  // node does not exist).
  doc::DocId CombinedDocOf(doc::NodeId node) const;
  Status ValidateKeyword(KeywordId keyword) const;

  std::shared_ptr<const S3Instance> base_;

  // Operation log: per-type payloads plus the interleaving order, so
  // Replay reproduces the exact sequence (edge insertion order is part
  // of rebuild equivalence).
  std::vector<OpKind> order_;
  std::vector<social::UserId> doc_posters_;  // per new document
  std::vector<CommentOp> comments_;
  std::vector<TagOp> tags_;
  std::vector<SocialOp> socials_;

  // Interning overlay.
  std::vector<std::string> spellings_;
  std::unordered_map<std::string, KeywordId> overlay_index_;

  // The delta's documents in delta-local ids (node n here is combined
  // node base NodeCount() + n), the only copy of them: the delta-side
  // node id state, the URI uniqueness check among the delta's own
  // documents, the trees (and root URIs) the WAL record encodes and
  // what Replay copies into the successor.
  doc::DocumentStore new_docs_;
};

}  // namespace s3::core

#endif  // S3_CORE_INSTANCE_DELTA_H_
