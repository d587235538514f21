#include "core/instance_delta.h"

#include <algorithm>
#include <cassert>

#include "common/binary_io.h"
#include "doc/document_wire.h"
#include "text/tokenizer.h"

namespace s3::core {

namespace {
// 'S3WD' little-endian: heads every WAL record frame.
constexpr uint32_t kWalMagic = 0x4457'3353u;
constexpr size_t kWalFrameHeader = 4 + 8 + 4;  // magic, size, crc
}  // namespace

InstanceDelta::InstanceDelta(std::shared_ptr<const S3Instance> base)
    : base_(std::move(base)) {
  assert(base_ != nullptr && base_->finalized() &&
         "InstanceDelta requires a finalized base snapshot");
}

Status InstanceDelta::CheckBase() const {
  // Caller input must stay guarded in Release builds too (the ctor
  // assert vanishes under NDEBUG): a null or unfinalized base turns
  // every operation into an error instead of a null deref / garbage
  // combined-id math.
  if (base_ == nullptr || !base_->finalized()) {
    return Status::FailedPrecondition(
        "InstanceDelta requires a finalized base snapshot");
  }
  return Status::OK();
}

size_t InstanceDelta::CombinedDocCount() const {
  return base_->docs().DocumentCount() + doc_posters_.size();
}

size_t InstanceDelta::CombinedNodeCount() const {
  return base_->docs().NodeCount() + new_docs_.NodeCount();
}

size_t InstanceDelta::CombinedTagCount() const {
  return base_->TagCount() + tags_.size();
}

size_t InstanceDelta::CombinedKeywordCount() const {
  return base_->vocabulary().size() + spellings_.size();
}

doc::DocId InstanceDelta::CombinedDocOf(doc::NodeId node) const {
  const size_t base_nodes = base_->docs().NodeCount();
  if (node < base_nodes) return base_->docs().DocOf(node);
  if (node >= CombinedNodeCount()) return doc::kInvalidDoc;
  return static_cast<doc::DocId>(base_->docs().DocumentCount() +
                                 new_docs_.DocOf(node - base_nodes));
}

Status InstanceDelta::ValidateKeyword(KeywordId keyword) const {
  if (keyword == kInvalidKeyword) return Status::OK();
  if (keyword >= CombinedKeywordCount()) {
    return Status::InvalidArgument("keyword id out of range for delta");
  }
  return Status::OK();
}

KeywordId InstanceDelta::InternKeyword(std::string_view keyword) {
  if (!CheckBase().ok()) return kInvalidKeyword;
  KeywordId known = base_->vocabulary().Find(keyword);
  if (known != kInvalidKeyword) return known;
  auto it = overlay_index_.find(std::string(keyword));
  if (it != overlay_index_.end()) return it->second;
  KeywordId id = static_cast<KeywordId>(base_->vocabulary().size() +
                                        spellings_.size());
  spellings_.emplace_back(keyword);
  overlay_index_.emplace(spellings_.back(), id);
  return id;
}

std::vector<KeywordId> InstanceDelta::InternText(std::string_view text) {
  std::vector<KeywordId> out;
  for (const std::string& word : ExtractKeywords(text)) {
    out.push_back(InternKeyword(word));
  }
  return out;
}

Result<doc::DocId> InstanceDelta::AddDocument(doc::Document document,
                                              std::string uri,
                                              social::UserId poster) {
  S3_RETURN_IF_ERROR(CheckBase());
  if (poster >= base_->UserCount()) {
    return Status::InvalidArgument("unknown poster user id");
  }
  // Every node URI must be free in the base and among the delta's own
  // documents (new_docs_ refuses a clash on registration), so a clash
  // is refused here rather than at replay.
  S3_RETURN_IF_ERROR(base_->docs().CheckUrisFree(document, uri));
  for (uint32_t local = 0; local < document.NodeCount(); ++local) {
    for (KeywordId k : document.node(local).keywords) {
      // kInvalidKeyword marks an endorsement tag; a document cannot
      // contain it.
      if (k == kInvalidKeyword) {
        return Status::InvalidArgument("document keyword id is invalid");
      }
      S3_RETURN_IF_ERROR(ValidateKeyword(k));
    }
  }
  doc::DocId id = static_cast<doc::DocId>(CombinedDocCount());
  S3_RETURN_IF_ERROR(new_docs_.AddDocument(document, uri).status());
  order_.push_back(OpKind::kDocument);
  doc_posters_.push_back(poster);
  return id;
}

Status InstanceDelta::AddComment(doc::DocId comment, doc::NodeId target) {
  S3_RETURN_IF_ERROR(CheckBase());
  if (comment >= CombinedDocCount() || target >= CombinedNodeCount()) {
    return Status::InvalidArgument("unknown document or node in AddComment");
  }
  if (CombinedDocOf(target) == comment) {
    return Status::InvalidArgument("a document cannot comment on itself");
  }
  order_.push_back(OpKind::kComment);
  comments_.push_back(CommentOp{comment, target});
  return Status::OK();
}

Result<social::TagId> InstanceDelta::AddTagOnFragment(social::UserId author,
                                                      doc::NodeId subject,
                                                      KeywordId keyword) {
  S3_RETURN_IF_ERROR(CheckBase());
  if (author >= base_->UserCount()) {
    return Status::InvalidArgument("unknown tag author");
  }
  if (subject >= CombinedNodeCount()) {
    return Status::InvalidArgument("unknown tag subject node");
  }
  S3_RETURN_IF_ERROR(ValidateKeyword(keyword));
  social::TagId id = static_cast<social::TagId>(CombinedTagCount());
  order_.push_back(OpKind::kTag);
  tags_.push_back(TagOp{author, subject, keyword, /*on_tag=*/false});
  return id;
}

Result<social::TagId> InstanceDelta::AddTagOnTag(social::UserId author,
                                                 social::TagId subject,
                                                 KeywordId keyword) {
  S3_RETURN_IF_ERROR(CheckBase());
  if (author >= base_->UserCount()) {
    return Status::InvalidArgument("unknown tag author");
  }
  if (subject >= CombinedTagCount()) {
    return Status::InvalidArgument("unknown subject tag");
  }
  S3_RETURN_IF_ERROR(ValidateKeyword(keyword));
  social::TagId id = static_cast<social::TagId>(CombinedTagCount());
  order_.push_back(OpKind::kTag);
  tags_.push_back(TagOp{author, subject, keyword, /*on_tag=*/true});
  return id;
}

Status InstanceDelta::AddSocialEdge(social::UserId from, social::UserId to,
                                    double weight) {
  S3_RETURN_IF_ERROR(CheckBase());
  if (from >= base_->UserCount() || to >= base_->UserCount()) {
    return Status::InvalidArgument("unknown user id in social edge");
  }
  if (!(weight > 0.0 && weight <= 1.0)) {
    return Status::InvalidArgument("social edge weight must be in (0,1]");
  }
  order_.push_back(OpKind::kSocial);
  socials_.push_back(SocialOp{from, to, weight});
  return Status::OK();
}

void InstanceDelta::EncodeWalRecord(std::string* out) const {
  std::string payload;
  ByteWriter w(&payload);
  w.U64(base_generation());
  w.U64(base_ == nullptr ? 0 : base_->lineage());
  w.U32(static_cast<uint32_t>(spellings_.size()));
  for (const std::string& s : spellings_) w.Str(s);
  w.U32(static_cast<uint32_t>(order_.size()));
  size_t di = 0, ci = 0, ti = 0, si = 0;
  for (OpKind kind : order_) {
    w.U8(static_cast<uint8_t>(kind));
    switch (kind) {
      case OpKind::kDocument: {
        const doc::DocId local_doc = static_cast<doc::DocId>(di++);
        w.Str(new_docs_.RootUri(local_doc));
        w.U32(doc_posters_[local_doc]);
        doc::WriteDocumentTree(new_docs_, local_doc, w);
        break;
      }
      case OpKind::kComment: {
        const CommentOp& op = comments_[ci++];
        w.U32(op.comment);
        w.U32(op.target);
        break;
      }
      case OpKind::kTag: {
        const TagOp& op = tags_[ti++];
        w.U8(op.on_tag ? 1 : 0);
        w.U32(op.author);
        w.U32(op.subject);
        w.U32(op.keyword);
        break;
      }
      case OpKind::kSocial: {
        const SocialOp& op = socials_[si++];
        w.U32(op.from);
        w.U32(op.to);
        w.F64(op.weight);
        break;
      }
    }
  }
  ByteWriter frame(out);
  frame.U32(kWalMagic);
  frame.U64(payload.size());
  frame.U32(Crc32(payload));
  out->append(payload);
}

Result<InstanceDelta::WalRecordInfo> InstanceDelta::PeekWalRecord(
    std::string_view bytes) {
  ByteReader r(bytes);
  const uint32_t magic = r.U32();
  if (r.failed() || magic != kWalMagic) {
    return Status::InvalidArgument("WAL record: bad magic");
  }
  const uint64_t size = r.U64();
  const uint32_t crc = r.U32();
  std::string_view payload = r.Bytes(static_cast<size_t>(size));
  if (r.failed()) {
    return Status::InvalidArgument("WAL record: truncated payload");
  }
  if (Crc32(payload) != crc) {
    return Status::InvalidArgument("WAL record: checksum mismatch");
  }
  ByteReader p(payload);
  WalRecordInfo info;
  info.base_generation = p.U64();
  info.base_lineage = p.U64();
  if (p.failed()) {
    return Status::InvalidArgument("WAL record: payload too short");
  }
  info.record_bytes = kWalFrameHeader + static_cast<size_t>(size);
  return info;
}

Result<InstanceDelta> InstanceDelta::DecodeWalRecord(
    std::string_view bytes, size_t* consumed,
    std::shared_ptr<const S3Instance> base) {
  Result<WalRecordInfo> info = PeekWalRecord(bytes);
  if (!info.ok()) return info.status();
  if (base == nullptr || !base->finalized()) {
    return Status::FailedPrecondition(
        "WAL decode requires a finalized base snapshot");
  }
  if (info->base_generation != base->generation() ||
      info->base_lineage != base->lineage()) {
    return Status::InvalidArgument(
        "WAL record was built against generation " +
        std::to_string(info->base_generation) + ", base is generation " +
        std::to_string(base->generation()));
  }

  ByteReader p(bytes.substr(kWalFrameHeader,
                            info->record_bytes - kWalFrameHeader));
  p.Skip(16);  // generation + lineage, validated above
  auto bad = [&p](const std::string& why) {
    return Status::InvalidArgument("WAL record at byte " +
                                   std::to_string(p.offset()) + ": " + why);
  };

  InstanceDelta delta(std::move(base));
  const uint32_t n_spellings = p.U32();
  if (!p.FitsCount(n_spellings, 4)) return bad("spelling count truncated");
  for (uint32_t i = 0; i < n_spellings; ++i) {
    std::string spelling = p.Str();
    if (p.failed()) return bad("truncated spelling");
    const KeywordId expected = static_cast<KeywordId>(
        delta.base()->vocabulary().size() + i);
    if (delta.InternKeyword(spelling) != expected) {
      return bad("overlay spelling already interned: " + spelling);
    }
  }

  const uint32_t n_ops = p.U32();
  if (!p.FitsCount(n_ops, 1)) return bad("op count truncated");
  for (uint32_t i = 0; i < n_ops; ++i) {
    const uint8_t kind = p.U8();
    if (p.failed()) return bad("truncated op");
    switch (static_cast<OpKind>(kind)) {
      case OpKind::kDocument: {
        std::string uri = p.Str();
        const uint32_t poster = p.U32();
        if (p.failed()) return bad("malformed document op");
        Result<doc::Document> document = doc::ReadDocumentTree(
            p, delta.base()->vocabulary().size() + n_spellings);
        if (!document.ok()) {
          return bad(document.status().message());
        }
        Result<doc::DocId> added =
            delta.AddDocument(std::move(*document), std::move(uri), poster);
        if (!added.ok()) return added.status();
        break;
      }
      case OpKind::kComment: {
        const uint32_t comment = p.U32();
        const uint32_t target = p.U32();
        if (p.failed()) return bad("truncated comment op");
        S3_RETURN_IF_ERROR(delta.AddComment(comment, target));
        break;
      }
      case OpKind::kTag: {
        const uint8_t on_tag = p.U8();
        const uint32_t author = p.U32();
        const uint32_t subject = p.U32();
        const uint32_t keyword = p.U32();
        if (p.failed() || on_tag > 1) return bad("malformed tag op");
        Result<social::TagId> added =
            on_tag ? delta.AddTagOnTag(author, subject, keyword)
                   : delta.AddTagOnFragment(author, subject, keyword);
        if (!added.ok()) return added.status();
        break;
      }
      case OpKind::kSocial: {
        const uint32_t from = p.U32();
        const uint32_t to = p.U32();
        const double weight = p.F64();
        if (p.failed()) return bad("truncated social op");
        S3_RETURN_IF_ERROR(delta.AddSocialEdge(from, to, weight));
        break;
      }
      default:
        return bad("unknown op kind " + std::to_string(kind));
    }
  }
  if (!p.AtEnd()) return bad("trailing bytes after the op log");
  *consumed = info->record_bytes;
  return delta;
}

Status InstanceDelta::Replay(S3Instance& target) const {
  size_t di = 0, ci = 0, ti = 0, si = 0;
  for (OpKind kind : order_) {
    switch (kind) {
      case OpKind::kDocument: {
        const doc::DocId local_doc = static_cast<doc::DocId>(di++);
        Result<doc::DocId> added = target.AddDocumentFrom(
            new_docs_, local_doc, doc_posters_[local_doc]);
        if (!added.ok()) return added.status();
        break;
      }
      case OpKind::kComment: {
        const CommentOp& op = comments_[ci++];
        S3_RETURN_IF_ERROR(target.AddComment(op.comment, op.target));
        break;
      }
      case OpKind::kTag: {
        const TagOp& op = tags_[ti++];
        Result<social::TagId> added =
            op.on_tag
                ? target.AddTagOnTag(op.author, op.subject, op.keyword)
                : target.AddTagOnFragment(op.author, op.subject,
                                          op.keyword);
        if (!added.ok()) return added.status();
        break;
      }
      case OpKind::kSocial: {
        const SocialOp& op = socials_[si++];
        S3_RETURN_IF_ERROR(
            target.AddSocialEdge(op.from, op.to, op.weight));
        break;
      }
    }
  }
  return Status::OK();
}

}  // namespace s3::core
