#include "doc/document_wire.h"

#include <bit>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace s3::doc {

namespace {

// Decodes one tree, validating as it goes, and hands each node to
// on_node(parent_local, name, keywords) in local order.
template <typename OnNode>
Status DecodeTree(ByteReader& r, uint64_t keyword_bound, OnNode&& on_node) {
  auto bad = [](const std::string& why) {
    return Status::InvalidArgument("document tree: " + why);
  };
  const uint32_t n_nodes = r.U32();
  if (r.failed() || n_nodes == 0 || !r.FitsCount(n_nodes, 12)) {
    return bad("bad node count");
  }
  std::vector<KeywordId> kws;
  for (uint32_t local = 0; local < n_nodes; ++local) {
    const uint32_t parent = r.U32();
    const std::string_view name = r.Bytes(r.U32());
    const uint32_t n_kw = r.U32();
    if (r.failed() || !r.FitsCount(n_kw, 4)) return bad("truncated node");
    if (local == 0 && parent != UINT32_MAX) {
      return bad("root node has a parent");
    }
    if (local != 0 && parent >= local) return bad("node parent out of range");
    // Keyword ids are read in one block: a memcpy on little-endian
    // hosts, where the wire order is the memory order.
    const std::string_view block = r.Bytes(4 * size_t{n_kw});
    if (r.failed()) return bad("truncated node keywords");
    kws.resize(n_kw);
    if constexpr (std::endian::native == std::endian::little) {
      if (!block.empty()) std::memcpy(kws.data(), block.data(), block.size());
    } else {
      ByteReader ids(block);
      for (KeywordId& k : kws) k = ids.U32();
    }
    for (KeywordId k : kws) {
      if (k >= keyword_bound) return bad("keyword id out of range");
    }
    on_node(parent, name, kws);
  }
  return Status::OK();
}

}  // namespace

void WriteDocumentTree(const DocumentStore& store, DocId d, ByteWriter& w) {
  const NodeId root = store.RootNode(d);
  w.U32(store.NodeCount(d));
  for (NodeId n = root; n < root + store.NodeCount(d); ++n) {
    const NodeId parent = store.Parent(n);
    w.U32(parent == kInvalidNode ? UINT32_MAX : parent - root);
    w.Str(store.Name(n));
    const std::span<const KeywordId> keywords = store.Keywords(n);
    w.U32(static_cast<uint32_t>(keywords.size()));
    for (KeywordId k : keywords) w.U32(k);
  }
}

Result<Document> ReadDocumentTree(ByteReader& r, uint64_t keyword_bound) {
  std::optional<Document> document;
  const Status decoded = DecodeTree(
      r, keyword_bound,
      [&](uint32_t parent, std::string_view name,
          const std::vector<KeywordId>& kws) {
        uint32_t local = 0;
        if (parent == UINT32_MAX) {
          document.emplace(std::string(name));
        } else {
          local = document->AddChild(parent, std::string(name));
        }
        document->AddKeywords(local, kws);
      });
  if (!decoded.ok()) return decoded;
  return std::move(*document);
}

Result<DocId> AppendDocumentTree(ByteReader& r, uint64_t keyword_bound,
                                 std::string_view root_uri,
                                 DocumentStore& store) {
  const Status decoded = DecodeTree(
      r, keyword_bound,
      [&](uint32_t parent, std::string_view name,
          const std::vector<KeywordId>& kws) {
        store.AppendNode(parent, name, kws);
      });
  if (!decoded.ok()) {
    store.DropPending();
    return decoded;
  }
  return store.CommitDocument(root_uri);
}

}  // namespace s3::doc
