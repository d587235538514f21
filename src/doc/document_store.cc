#include "doc/document_store.h"

#include <algorithm>
#include <cassert>

namespace s3::doc {

namespace {

// One canonical 1-based sibling position, as Uri() prints it: decimal
// digits without a leading zero, at most UINT32_MAX.
bool ParsePosition(std::string_view s, uint32_t* out) {
  if (s.empty() || s.size() > 10 || s[0] == '0') return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  if (v > UINT32_MAX) return false;
  *out = static_cast<uint32_t>(v);
  return true;
}

// The ways `uri` can read as a root URI plus sibling positions: calls
// fn(base, steps) for the whole URI with no steps, then for each
// shorter base whose remainder is dotted positions (steps root first),
// until fn returns true.
template <typename Fn>
void ForEachBase(std::string_view uri, Fn&& fn) {
  std::vector<uint32_t> steps;
  std::string_view base = uri;
  while (!fn(base, std::span<const uint32_t>(steps))) {
    const size_t dot = base.rfind('.');
    uint32_t pos = 0;
    if (dot == std::string_view::npos ||
        !ParsePosition(base.substr(dot + 1), &pos)) {
      return;
    }
    steps.insert(steps.begin(), pos);
    base = base.substr(0, dot);
  }
}

}  // namespace

Result<DocId> DocumentStore::AddDocument(const Document& doc,
                                         std::string_view root_uri) {
  for (uint32_t local = 0; local < doc.NodeCount(); ++local) {
    const Node& node = doc.node(local);
    AppendNode(node.parent, node.name, node.keywords);
  }
  return CommitDocument(root_uri);
}

void DocumentStore::AppendNode(uint32_t parent_local, std::string_view name,
                               std::span<const KeywordId> keywords) {
  const NodeId first = first_node_.back();
  assert((parent_local == UINT32_MAX) == (doc_of_.size() == first));
  const NodeId parent =
      parent_local == UINT32_MAX ? kInvalidNode : first + parent_local;
  assert(parent == kInvalidNode || parent < doc_of_.size());
  doc_of_.push_back(static_cast<DocId>(DocumentCount()));
  parent_.push_back(parent);
  depth_.push_back(parent == kInvalidNode ? 0 : depth_[parent] + 1);
  name_.push_back(InternName(name));
  kw_items_.insert(kw_items_.end(), keywords.begin(), keywords.end());
  kw_offsets_.push_back(static_cast<uint32_t>(kw_items_.size()));
}

Result<DocId> DocumentStore::CommitDocument(std::string_view root_uri) {
  const NodeId first = first_node_.back();
  const NodeId end = static_cast<NodeId>(doc_of_.size());
  assert(end > first);

  // Children of the pending nodes: a stable counting sort by parent
  // with FlatLists' shifted offsets — child_offsets_[p + 2] counts p,
  // and after the prefix sum child_offsets_[p + 1] is p's placement
  // cursor, which placement advances to p's end (p + 1's start).
  child_offsets_.resize(end + 2, 0);
  child_offsets_[first + 1] = child_offsets_[first];
  for (NodeId n = first + 1; n < end; ++n) ++child_offsets_[parent_[n] + 2];
  for (NodeId n = first + 2; n < end + 2; ++n) {
    child_offsets_[n] += child_offsets_[n - 1];
  }
  child_items_.resize(child_offsets_[end + 1]);
  for (NodeId n = first + 1; n < end; ++n) {
    child_items_[child_offsets_[parent_[n] + 1]++] = n;
  }
  child_offsets_.pop_back();

  const Status free = CheckUris(root_uri, [&](std::span<const uint32_t> s) {
    return Descend(first, s) != kInvalidNode;
  });
  if (!free.ok()) {
    DropPending();
    return free;
  }
  const DocId d = static_cast<DocId>(DocumentCount());
  uri_arena_.append(root_uri);
  uri_offsets_.push_back(uri_arena_.size());
  first_node_.push_back(end);
  ForEachBase(root_uri, [&](std::string_view base, auto) {
    InsertSlot(d, static_cast<uint32_t>(base.size()));
    return false;
  });
  return d;
}

Result<DocId> DocumentStore::AddDocumentFrom(const DocumentStore& source,
                                             DocId d) {
  const NodeId root = source.RootNode(d);
  for (NodeId n = root; n < root + source.NodeCount(d); ++n) {
    const NodeId parent = source.Parent(n);
    AppendNode(parent == kInvalidNode ? UINT32_MAX : parent - root,
               source.Name(n), source.Keywords(n));
  }
  return CommitDocument(source.RootUri(d));
}

void DocumentStore::DropPending() {
  const NodeId first = first_node_.back();
  doc_of_.resize(first);
  parent_.resize(first);
  depth_.resize(first);
  name_.resize(first);
  kw_offsets_.resize(first + 1);
  kw_items_.resize(kw_offsets_[first]);
  child_offsets_.resize(first + 1);
  child_items_.resize(child_offsets_[first]);
}

void DocumentStore::Reserve(size_t n_docs, size_t n_nodes,
                            size_t n_keywords) {
  first_node_.reserve(first_node_.size() + n_docs);
  RehashSlots(uri_slots_used_ + n_docs);
  uri_offsets_.reserve(uri_offsets_.size() + n_docs);
  for (auto* v : {&doc_of_, &parent_, &depth_, &name_}) {
    v->reserve(v->size() + n_nodes);
  }
  kw_offsets_.reserve(kw_offsets_.size() + n_nodes);
  kw_items_.reserve(kw_items_.size() + n_keywords);
  child_offsets_.reserve(child_offsets_.size() + n_nodes + 1);
  child_items_.reserve(child_items_.size() + n_nodes);
}

Status DocumentStore::CheckUrisFree(const Document& doc,
                                    std::string_view root_uri) const {
  return CheckUris(root_uri, [&](std::span<const uint32_t> steps) {
    uint32_t local = 0;
    for (uint32_t s : steps) {
      const std::vector<uint32_t>& kids = doc.node(local).children;
      if (s > kids.size()) return false;
      local = kids[s - 1];
    }
    return true;
  });
}

template <typename HasPath>
Status DocumentStore::CheckUris(std::string_view root_uri,
                                HasPath&& has_path) const {
  // Registered roots keyed by root_uri: root_uri itself, or
  // "root_uri.<positions>" against the new node at those positions.
  bool root_taken = false;
  std::string_view clash;
  ForEachSlot(root_uri, [&](UriSlot slot) {
    const std::string_view other = RootUri(slot.doc);
    if (slot.len == other.size()) {
      root_taken = true;
      return true;
    }
    ForEachBase(other, [&](std::string_view base,
                           std::span<const uint32_t> steps) {
      if (base.size() != slot.len) return false;
      if (has_path(steps)) clash = other;
      return true;
    });
    return !clash.empty();
  });
  // Registered descendants: root_uri read as a shorter base plus
  // positions. A new descendant "root_uri.p" can only clash with a node
  // of a document rooted at such a base if that document also has the
  // node root_uri itself.
  ForEachBase(root_uri, [&](std::string_view base,
                            std::span<const uint32_t> steps) {
    if (root_taken || steps.empty()) return root_taken;
    const DocId d = FindRoot(base);
    root_taken =
        d != kInvalidDoc && Descend(RootNode(d), steps) != kInvalidNode;
    return root_taken;
  });
  if (root_taken) {
    return Status::AlreadyExists("document URI already registered: " +
                                 std::string(root_uri));
  }
  if (!clash.empty()) {
    return Status::AlreadyExists("node URI already registered: " +
                                 std::string(clash));
  }
  return Status::OK();
}

uint32_t DocumentStore::InternName(std::string_view name) {
  // Stores usually hold a handful of names: a scan beats hashing.
  if (names_.size() <= 8) {
    for (uint32_t id = 0; id < names_.size(); ++id) {
      if (names_[id] == name) return id;
    }
  }
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(names_.back(), id);
  return id;
}

template <typename Fn>
void DocumentStore::ForEachSlot(std::string_view key, Fn&& fn) const {
  if (uri_slots_.empty()) return;
  const size_t mask = uri_slots_.size() - 1;
  for (size_t i = std::hash<std::string_view>{}(key) & mask;;
       i = (i + 1) & mask) {
    const UriSlot slot = uri_slots_[i];
    if (slot.doc == kInvalidDoc) return;
    if (slot.len == key.size() &&
        RootUri(slot.doc).substr(0, slot.len) == key && fn(slot)) {
      return;
    }
  }
}

void DocumentStore::RehashSlots(size_t entries) {
  if (2 * entries <= uri_slots_.size()) return;
  size_t capacity = std::max<size_t>(16, uri_slots_.size());
  while (capacity < 2 * entries) capacity *= 2;
  std::vector<UriSlot> old = std::move(uri_slots_);
  uri_slots_.assign(capacity, UriSlot{});
  uri_slots_used_ = 0;
  for (UriSlot slot : old) {
    if (slot.doc != kInvalidDoc) InsertSlot(slot.doc, slot.len);
  }
}

void DocumentStore::InsertSlot(DocId d, uint32_t len) {
  RehashSlots(uri_slots_used_ + 1);
  const size_t mask = uri_slots_.size() - 1;
  size_t i = std::hash<std::string_view>{}(RootUri(d).substr(0, len)) & mask;
  while (uri_slots_[i].doc != kInvalidDoc) i = (i + 1) & mask;
  uri_slots_[i] = UriSlot{d, len};
  ++uri_slots_used_;
}

DocId DocumentStore::FindRoot(std::string_view uri) const {
  DocId found = kInvalidDoc;
  ForEachSlot(uri, [&](UriSlot slot) {
    if (slot.len != RootUri(slot.doc).size()) return false;
    found = slot.doc;
    return true;
  });
  return found;
}

NodeId DocumentStore::Descend(NodeId from,
                              std::span<const uint32_t> steps) const {
  NodeId n = from;
  for (uint32_t s : steps) {
    const std::span<const NodeId> kids = Children(n);
    if (s > kids.size()) return kInvalidNode;
    n = kids[s - 1];
  }
  return n;
}

std::string DocumentStore::Uri(NodeId n) const {
  std::vector<uint32_t> steps(depth_[n]);
  for (NodeId m = n; parent_[m] != kInvalidNode; m = parent_[m]) {
    const std::span<const NodeId> kids = Children(parent_[m]);
    steps[depth_[m] - 1] = static_cast<uint32_t>(
        std::lower_bound(kids.begin(), kids.end(), m) - kids.begin() + 1);
  }
  std::string out(RootUri(doc_of_[n]));
  for (uint32_t s : steps) {
    out.push_back('.');
    out += std::to_string(s);
  }
  return out;
}

Result<NodeId> DocumentStore::FindByUri(std::string_view uri) const {
  NodeId found = kInvalidNode;
  ForEachBase(uri, [&](std::string_view base,
                       std::span<const uint32_t> steps) {
    const DocId d = FindRoot(base);
    if (d != kInvalidDoc) found = Descend(RootNode(d), steps);
    return found != kInvalidNode;
  });
  if (found == kInvalidNode) {
    return Status::NotFound("no node with URI: " + std::string(uri));
  }
  return found;
}

std::vector<NodeId> DocumentStore::VerticalNeighbors(NodeId n) const {
  std::vector<NodeId> out;
  for (NodeId a = parent_[n]; a != kInvalidNode; a = parent_[a]) {
    out.push_back(a);
  }
  const std::span<const NodeId> kids = Children(n);
  std::vector<NodeId> stack(kids.rbegin(), kids.rend());
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    out.push_back(cur);
    const std::span<const NodeId> sub = Children(cur);
    stack.insert(stack.end(), sub.rbegin(), sub.rend());
  }
  return out;
}

bool DocumentStore::AreVerticalNeighbors(NodeId a, NodeId b) const {
  if (a == b || doc_of_[a] != doc_of_[b]) return false;
  if (depth_[a] > depth_[b]) std::swap(a, b);
  for (uint32_t up = depth_[b] - depth_[a]; up > 0; --up) b = parent_[b];
  return a == b;
}

size_t DocumentStore::PosLength(NodeId ancestor, NodeId descendant) const {
  assert(doc_of_[ancestor] == doc_of_[descendant]);
  assert(depth_[ancestor] <= depth_[descendant]);
  return depth_[descendant] - depth_[ancestor];
}

}  // namespace s3::doc
