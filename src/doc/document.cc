#include "doc/document.h"

#include <cassert>

namespace s3::doc {

Document::Document(std::string root_name) {
  Node root;
  root.parent = UINT32_MAX;
  root.name = std::move(root_name);
  nodes_.push_back(std::move(root));
}

uint32_t Document::AddChild(uint32_t parent_local, std::string name) {
  assert(parent_local < nodes_.size());
  uint32_t local = static_cast<uint32_t>(nodes_.size());
  Node child;
  child.parent = parent_local;
  child.name = std::move(name);
  nodes_.push_back(std::move(child));
  nodes_[parent_local].children.push_back(local);
  return local;
}

void Document::AddKeywords(uint32_t local,
                           const std::vector<KeywordId>& kws) {
  assert(local < nodes_.size());
  auto& dst = nodes_[local].keywords;
  dst.insert(dst.end(), kws.begin(), kws.end());
}

}  // namespace s3::doc
