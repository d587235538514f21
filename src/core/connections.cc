#include "core/connections.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace s3::core {

using social::EntityId;
using social::EntityKind;

namespace {

// Memo::state values besides a source set's "done" (kYes).
constexpr uint32_t kBusy = 1;
constexpr uint32_t kNo = 2;
constexpr uint32_t kYes = 3;

void SortUnique(std::vector<uint32_t>& v) {
  if (v.size() < 2) return;
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

ConnectionBuilder::ConnectionBuilder(const S3Instance& instance, double eta)
    : instance_(instance), eta_(eta) {
  assert(instance.finalized());
}

void ConnectionBuilder::Bind(const QueryExtension& ext) {
  assert(ext.size() <= 64 && "queries are limited to 64 keywords");
  if (bound_ && ext == ext_) return;
  const doc::InvertedIndex& index = instance_.index();
  if (!bound_) {
    nodes_.resize(instance_.docs().NodeCount());
    doc_sources_.resize(instance_.docs().DocumentCount());
    tag_grounded_.resize(instance_.TagCount());
    tag_sources_.resize(instance_.TagCount());
  } else {
    for (const std::vector<KeywordId>& kws : ext_keywords_) {
      for (KeywordId k : kws) {
        for (doc::NodeId n : index.Postings(k)) nodes_[n].contains = 0;
      }
    }
  }
  ext_ = ext;
  ext_keywords_.assign(ext.size(), {});
  for (size_t qi = 0; qi < ext.size(); ++qi) {
    std::vector<KeywordId>& kws = ext_keywords_[qi];
    kws.assign(ext[qi].begin(), ext[qi].end());
    std::sort(kws.begin(), kws.end());
    for (KeywordId k : kws) {
      for (doc::NodeId n : index.Postings(k)) {
        nodes_[n].contains |= uint64_t{1} << qi;
      }
    }
  }
  bound_ = true;
}

void ConnectionBuilder::NextEpoch() {
  arena_.clear();
  if (++epoch_ != 0) return;
  // The stamp wrapped around: forget every entry once.
  for (std::vector<Memo>* table :
       {&frag_grounded_, &doc_sources_, &tag_grounded_, &tag_sources_}) {
    std::fill(table->begin(), table->end(), Memo{});
  }
  for (NodeState& n : nodes_) n.cover_stamp = 0;
  epoch_ = 1;
}

bool ConnectionBuilder::ExtHas(size_t qi, KeywordId k) const {
  return std::binary_search(ext_keywords_[qi].begin(),
                            ext_keywords_[qi].end(), k);
}

double ConnectionBuilder::EtaPow(size_t distance) {
  while (eta_pow_.size() <= distance) {
    eta_pow_.push_back(std::pow(eta_, static_cast<double>(eta_pow_.size())));
  }
  return eta_pow_[distance];
}

std::vector<uint32_t>& ConnectionBuilder::AcquireScratch() {
  if (scratch_depth_ == scratch_.size()) scratch_.emplace_back();
  std::vector<uint32_t>& v = scratch_[scratch_depth_++];
  v.clear();
  return v;
}

bool ConnectionBuilder::GroundedKnown(Memo& m, bool* grounded) {
  if (m.stamp != epoch_) {
    m = Memo{epoch_, kBusy, 0, 0};
    return false;
  }
  if (m.state == kBusy) ++ground_guard_hits_;
  *grounded = m.state == kYes;
  return true;
}

void ConnectionBuilder::SettleGrounded(Memo& m, size_t hits_before,
                                       bool grounded) {
  // A positive answer is final (the derivation is monotone), but a
  // negative one computed while a guard suppressed a dependency is only
  // valid for this call stack — don't keep it.
  if (grounded || ground_guard_hits_ == hits_before) {
    m.state = grounded ? kYes : kNo;
  } else {
    m.stamp = 0;
  }
}

bool ConnectionBuilder::SourcesKnown(Memo& m, std::vector<uint32_t>& out) {
  if (m.stamp != epoch_) {
    m = Memo{epoch_, kBusy, 0, 0};
    return false;
  }
  if (m.state == kBusy) {
    ++source_guard_hits_;
  } else {
    out.insert(out.end(), arena_.begin() + m.begin, arena_.begin() + m.end);
  }
  return true;
}

void ConnectionBuilder::SettleSources(Memo& m, size_t hits_before,
                                      std::vector<uint32_t>& sources,
                                      std::vector<uint32_t>& out) {
  SortUnique(sources);
  out.insert(out.end(), sources.begin(), sources.end());
  if (source_guard_hits_ == hits_before) {
    m.state = kYes;
    m.begin = static_cast<uint32_t>(arena_.size());
    arena_.insert(arena_.end(), sources.begin(), sources.end());
    m.end = static_cast<uint32_t>(arena_.size());
  } else {
    m.stamp = 0;  // computed under a fired guard: used once, not kept
  }
}

bool ConnectionBuilder::TagGrounded(social::TagId t, size_t qi) {
  const Tag& tag = instance_.tags()[t];
  if (tag.keyword != kInvalidKeyword && ExtHas(qi, tag.keyword)) return true;
  const std::span<const social::TagId> on =
      instance_.TagsOn(EntityId::Tag(t));
  if (on.empty()) return false;
  // Least-fixpoint guard: a tag-on-tag cycle grounds nothing. The API
  // only builds tag DAGs today, but deserialized or future instances
  // must not send this recursion into a loop.
  Memo& m = tag_grounded_[t];
  bool grounded = false;
  if (GroundedKnown(m, &grounded)) return grounded;
  const size_t hits_before = ground_guard_hits_;
  for (social::TagId b : on) {
    if (TagGrounded(b, qi)) {
      grounded = true;
      break;
    }
  }
  SettleGrounded(m, hits_before, grounded);
  return grounded;
}

bool ConnectionBuilder::FragmentGrounded(doc::NodeId f, size_t qi) {
  if (frag_grounded_.empty()) {
    // Sized on first use: only endorsements ask whether a fragment is
    // grounded, and many plans have none.
    frag_grounded_.resize(instance_.docs().NodeCount());
  }
  // Least-fixpoint guard: a cycle of comments grounds nothing.
  Memo& m = frag_grounded_[f];
  bool grounded = false;
  if (GroundedKnown(m, &grounded)) return grounded;
  const size_t hits_before = ground_guard_hits_;

  // The subtree of f, breadth first.
  const doc::DocumentStore& docs = instance_.docs();
  std::vector<uint32_t>& subtree = AcquireScratch();
  subtree.push_back(f);
  for (size_t i = 0; i < subtree.size(); ++i) {
    const std::span<const doc::NodeId> kids = docs.Children(subtree[i]);
    subtree.insert(subtree.end(), kids.begin(), kids.end());
  }

  const uint64_t bit = uint64_t{1} << qi;
  for (doc::NodeId n : subtree) {
    if (nodes_[n].contains & bit) {
      grounded = true;
      break;
    }
  }
  for (size_t i = 0; i < subtree.size() && !grounded; ++i) {
    for (social::TagId t : instance_.TagsOn(EntityId::Fragment(subtree[i]))) {
      if (TagGrounded(t, qi)) {
        grounded = true;
        break;
      }
    }
    if (grounded) break;
    for (doc::NodeId c : instance_.CommentsOnFragment(subtree[i])) {
      if (FragmentGrounded(c, qi)) {
        grounded = true;
        break;
      }
    }
  }
  ReleaseScratch();
  SettleGrounded(m, hits_before, grounded);
  return grounded;
}

bool ConnectionBuilder::TagOwnSource(social::TagId t, size_t qi) {
  const Tag& tag = instance_.tags()[t];
  if (tag.keyword != kInvalidKeyword) return ExtHas(qi, tag.keyword);
  // Endorsement: the author becomes a source iff the subject has a
  // grounded connection to the keyword.
  if (tag.subject.kind() == EntityKind::kFragment) {
    return FragmentGrounded(tag.subject.index(), qi);
  }
  if (tag.subject.kind() == EntityKind::kTag) {
    return TagGrounded(tag.subject.index(), qi);
  }
  return false;
}

void ConnectionBuilder::AppendTagSources(social::TagId t, size_t qi,
                                         std::vector<uint32_t>& out) {
  const std::span<const social::TagId> on =
      instance_.TagsOn(EntityId::Tag(t));
  if (on.empty()) {
    // Most tags carry no tag themselves: their only possible source is
    // their author, which needs no memo entry.
    if (TagOwnSource(t, qi)) {
      out.push_back(instance_.RowOfUser(instance_.tags()[t].author));
    }
    return;
  }
  // Cycle guard for tag-on-tag loops: contribute nothing on re-entry
  // (mirrors the document comment-loop guard).
  Memo& m = tag_sources_[t];
  if (SourcesKnown(m, out)) return;
  const size_t hits_before = source_guard_hits_;
  std::vector<uint32_t>& sources = AcquireScratch();
  if (TagOwnSource(t, qi)) {
    sources.push_back(instance_.RowOfUser(instance_.tags()[t].author));
  }
  // Higher-level tags: tags on this tag add their own sources (paper
  // R4; the tag "adds its connections to the tagged fragment").
  for (social::TagId b : on) AppendTagSources(b, qi, sources);
  SettleSources(m, hits_before, sources, out);
  ReleaseScratch();
}

void ConnectionBuilder::AppendDocSources(doc::DocId d, size_t qi,
                                         std::vector<uint32_t>& out) {
  // Cycle guard for comment loops: contribute nothing on re-entry.
  Memo& m = doc_sources_[d];
  if (SourcesKnown(m, out)) return;
  const size_t hits_before = source_guard_hits_;
  const doc::DocumentStore& docs = instance_.docs();
  const uint64_t bit = uint64_t{1} << qi;
  std::vector<uint32_t>& sources = AcquireScratch();
  bool has_contains = false;
  const doc::NodeId root = docs.RootNode(d);
  for (doc::NodeId n = root; n < root + docs.NodeCount(d); ++n) {
    has_contains = has_contains || (nodes_[n].contains & bit) != 0;
    for (social::TagId t : instance_.TagsOn(EntityId::Fragment(n))) {
      AppendTagSources(t, qi, sources);
    }
    for (doc::NodeId c : instance_.CommentsOnFragment(n)) {
      AppendDocSources(docs.DocOf(c), qi, sources);
    }
  }
  if (has_contains) {
    // The document itself is the source of its contains connections.
    sources.push_back(instance_.RowOfFragment(docs.RootNode(d)));
  }
  SettleSources(m, hits_before, sources, out);
  ReleaseScratch();
}

void ConnectionBuilder::CollectSlot(social::ComponentId comp, size_t qi,
                                    std::vector<AttachmentEvent>& events) {
  NextEpoch();
  events.clear();
  const social::EntityLayout& layout = instance_.layout();
  const doc::DocumentStore& docs = instance_.docs();
  const uint64_t bit = uint64_t{1} << qi;
  std::vector<uint32_t>& sources = AcquireScratch();
  for (uint32_t row : instance_.components().Members(comp)) {
    const EntityId e = layout.Entity(row);
    if (e.kind() != EntityKind::kFragment) continue;
    const doc::NodeId f = e.index();
    // S3:contains — one tuple (contains, f, d) per matching fragment.
    if (nodes_[f].contains & bit) {
      events.push_back(
          AttachmentEvent{f, kSelfSource, ConnectionType::kContains});
    }
    // S3:relatedTo — tag chains rooted on f.
    sources.clear();
    for (social::TagId t : instance_.TagsOn(EntityId::Fragment(f))) {
      AppendTagSources(t, qi, sources);
    }
    SortUnique(sources);
    for (uint32_t src : sources) {
      events.push_back(AttachmentEvent{f, src, ConnectionType::kRelatedTo});
    }
    // S3:commentsOn — sources of comments on f carry over.
    sources.clear();
    for (doc::NodeId c : instance_.CommentsOnFragment(f)) {
      AppendDocSources(docs.DocOf(c), qi, sources);
    }
    SortUnique(sources);
    for (uint32_t src : sources) {
      events.push_back(AttachmentEvent{f, src, ConnectionType::kCommentsOn});
    }
  }
  ReleaseScratch();
}

ComponentCandidates ConnectionBuilder::Build(social::ComponentId comp,
                                             const QueryExtension& ext) {
  Bind(ext);
  const size_t n_keywords = ext.size();
  ComponentCandidates out;
  out.component = comp;

  if (events_.size() < n_keywords) events_.resize(n_keywords);
  for (size_t qi = 0; qi < n_keywords; ++qi) {
    CollectSlot(comp, qi, events_[qi]);
    if (events_[qi].empty()) return out;  // component cannot match
  }

  // Coverage pass: which nodes have at least one event for each
  // keyword anywhere in their subtree? A covered bit is set on every
  // ancestor too, so each walk stops at the first node that has it.
  NextEpoch();
  const uint64_t full_mask =
      n_keywords == 64 ? ~0ull : ((1ull << n_keywords) - 1);
  covered_.clear();
  for (size_t qi = 0; qi < n_keywords; ++qi) {
    const uint64_t bit = uint64_t{1} << qi;
    for (const AttachmentEvent& ev : events_[qi]) {
      for (doc::NodeId n = ev.fragment; n != doc::kInvalidNode;
           n = instance_.docs().Parent(n)) {
        NodeState& st = nodes_[n];
        if (st.cover_stamp != epoch_) {
          st.cover_stamp = epoch_;
          st.cover = 0;
          covered_.push_back(n);
        }
        if (st.cover & bit) break;
        st.cover |= bit;
      }
    }
  }

  // Candidates: the fully covered nodes, in node order.
  std::vector<doc::NodeId>& cands = covered_;
  cands.erase(std::remove_if(cands.begin(), cands.end(),
                             [&](doc::NodeId n) {
                               return nodes_[n].cover != full_mask;
                             }),
              cands.end());
  if (cands.empty()) return out;
  std::sort(cands.begin(), cands.end());
  out.candidates.resize(cands.size());
  for (uint32_t ci = 0; ci < cands.size(); ++ci) {
    nodes_[cands[ci]].cand = ci;
    Candidate& c = out.candidates[ci];
    c.node = cands[ci];
    c.sources.resize(n_keywords);
    c.static_weight.assign(n_keywords, 0.0);
  }

  // Aggregation, one keyword at a time: every event adds η^distance to
  // each candidate ancestor-or-self of its fragment, under the event's
  // source (the candidate's own row for contains). Contributions are
  // bucketed by candidate in event order, then summed per source.
  const size_t n_cands = cands.size();
  for (size_t qi = 0; qi < n_keywords; ++qi) {
    contribs_.clear();
    const std::vector<AttachmentEvent>& events = events_[qi];
    for (size_t e = 0; e < events.size();) {
      // The candidates above this run of same-fragment events.
      const doc::NodeId f = events[e].fragment;
      path_.clear();
      size_t distance = 0;
      for (doc::NodeId n = f; n != doc::kInvalidNode;
           n = instance_.docs().Parent(n), ++distance) {
        const NodeState& st = nodes_[n];
        if (st.cover_stamp == epoch_ && st.cover == full_mask) {
          path_.emplace_back(st.cand, distance);
        }
      }
      for (; e < events.size() && events[e].fragment == f; ++e) {
        for (const auto& [ci, dist] : path_) {
          const uint32_t src =
              events[e].source_row == kSelfSource
                  ? instance_.RowOfFragment(out.candidates[ci].node)
                  : events[e].source_row;
          contribs_.push_back(Contribution{src, ci, EtaPow(dist)});
        }
      }
    }
    // Stable counting sort by candidate.
    cand_begin_.assign(n_cands + 1, 0);
    for (const Contribution& c : contribs_) ++cand_begin_[c.cand + 1];
    for (size_t ci = 0; ci < n_cands; ++ci) {
      cand_begin_[ci + 1] += cand_begin_[ci];
    }
    by_cand_.resize(contribs_.size());
    for (const Contribution& c : contribs_) by_cand_[cand_begin_[c.cand]++] = c;
    // cand_begin_[ci] now ends bucket ci; bucket ci starts where ci - 1
    // ends.
    uint32_t begin = 0;
    for (size_t ci = 0; ci < n_cands; ++ci) {
      const uint32_t end = cand_begin_[ci];
      // Order the bucket by (source, event order) and fold each source.
      keys_.clear();
      for (uint32_t i = begin; i < end; ++i) {
        keys_.push_back(uint64_t{by_cand_[i].src} << 32 | i);
      }
      std::sort(keys_.begin(), keys_.end());
      Candidate& cand = out.candidates[ci];
      std::vector<std::pair<uint32_t, float>>& list = cand.sources[qi];
      double total = 0.0;
      for (size_t k = 0; k < keys_.size();) {
        const uint32_t src = static_cast<uint32_t>(keys_[k] >> 32);
        double w = 0.0;
        for (; k < keys_.size() && (keys_[k] >> 32) == src; ++k) {
          w += by_cand_[static_cast<uint32_t>(keys_[k])].w;
        }
        list.emplace_back(src, static_cast<float>(w));
        total += w;
      }
      cand.static_weight[qi] = total;
      begin = end;
    }
  }

  for (Candidate& c : out.candidates) {
    double cap = 1.0;
    for (size_t qi = 0; qi < n_keywords; ++qi) cap *= c.static_weight[qi];
    c.cap = cap;
    out.max_cap = std::max(out.max_cap, cap);
  }
  return out;
}

}  // namespace s3::core
