#include "core/s3_instance.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <future>

#include "core/instance_delta.h"
#include "rdf/vocab.h"

namespace s3::core {

using social::EdgeLabel;
using social::EntityId;

namespace {
// Lineage tokens. Unique within a process by construction (atomic
// counter); the counter is offset by a wall-clock base so tokens from
// *different* processes — which can meet through one storage
// directory across restarts (server/snapshot_manager.h) — practically
// never collide either. A restored snapshot reserves its serialized
// lineage (ReserveLineage) so that a Finalize run after a recovery
// can never mint a colliding token in the same process.
uint64_t LineageBase() {
  static const uint64_t base =
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::seconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count())
      << 20;
  return base;
}

std::atomic<uint64_t> g_next_lineage{1};
std::atomic<uint64_t> g_next_instance_id{1};

uint64_t MintInstanceId() {
  return g_next_instance_id.fetch_add(1, std::memory_order_relaxed);
}

uint64_t MintLineage() {
  return LineageBase() + g_next_lineage.fetch_add(1,
                                                  std::memory_order_relaxed);
}

void ReserveLineage(uint64_t lineage) {
  const uint64_t base = LineageBase();
  if (lineage < base) return;  // every future mint already exceeds it
  const uint64_t floor = lineage - base + 1;
  uint64_t cur = g_next_lineage.load(std::memory_order_relaxed);
  while (cur < floor &&
         !g_next_lineage.compare_exchange_weak(cur, floor,
                                               std::memory_order_relaxed)) {
  }
}
}  // namespace

S3Instance::S3Instance()
    : terms_(std::make_shared<rdf::TermDictionary>()),
      rdf_(std::make_shared<rdf::TripleStore>()) {
  // Pre-intern the S3 vocabulary and its RDFS wiring so that user
  // ontologies can specialize S3 properties (paper §2.2 Extensibility).
  rdf::TermId social_p = terms_->InternUri(rdf::vocab::kSocial);
  rdf::TermId comments_p = terms_->InternUri(rdf::vocab::kCommentsOn);
  rdf::TermId posted_p = terms_->InternUri(rdf::vocab::kPostedBy);
  rdf::TermId related_c = terms_->InternUri(rdf::vocab::kRelatedTo);
  (void)social_p;
  (void)comments_p;
  (void)posted_p;
  (void)related_c;
}

S3Instance::S3Instance(const S3Instance& base)
    : users_(base.users_),
      tags_(base.tags_),
      docs_(base.docs_),
      edges_(base.edges_),
      terms_(base.terms_),
      rdf_(base.rdf_),
      vocabulary_(base.vocabulary_),
      explicit_social_(base.explicit_social_),
      poster_of_(base.poster_of_),
      finalized_(base.finalized_),
      generation_(base.generation_),
      lineage_(base.lineage_),
      rdf_social_edges_(base.rdf_social_edges_),
      saturation_stats_(base.saturation_stats_),
      reach_parent_(base.reach_parent_),
      reach_root_(base.reach_root_) {}

social::UserId S3Instance::AddUser(std::string uri) {
  social::UserId id = static_cast<social::UserId>(users_.size());
  users_.push_back(User{id, std::move(uri)});
  // u type S3:user
  rdf_->Add(terms_->InternUri(users_.back().uri),
            terms_->InternUri(rdf::vocab::kType),
            terms_->InternUri(rdf::vocab::kUserClass));
  return id;
}

Status S3Instance::AddSocialEdge(social::UserId from, social::UserId to,
                                 double weight) {
  S3_RETURN_IF_ERROR(RequireNotFinalized("AddSocialEdge"));
  if (from >= users_.size() || to >= users_.size()) {
    return Status::InvalidArgument("unknown user id in social edge");
  }
  if (!(weight > 0.0 && weight <= 1.0)) {
    return Status::InvalidArgument("social edge weight must be in (0,1]");
  }
  edges_.Add(EntityId::User(from), EntityId::User(to), EdgeLabel::kSocial,
             weight);
  explicit_social_.push_back(ExplicitSocialEdge{from, to, weight});
  return Status::OK();
}

template <typename KeywordsOf>
Status S3Instance::CheckNewDocument(social::UserId poster, uint32_t n_nodes,
                                    KeywordsOf&& keywords_of) const {
  if (finalized_) {
    return Status::FailedPrecondition("AddDocument after Finalize");
  }
  if (poster >= users_.size()) {
    return Status::InvalidArgument("unknown poster user id");
  }
  // The keyword directories are indexed by KeywordId, so every id must
  // name an interned keyword.
  for (uint32_t local = 0; local < n_nodes; ++local) {
    for (KeywordId k : keywords_of(local)) {
      if (k >= vocabulary_.size()) {
        return Status::InvalidArgument("document keyword id " +
                                       std::to_string(k) + " not interned");
      }
    }
  }
  return Status::OK();
}

Result<doc::DocId> S3Instance::PostDocument(Result<doc::DocId> added,
                                            social::UserId poster) {
  if (!added.ok()) return added.status();
  doc::DocId d = added.value();
  poster_of_.push_back(poster);
  // root S3:postedBy poster (+ inverse).
  edges_.AddWithInverse(EntityId::Fragment(docs_.RootNode(d)),
                        EntityId::User(poster), EdgeLabel::kPostedBy, 1.0);
  return d;
}

Result<doc::DocId> S3Instance::AddDocument(doc::Document document,
                                           std::string uri,
                                           social::UserId poster) {
  S3_RETURN_IF_ERROR(CheckNewDocument(
      poster, document.NodeCount(), [&](uint32_t local) -> const auto& {
        return document.node(local).keywords;
      }));
  return PostDocument(docs_.AddDocument(document, uri), poster);
}

Result<doc::DocId> S3Instance::AddDocumentFrom(
    const doc::DocumentStore& source, doc::DocId d, social::UserId poster) {
  S3_RETURN_IF_ERROR(
      CheckNewDocument(poster, source.NodeCount(d), [&](uint32_t local) {
        return source.Keywords(source.GlobalId(d, local));
      }));
  return PostDocument(docs_.AddDocumentFrom(source, d), poster);
}

Status S3Instance::AddComment(doc::DocId comment, doc::NodeId target) {
  S3_RETURN_IF_ERROR(RequireNotFinalized("AddComment"));
  if (comment >= docs_.DocumentCount() || target >= docs_.NodeCount()) {
    return Status::InvalidArgument("unknown document or node in AddComment");
  }
  doc::NodeId root = docs_.RootNode(comment);
  if (root == target ||
      (docs_.DocOf(target) == comment)) {
    return Status::InvalidArgument("a document cannot comment on itself");
  }
  edges_.AddWithInverse(EntityId::Fragment(root),
                        EntityId::Fragment(target),
                        EdgeLabel::kCommentsOn, 1.0);
  return Status::OK();
}

Result<social::TagId> S3Instance::AddTagOnFragment(social::UserId author,
                                                   doc::NodeId subject,
                                                   KeywordId keyword) {
  if (finalized_) {
    return Status::FailedPrecondition("AddTagOnFragment after Finalize");
  }
  if (author >= users_.size()) {
    return Status::InvalidArgument("unknown tag author");
  }
  if (keyword != kInvalidKeyword && keyword >= vocabulary_.size()) {
    return Status::InvalidArgument("tag keyword id not interned");
  }
  if (subject >= docs_.NodeCount()) {
    return Status::InvalidArgument("unknown tag subject node");
  }
  social::TagId id = static_cast<social::TagId>(tags_.size());
  tags_.push_back(Tag{id, author, EntityId::Fragment(subject), keyword});
  EntityId te = EntityId::Tag(id);
  edges_.AddWithInverse(te, EntityId::Fragment(subject),
                        EdgeLabel::kHasSubject, 1.0);
  edges_.AddWithInverse(te, EntityId::User(author), EdgeLabel::kHasAuthor,
                        1.0);
  return id;
}

Result<social::TagId> S3Instance::AddTagOnTag(social::UserId author,
                                              social::TagId subject,
                                              KeywordId keyword) {
  if (finalized_) {
    return Status::FailedPrecondition("AddTagOnTag after Finalize");
  }
  if (author >= users_.size()) {
    return Status::InvalidArgument("unknown tag author");
  }
  if (keyword != kInvalidKeyword && keyword >= vocabulary_.size()) {
    return Status::InvalidArgument("tag keyword id not interned");
  }
  if (subject >= tags_.size()) {
    return Status::InvalidArgument("unknown subject tag");
  }
  social::TagId id = static_cast<social::TagId>(tags_.size());
  tags_.push_back(Tag{id, author, EntityId::Tag(subject), keyword});
  EntityId te = EntityId::Tag(id);
  edges_.AddWithInverse(te, EntityId::Tag(subject), EdgeLabel::kHasSubject,
                        1.0);
  edges_.AddWithInverse(te, EntityId::User(author), EdgeLabel::kHasAuthor,
                        1.0);
  return id;
}

void S3Instance::DeclareSubClass(const std::string& sub,
                                 const std::string& super) {
  rdf_->Add(terms_->InternUri(sub),
            terms_->InternUri(rdf::vocab::kSubClassOf),
            terms_->InternUri(super));
}

void S3Instance::DeclareSubProperty(const std::string& sub,
                                    const std::string& super) {
  rdf_->Add(terms_->InternUri(sub),
            terms_->InternUri(rdf::vocab::kSubPropertyOf),
            terms_->InternUri(super));
}

void S3Instance::DeclareType(const std::string& instance,
                             const std::string& klass) {
  rdf_->Add(terms_->InternUri(instance),
            terms_->InternUri(rdf::vocab::kType),
            terms_->InternUri(klass));
}

std::vector<KeywordId> S3Instance::InternText(std::string_view text) {
  std::vector<KeywordId> out;
  for (const std::string& word : ExtractKeywords(text)) {
    out.push_back(vocabulary_.Intern(word));
  }
  return out;
}

Status S3Instance::RequireNotFinalized(const char* op) const {
  if (finalized_) {
    return Status::FailedPrecondition(std::string(op) + " after Finalize");
  }
  return Status::OK();
}

Status S3Instance::Finalize() {
  S3_RETURN_IF_ERROR(RequireNotFinalized("Finalize"));
  // 1. RDFS closure; the semantics of the graph is its saturation.
  saturation_stats_ = rdf::Saturate(*terms_, *rdf_);

  // 1b. Extensibility (paper §2.2): RDF-declared social relationships
  // join the network. After saturation, any specialization p ≺sp
  // S3:social has already propagated its assertions to S3:social
  // itself, so scanning S3:social triples suffices.
  {
    rdf::TermId social_p = terms_->InternUri(rdf::vocab::kSocial);
    rdf::TermId sub_p = terms_->InternUri(rdf::vocab::kSubPropertyOf);
    // AddUser interned every user URI as a URI term; the first user of
    // a URI owns it.
    std::vector<social::UserId> user_of_term(terms_->size(), UINT32_MAX);
    for (const User& u : users_) {
      social::UserId& owner =
          user_of_term[terms_->Find(u.uri, rdf::TermKind::kUri)];
      if (owner == UINT32_MAX) owner = u.id;
    }
    auto import_triple = [&](const rdf::Triple& t) {
      const social::UserId from = user_of_term[t.subject];
      const social::UserId to = user_of_term[t.object];
      if (from == UINT32_MAX || to == UINT32_MAX) return;
      if (!(t.weight > 0.0 && t.weight <= 1.0)) return;
      edges_.Add(social::EntityId::User(from), social::EntityId::User(to),
                 social::EdgeLabel::kSocial, t.weight);
      ++rdf_social_edges_;
    };
    // Weight-1 assertions of sub-properties were propagated to
    // S3:social by saturation; weighted assertions are not (inference
    // is restricted to weight 1), so pick them up from each
    // specialization directly.
    for (uint32_t idx : rdf_->WithProperty(social_p)) {
      import_triple(rdf_->triples()[idx]);
    }
    for (uint32_t sub_idx : rdf_->WithPropertyObject(sub_p, social_p)) {
      rdf::TermId p = rdf_->triples()[sub_idx].subject;
      if (p == social_p) continue;
      for (uint32_t idx : rdf_->WithProperty(p)) {
        const rdf::Triple& t = rdf_->triples()[idx];
        if (t.weight != 1.0) import_triple(t);
      }
    }
  }

  // 2. Entity layout over the final populations.
  layout_.emplace(static_cast<uint32_t>(users_.size()),
                  static_cast<uint32_t>(docs_.NodeCount()),
                  static_cast<uint32_t>(tags_.size()));

  // 3. Keyword -> fragment postings.
  index_.Rebuild(docs_);

  // 4. Normalized transition matrix and component partition.
  matrix_.Build(*layout_, edges_, docs_);
  components_.Build(*layout_, edges_, docs_);

  // 5. Keyword -> component directory (fragments containing k, tags
  // keyworded with k).
  comps_with_keyword_.Build(vocabulary_.size(), [&](auto&& emit) {
    for (KeywordId k = 0; k < vocabulary_.size(); ++k) {
      for (doc::NodeId n : index_.Postings(k)) {
        emit(k, components_.Of(EntityId::Fragment(n)));
      }
    }
    for (const Tag& tag : tags_) {
      if (tag.keyword == kInvalidKeyword) continue;
      emit(tag.keyword, components_.Of(EntityId::Tag(tag.id)));
    }
  });
  comps_with_keyword_.SortUnique();

  // 6. Reach partition over the completed edge log, and the tags-on /
  // comments-on tables.
  BuildReach(/*first_new_edge=*/0);
  IndexSubjects(/*base=*/nullptr);
  comp_stamp_.assign(components_.ComponentCount(), generation_);

  finalized_ = true;
  lineage_ = MintLineage();
  instance_id_ = MintInstanceId();
  return Status::OK();
}

social::UserId S3Instance::OwnerOfEntity(social::EntityId e) const {
  switch (e.kind()) {
    case social::EntityKind::kUser:
      return e.index();
    case social::EntityKind::kFragment:
      return poster_of_[docs_.DocOf(e.index())];
    case social::EntityKind::kTag:
      return tags_[e.index()].author;
  }
  return UINT32_MAX;
}

uint32_t S3Instance::ReachRootOfComponent(social::ComponentId c) const {
  const uint32_t row = components_.Members(c).front();
  return reach_root_[OwnerOfEntity(layout().Entity(row))];
}

void S3Instance::BuildReach(uint32_t first_new_edge) {
  const uint32_t n_users = static_cast<uint32_t>(users_.size());
  if (first_new_edge == 0 || reach_parent_.size() != n_users) {
    reach_parent_.resize(n_users);
    for (uint32_t u = 0; u < n_users; ++u) reach_parent_[u] = u;
  }
  auto find = [&](uint32_t u) {
    while (reach_parent_[u] != u) {
      reach_parent_[u] = reach_parent_[reach_parent_[u]];  // halving
      u = reach_parent_[u];
    }
    return u;
  };
  for (uint32_t idx = first_new_edge; idx < edges_.size(); ++idx) {
    const social::NetEdge& e = edges_.edge(idx);
    // An edge within one owner's entities (every postedBy / hasAuthor
    // edge) joins nothing: compare the owners before any find.
    const uint32_t owner_a = OwnerOfEntity(e.source);
    const uint32_t owner_b = OwnerOfEntity(e.target);
    if (owner_a == owner_b) continue;
    const uint32_t a = find(owner_a);
    const uint32_t b = find(owner_b);
    if (a != b) reach_parent_[b] = a;
  }
  reach_root_.resize(n_users);
  for (uint32_t u = 0; u < n_users; ++u) reach_root_[u] = find(u);
}

const social::EntityLayout& S3Instance::layout() const {
  assert(layout_.has_value() && "layout available after Finalize only");
  return *layout_;
}

void S3Instance::IndexSubjects(const S3Instance* base) {
  const social::EntityLayout& layout = *layout_;
  tags_on_.Build(layout.total(), [&](auto&& emit) {
    for (const Tag& t : tags_) emit(layout.Row(t.subject), t.id);
  });
  // Node ids survive a delta, so each base list is a prefix of its
  // successor's: the base's comments come first, then those appended
  // since, in log order (collected in one pass over the log's tail).
  std::vector<std::pair<doc::NodeId, doc::NodeId>> added;  // (target, root)
  const uint32_t first_edge =
      base == nullptr ? 0 : static_cast<uint32_t>(base->edges_.size());
  for (uint32_t idx = first_edge; idx < edges_.size(); ++idx) {
    const social::NetEdge& e = edges_.edge(idx);
    if (e.label == EdgeLabel::kCommentsOn) {
      added.emplace_back(e.target.index(), e.source.index());
    }
  }
  comments_on_.Build(docs_.NodeCount(), [&](auto&& emit) {
    if (base != nullptr) {
      for (doc::NodeId n = 0; n < base->comments_on_.keys(); ++n) {
        for (doc::NodeId c : base->comments_on_[n]) emit(n, c);
      }
    }
    for (const auto& [target, root] : added) emit(target, root);
  });
}

std::span<const social::TagId> S3Instance::TagsOn(
    social::EntityId subject) const {
  assert(finalized_ && "TagsOn available after Finalize only");
  return tags_on_[layout_->Row(subject)];
}

std::span<const doc::NodeId> S3Instance::CommentsOnFragment(
    doc::NodeId target) const {
  assert(finalized_ && "CommentsOnFragment available after Finalize only");
  return comments_on_[target];
}

std::vector<doc::NodeId> S3Instance::CommentTargets() const {
  std::vector<doc::NodeId> out(docs_.DocumentCount(), doc::kInvalidNode);
  for (const social::NetEdge& e : edges_.edges()) {
    if (e.label != EdgeLabel::kCommentsOn) continue;
    const doc::NodeId source = e.source.index();
    const doc::DocId d = docs_.DocOf(source);
    if (docs_.RootNode(d) == source) out[d] = e.target.index();
  }
  return out;
}

std::vector<KeywordId> S3Instance::ExtendKeyword(KeywordId k) const {
  std::vector<KeywordId> out{k};
  const std::string_view spelling = vocabulary_.Spelling(k);
  rdf::TermId term = terms_->Find(spelling, rdf::TermKind::kUri);
  if (term == rdf::kInvalidTerm) {
    // Literals can also be extension anchors (e.g. a class lexicalized
    // by a plain word).
    term = terms_->Find(spelling, rdf::TermKind::kLiteral);
  }
  if (term == rdf::kInvalidTerm) return out;
  for (rdf::TermId t : rdf::Extension(*terms_, *rdf_, term)) {
    if (t == term) continue;
    KeywordId kid = vocabulary_.Find(terms_->Text(t));
    if (kid != kInvalidKeyword && kid != k) out.push_back(kid);
  }
  return out;
}

Result<std::shared_ptr<const S3Instance>> S3Instance::FromSnapshot(
    SnapshotPopulation pop, SnapshotDerived derived,
    const std::vector<doc::NodeId>& comments) {
  auto bad = [](const std::string& why) {
    return Status::InvalidArgument("snapshot population: " + why);
  };
  if (pop.terms == nullptr || pop.rdf == nullptr) {
    return bad("missing term dictionary or RDF graph");
  }
  // Every saved instance pre-interned the S3 vocabulary at
  // construction; its absence means this is not an S3Instance term
  // dictionary at all.
  if (pop.terms->Find(rdf::vocab::kSocial, rdf::TermKind::kUri) ==
      rdf::kInvalidTerm) {
    return bad("term dictionary lacks the S3 vocabulary");
  }

  std::shared_ptr<S3Instance> inst(new S3Instance());
  inst->vocabulary_ = std::move(pop.vocabulary);
  inst->users_ = std::move(pop.users);
  inst->explicit_social_ = std::move(pop.explicit_social);
  inst->docs_ = std::move(pop.docs);
  inst->tags_ = std::move(pop.tags);
  inst->edges_ = std::move(pop.edges);
  inst->terms_ = std::move(pop.terms);
  inst->rdf_ = std::move(pop.rdf);

  const size_t n_users = inst->users_.size();
  const size_t n_nodes = inst->docs_.NodeCount();
  const size_t n_tags = inst->tags_.size();

  for (size_t i = 0; i < n_users; ++i) {
    if (inst->users_[i].id != i) return bad("user ids not dense");
  }
  for (const ExplicitSocialEdge& e : inst->explicit_social_) {
    if (e.from >= n_users || e.to >= n_users) {
      return bad("social edge endpoint out of range");
    }
    if (!(e.weight > 0.0 && e.weight <= 1.0)) {
      return bad("social edge weight outside (0,1]");
    }
  }
  // Tag table, validated in id order (AttachDerived indexes the tags
  // by subject once it is valid).
  for (size_t i = 0; i < n_tags; ++i) {
    const Tag& t = inst->tags_[i];
    if (t.id != i) return bad("tag ids not dense");
    if (t.author >= n_users) return bad("tag author out of range");
    if (t.keyword != kInvalidKeyword &&
        t.keyword >= inst->vocabulary_.size()) {
      return bad("tag keyword out of range");
    }
    switch (t.subject.kind()) {
      case social::EntityKind::kFragment:
        if (t.subject.index() >= n_nodes) {
          return bad("tag subject node out of range");
        }
        break;
      case social::EntityKind::kTag:
        if (t.subject.index() >= t.id) {
          return bad("tag subject must precede the tag");
        }
        break;
      default:
        return bad("tag subject must be a fragment or a tag");
    }
  }

  // Edge-log scan: endpoint range + label-signature validation. The
  // kind check matters beyond tidiness: a CRC-valid crafted snapshot
  // could otherwise smuggle, say, a user index into the comments-on
  // table (AttachDerived builds it from these edges), whose consumers
  // index document structures without re-checking.
  using EK = social::EntityKind;
  for (const social::NetEdge& e : inst->edges_.edges()) {
    auto in_range = [&](social::EntityId id) {
      switch (id.kind()) {
        case EK::kUser:
          return id.index() < n_users;
        case EK::kFragment:
          return id.index() < n_nodes;
        case EK::kTag:
          return id.index() < n_tags;
      }
      return false;
    };
    if (!in_range(e.source) || !in_range(e.target)) {
      return bad("edge endpoint out of range");
    }
    auto is = [&](social::EntityId id, EK kind) {
      return id.kind() == kind;
    };
    bool label_ok = false;
    switch (e.label) {
      case EdgeLabel::kSocial:
        label_ok = is(e.source, EK::kUser) && is(e.target, EK::kUser);
        break;
      case EdgeLabel::kPostedBy:
        label_ok = is(e.source, EK::kFragment) && is(e.target, EK::kUser);
        break;
      case EdgeLabel::kPostedByInv:
        label_ok = is(e.source, EK::kUser) && is(e.target, EK::kFragment);
        break;
      case EdgeLabel::kCommentsOn:
      case EdgeLabel::kCommentsOnInv:
        label_ok =
            is(e.source, EK::kFragment) && is(e.target, EK::kFragment);
        break;
      case EdgeLabel::kHasSubject:
        label_ok = is(e.source, EK::kTag) && !is(e.target, EK::kUser);
        break;
      case EdgeLabel::kHasSubjectInv:
        label_ok = !is(e.source, EK::kUser) && is(e.target, EK::kTag);
        break;
      case EdgeLabel::kHasAuthor:
        label_ok = is(e.source, EK::kTag) && is(e.target, EK::kUser);
        break;
      case EdgeLabel::kHasAuthorInv:
        label_ok = is(e.source, EK::kUser) && is(e.target, EK::kTag);
        break;
    }
    if (!label_ok) {
      return bad("edge endpoint kinds do not match label " +
                 std::string(social::EdgeLabelName(e.label)));
    }
    if (e.label == EdgeLabel::kCommentsOn) {
      if (inst->docs_.DocOf(e.source.index()) ==
          inst->docs_.DocOf(e.target.index())) {
        return bad("a kCommentsOn edge stays inside one document");
      }
    }
    if (e.label == EdgeLabel::kPostedBy) {
      const doc::DocId d = inst->docs_.DocOf(e.source.index());
      if (inst->docs_.RootNode(d) == e.source.index()) {
        if (inst->poster_of_.size() <= d) inst->poster_of_.resize(d + 1, UINT32_MAX);
        inst->poster_of_[d] = e.target.index();
      }
    }
  }
  // COMMENTS duplicates what the edge log says; a CRC-valid entry that
  // disagrees with it is refused rather than silently overridden.
  const std::vector<doc::NodeId> targets = inst->CommentTargets();
  if (comments.size() != targets.size()) {
    return bad("COMMENTS has " + std::to_string(comments.size()) +
               " entries for " + std::to_string(targets.size()) +
               " documents");
  }
  for (doc::DocId d = 0; d < targets.size(); ++d) {
    if (comments[d] != targets[d]) {
      return bad("COMMENTS entry for doc " + std::to_string(d) +
                 " disagrees with EDGES");
    }
  }
  // Every document carries a postedBy edge from its root (AddDocument
  // invariant); the reach partition and the sharding layer rely on the
  // recovered poster table being total.
  inst->poster_of_.resize(inst->docs_.DocumentCount(), UINT32_MAX);
  for (doc::DocId d = 0; d < inst->poster_of_.size(); ++d) {
    if (inst->poster_of_[d] == UINT32_MAX) {
      return bad("document " + std::to_string(d) + " has no postedBy edge");
    }
  }

  S3_RETURN_IF_ERROR(inst->AttachDerived(std::move(derived)));
  return std::shared_ptr<const S3Instance>(std::move(inst));
}

Status S3Instance::AttachDerived(SnapshotDerived d) {
  S3_RETURN_IF_ERROR(RequireNotFinalized("AttachDerived"));
  auto bad = [](const std::string& why) {
    return Status::InvalidArgument("snapshot derived state: " + why);
  };
  if (d.lineage == 0 || d.lineage > (uint64_t{1} << 62)) {
    return bad("implausible lineage token");
  }

  layout_.emplace(static_cast<uint32_t>(users_.size()),
                  static_cast<uint32_t>(docs_.NodeCount()),
                  static_cast<uint32_t>(tags_.size()));

  // The codec checked the postings' and the keyword directory's own
  // invariants (keywords in range, lists non-empty and strictly
  // ascending, nodes in range) while it decoded them.
  index_ = std::move(d.index);

  // The matrix and the forest are validated and adopted on a helper
  // thread while this one derives what is not serialized — the reach
  // partition and the tags-on / comments-on tables, pure functions of
  // the (already validated) population, one scan each. Neither side
  // reads what the other writes. A helper that cannot be started runs
  // deferred, in get().
  std::future<Status> adopted =
      std::async(std::launch::async | std::launch::deferred, [&] {
        S3_RETURN_IF_ERROR(matrix_.Adopt(
            std::move(d.matrix_row_ptr), std::move(d.matrix_cols),
            std::move(d.matrix_vals), std::move(d.matrix_denom),
            layout_->total()));
        return components_.AdoptForest(*layout_,
                                       std::move(d.component_forest));
      });
  BuildReach(/*first_new_edge=*/0);
  IndexSubjects(/*base=*/nullptr);
  S3_RETURN_IF_ERROR(adopted.get());

  // Each list ascends, so its last item bounds it.
  for (KeywordId k = 0; k < d.comps_with_keyword.keys(); ++k) {
    const auto comps = d.comps_with_keyword[k];
    if (!comps.empty() && comps.back() >= components_.ComponentCount()) {
      return bad("KWCOMPS component of keyword " + std::to_string(k) +
                 " out of range");
    }
  }
  comps_with_keyword_ = std::move(d.comps_with_keyword);

  saturation_stats_ = d.saturation_stats;
  rdf_social_edges_ = d.rdf_social_edges;
  generation_ = d.generation;
  lineage_ = d.lineage;
  ReserveLineage(d.lineage);
  comp_stamp_.assign(components_.ComponentCount(), generation_);
  instance_id_ = MintInstanceId();
  finalized_ = true;
  return Status::OK();
}

Result<std::shared_ptr<const S3Instance>> S3Instance::ApplyDelta(
    const InstanceDelta& delta) const {
  if (!finalized_) {
    return Status::FailedPrecondition("ApplyDelta on unfinalized instance");
  }
  if (delta.base().get() != this) {
    return Status::InvalidArgument(
        "delta was built against a different snapshot (generation " +
        std::to_string(delta.base_generation()) + ")");
  }

  // Structure-sharing copy, then replay the delta's operations through
  // the ordinary population API (identical ordering and validation to
  // a from-scratch rebuild of base ops + delta ops). The base is never
  // mutated, so FinalizeIncremental reads the pre-delta state from it.
  std::shared_ptr<S3Instance> next(new S3Instance(*this));
  next->finalized_ = false;
  for (const std::string& spelling : delta.new_spellings()) {
    next->vocabulary_.Intern(spelling);
  }
  S3_RETURN_IF_ERROR(delta.Replay(*next));
  S3_RETURN_IF_ERROR(next->FinalizeIncremental(*this));
  next->instance_id_ = MintInstanceId();
  next->parent_id_ = instance_id_;
  return std::shared_ptr<const S3Instance>(std::move(next));
}

Status S3Instance::FinalizeIncremental(const S3Instance& base) {
  const uint32_t old_users = static_cast<uint32_t>(base.users_.size());
  const uint32_t old_nodes = static_cast<uint32_t>(base.docs_.NodeCount());
  const uint32_t old_tags = static_cast<uint32_t>(base.tags_.size());
  const doc::DocId first_new_doc =
      static_cast<doc::DocId>(base.docs_.DocumentCount());
  const uint32_t first_new_edge = static_cast<uint32_t>(base.edges_.size());
  if (users_.size() != old_users) {
    return Status::Internal("deltas cannot add users");
  }
  const uint32_t new_nodes = static_cast<uint32_t>(docs_.NodeCount());
  const uint32_t n_new_frag = new_nodes - old_nodes;
  const uint32_t old_tag_base = old_users + old_nodes;

  // Saturation and the RDF social-edge import are skipped: deltas add
  // no triples, so the shared saturated graph is already final. (This
  // is also where exact rebuild equivalence gets its one caveat: a
  // rebuild appends RDF-imported social edges *after* the delta's
  // edges, so with rdf_social_edges() > 0 the edge log orders differ —
  // same edge multiset, but parallel-edge float accumulation may
  // differ in the last ulp.)

  // Layout over the grown populations; tag rows shift by n_new_frag.
  layout_.emplace(static_cast<uint32_t>(users_.size()),
                  static_cast<uint32_t>(docs_.NodeCount()),
                  static_cast<uint32_t>(tags_.size()));

  // Inverted index: the base's postings with the new nodes appended.
  index_.Extend(base.index_, docs_, old_nodes);

  // Transition matrix: recompute only rows whose neighborhood gained
  // an out-edge (a new edge from entity s touches row(s), and — since
  // fragment rows also normalize over their vertical neighbors — the
  // rows of s's vertical neighborhood); splice everything else.
  std::vector<char> touched(layout_->total(), 0);
  for (uint32_t idx = first_new_edge; idx < edges_.size(); ++idx) {
    const social::NetEdge& e = edges_.edge(idx);
    touched[layout_->Row(e.source)] = 1;
    if (e.source.kind() == social::EntityKind::kFragment) {
      for (doc::NodeId v : docs_.VerticalNeighbors(e.source.index())) {
        touched[layout_->Row(EntityId::Fragment(v))] = 1;
      }
    }
  }
  matrix_.IncrementalUpdate(base.matrix_, *layout_, edges_, docs_, touched,
                            old_tag_base, n_new_frag);

  // Component re-discovery for touched vertices: extend the persisted
  // union-find with the delta's partOf clusters and linking edges.
  components_.BuildIncremental(base.components_, *layout_, edges_, docs_,
                               first_new_doc, first_new_edge, old_tag_base,
                               n_new_frag);

  // Keyword -> component directory. Old component ids survive unless
  // the delta merged pre-existing components (a new comment or tag
  // chain bridging two of them); map each pre-delta component to its
  // successor through one representative row.
  const social::ComponentIndex& old_comps = base.components_;
  std::vector<social::ComponentId> old_to_new(old_comps.ComponentCount());
  for (social::ComponentId c = 0; c < old_to_new.size(); ++c) {
    const uint32_t rep = old_comps.Members(c).front();
    const uint32_t new_rep = rep < old_tag_base ? rep : rep + n_new_frag;
    old_to_new[c] = components_.OfRow(new_rep);
  }
  // One splice: each base list (remapped) followed by the components
  // of the new fragments and tags holding the keyword; then the lists
  // the remap or the appends disordered are sorted and deduplicated.
  comps_with_keyword_.Splice(
      base.comps_with_keyword_, vocabulary_.size(),
      [&](auto&& emit) {
        for (doc::NodeId n = old_nodes; n < new_nodes; ++n) {
          const social::ComponentId c =
              components_.Of(EntityId::Fragment(n));
          for (KeywordId k : docs_.Keywords(n)) emit(k, c);
        }
        for (social::TagId t = old_tags; t < tags_.size(); ++t) {
          if (tags_[t].keyword == kInvalidKeyword) continue;
          emit(tags_[t].keyword, components_.Of(EntityId::Tag(t)));
        }
      },
      [&](social::ComponentId c) { return old_to_new[c]; });
  comps_with_keyword_.SortUnique();

  // Change stamps. A component keeps the stamp of the one pre-delta
  // component it continues, unless the delta gave it a new fragment or
  // tag, merged a second one into it, or appended an edge at one of its
  // members — a comment from a base document, say, which adds neither.
  // (Every new document and tag appends an edge at its own rows, so
  // the last rule covers the first two today; they do not lean on it.)
  generation_ = base.generation_ + 1;
  comp_stamp_.assign(components_.ComponentCount(), generation_);
  std::vector<char> continued(comp_stamp_.size(), 0);
  for (social::ComponentId c = 0; c < old_to_new.size(); ++c) {
    const social::ComponentId nc = old_to_new[c];
    comp_stamp_[nc] = continued[nc] ? generation_ : base.comp_stamp_[c];
    continued[nc] = 1;
  }
  for (uint32_t row = old_tag_base; row < old_tag_base + n_new_frag; ++row) {
    comp_stamp_[components_.OfRow(row)] = generation_;
  }
  for (social::TagId t = old_tags; t < tags_.size(); ++t) {
    comp_stamp_[components_.Of(EntityId::Tag(t))] = generation_;
  }
  for (uint32_t idx = first_new_edge; idx < edges_.size(); ++idx) {
    const social::NetEdge& e = edges_.edge(idx);
    for (EntityId end : {e.source, e.target}) {
      if (end.kind() == social::EntityKind::kUser) continue;
      comp_stamp_[components_.Of(end)] = generation_;
    }
  }

  // Reach partition: extend the inherited forest with the delta's
  // owner links only (the user set is fixed, so no remap is needed).
  BuildReach(first_new_edge);
  IndexSubjects(&base);

  finalized_ = true;
  return Status::OK();
}

uint32_t S3Instance::RowOfUser(social::UserId u) const {
  return layout().Row(EntityId::User(u));
}
uint32_t S3Instance::RowOfFragment(doc::NodeId n) const {
  return layout().Row(EntityId::Fragment(n));
}
uint32_t S3Instance::RowOfTag(social::TagId t) const {
  return layout().Row(EntityId::Tag(t));
}

}  // namespace s3::core
