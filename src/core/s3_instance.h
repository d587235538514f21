// S3Instance: the unified weighted-RDF view of a social application
// (paper §2) — users, structured documents, tags, social and
// interaction edges, plus an RDFS ontology.
//
// Construction is two-phase: populate (AddUser / AddDocument / AddTag /
// AddSocialEdge / ontology triples), then Finalize(), which saturates
// the RDF graph and builds the derived structures the query engine
// needs (inverted index, transition matrix, component partition,
// keyword->component directory).
//
// Finalized instances are immutable. The live-update pipeline grows
// them by *generations*: ApplyDelta(InstanceDelta) produces a new
// finalized snapshot that shares the edge-log chunks and the saturated
// ontology with its base, splices the postings and keyword->component
// lists in one linear pass, splices untouched transition-matrix rows
// and extends the union-find instead of rebuilding — see
// core/instance_delta.h.
//
// Every lookup keyed by a dense id (user, node, tag, entity row or
// keyword) is a flat array: the tags-on and comments-on tables and the
// two keyword directories are CSRs (FlatLists) built by one counting
// sort or splice per generation. The document store is flat too
// (doc/document_store.h): per-node parent, depth, name and
// owning-document arrays plus keyword and child CSRs, with node URIs
// derived from one root-URI arena. So are the keyword vocabulary and
// the term dictionary (one string arena and an open-addressed id table
// each) and the triple store (one triple array and three sorted
// permutations). A snapshot attach decodes the dictionary, triple and
// keyword-list sections straight into these arrays, and a successor
// copies or splices them as a few flat arrays.
#ifndef S3_CORE_S3_INSTANCE_H_
#define S3_CORE_S3_INSTANCE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/flat_lists.h"
#include "common/status.h"
#include "common/storage_span.h"
#include "doc/document_store.h"
#include "doc/inverted_index.h"
#include "rdf/extension.h"
#include "rdf/saturation.h"
#include "rdf/term_dictionary.h"
#include "rdf/triple_store.h"
#include "social/components.h"
#include "social/edge_store.h"
#include "social/entity.h"
#include "social/transition_matrix.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace s3::core {

// A tag (annotation) resource: S3:relatedTo instance with author,
// subject and optional keyword (paper §2.4). A keyword-less tag is an
// endorsement (like / retweet / +1).
struct Tag {
  social::TagId id = 0;
  social::UserId author = 0;
  social::EntityId subject;           // fragment or another tag
  KeywordId keyword = kInvalidKeyword;

  bool IsEndorsement() const { return keyword == kInvalidKeyword; }
};

// Registered user.
struct User {
  social::UserId id = 0;
  std::string uri;
};

class InstanceDelta;

class S3Instance {
 public:
  S3Instance();

  S3Instance& operator=(const S3Instance&) = delete;

  // ---- population phase ----------------------------------------------

  // Registers a user with the given URI.
  social::UserId AddUser(std::string uri);

  // Adds a directed social edge of strength `weight` in (0, 1]
  // (any specialization of S3:social).
  Status AddSocialEdge(social::UserId from, social::UserId to,
                       double weight);

  // Registers a document posted by `poster`; adds the S3:postedBy edge
  // (and its inverse) between the document root and the poster. Every
  // keyword id in the document must be interned.
  Result<doc::DocId> AddDocument(doc::Document document, std::string uri,
                                 social::UserId poster);
  // AddDocument for a copy of document `d` of another store, under its
  // root URI there (InstanceDelta::Replay adds its staged documents so).
  Result<doc::DocId> AddDocumentFrom(const doc::DocumentStore& source,
                                     doc::DocId d, social::UserId poster);

  // Declares that document `comment` comments on fragment `target`
  // (S3:commentsOn, and inverse). Any reply / retweet-with-comment /
  // review-thread relation specializes this.
  Status AddComment(doc::DocId comment, doc::NodeId target);

  // Adds a tag by `author` on a fragment or on another tag. Pass
  // kInvalidKeyword for an endorsement; any other keyword id must be
  // interned.
  Result<social::TagId> AddTagOnFragment(social::UserId author,
                                         doc::NodeId subject,
                                         KeywordId keyword);
  Result<social::TagId> AddTagOnTag(social::UserId author,
                                    social::TagId subject,
                                    KeywordId keyword);

  // Ontology access (population): intern terms and add schema /
  // assertion triples. Saturation runs in Finalize().
  rdf::TermDictionary& terms() { return *terms_; }
  rdf::TripleStore& rdf_graph() { return *rdf_; }

  // Schema helpers (weight-1 triples).
  void DeclareSubClass(const std::string& sub, const std::string& super);
  void DeclareSubProperty(const std::string& sub, const std::string& super);
  void DeclareType(const std::string& instance, const std::string& klass);

  // Keyword pipeline: interning and full text extraction.
  KeywordId InternKeyword(std::string_view keyword) {
    return vocabulary_.Intern(keyword);
  }
  std::vector<KeywordId> InternText(std::string_view text);

  Vocabulary& vocabulary() { return vocabulary_; }
  const Vocabulary& vocabulary() const { return vocabulary_; }

  // Builds all derived structures. Must be called exactly once, after
  // population and before querying.
  //
  // Finalize also realizes the paper's §2.2 extensibility rule: after
  // saturation, every weight-w RDF triple (u1 p u2) whose property p is
  // a (transitive) sub-property of S3:social and whose endpoints are
  // registered users becomes a social edge of weight w. Applications
  // can thus declare relationships purely in RDF (e.g. workedWith ≺sp
  // S3:social plus per-pair triples) and have them join the network.
  Status Finalize();
  bool finalized() const { return finalized_; }

  // ---- live updates ----------------------------------------------------

  // Applies a delta built against *this* snapshot (see
  // core/instance_delta.h) and returns a new finalized snapshot of
  // generation generation()+1. The base is untouched and remains fully
  // queryable; the successor shares the edge chunks and the saturated
  // ontology with it, copies the flat document store and vocabulary,
  // splices the delta's ids onto the base's postings and keyword
  // directory lists, and splices its untouched transition-matrix rows
  // from the base's. Query results over the successor are
  // identical to rebuilding an instance from scratch with the combined
  // population (same operations, same order) — bit for bit when the
  // base has no RDF-imported social edges; with rdf_social_edges() > 0
  // the rebuild orders those after the delta's edges, so parallel-edge
  // float accumulation may differ in the last ulp (see
  // FinalizeIncremental).
  //
  // Fails with FailedPrecondition on an unfinalized base and
  // InvalidArgument when the delta was built against a different
  // snapshot or an operation in it does not validate.
  Result<std::shared_ptr<const S3Instance>> ApplyDelta(
      const InstanceDelta& delta) const;

  // Snapshot generation: 0 for a freshly finalized instance, +1 per
  // applied delta.
  uint64_t generation() const { return generation_; }

  // Lineage token: assigned (process-unique) by Finalize and inherited
  // by every ApplyDelta successor. Two snapshots are comparable by
  // generation only within one lineage — the serving layer refuses to
  // swap across lineages (an unrelated instance's generation number
  // says nothing about its id spaces).
  uint64_t lineage() const { return lineage_; }

  // Process-unique id of this finalized snapshot (Finalize, a snapshot
  // attach and ApplyDelta each mint one), and the id of the snapshot
  // ApplyDelta built it from (0 for a Finalize or attach). Generation
  // and lineage do not prove ancestry — two deltas applied to one base
  // give two same-lineage successors of one generation — so the serving
  // layer follows these ids to know which cached plans it may repair.
  uint64_t instance_id() const { return instance_id_; }
  uint64_t parent_id() const { return parent_id_; }

  // Number of social edges imported from RDF triples by Finalize.
  size_t rdf_social_edges() const { return rdf_social_edges_; }

  // Social edges added through AddSocialEdge (excluding RDF-imported
  // ones), in insertion order — the serializable population.
  struct ExplicitSocialEdge {
    social::UserId from;
    social::UserId to;
    double weight;
  };
  const std::vector<ExplicitSocialEdge>& explicit_social_edges() const {
    return explicit_social_;
  }

  // ---- durable snapshots ----------------------------------------------

  // Deserialized population of a finalized snapshot
  // (core/snapshot_binary.cc). The codec decodes each section straight
  // into its flat member store — ids are assigned densely in insertion
  // order, so id-order decoding reproduces them exactly — and hands the
  // result to FromSnapshot, which installs it *without* the population
  // API: AddUser/AddDocument/... would re-derive RDF triples and
  // network edges that are already present verbatim in `rdf`/`edges`.
  struct SnapshotPopulation {
    Vocabulary vocabulary;
    std::vector<User> users;
    std::vector<ExplicitSocialEdge> explicit_social;
    doc::DocumentStore docs;
    std::vector<Tag> tags;
    social::EdgeStore edges;  // full log, insertion order
    std::shared_ptr<rdf::TermDictionary> terms;
    std::shared_ptr<rdf::TripleStore> rdf;  // already saturated
  };

  // Deserialized derived state: everything Finalize would compute.
  // The large fixed-width arrays are StorageSpans: a heap load fills
  // them with owned vectors, while an mmap attach hands over
  // zero-copy views pinning the mapped snapshot —
  // AttachDerived adopts either backing unchanged.
  struct SnapshotDerived {
    uint64_t generation = 0;
    uint64_t lineage = 0;
    uint64_t rdf_social_edges = 0;
    rdf::SaturationStats saturation_stats;
    doc::InvertedIndex index;  // the INDEX section's lists, adopted
    StorageSpan<uint64_t> matrix_row_ptr;
    StorageSpan<uint32_t> matrix_cols;
    StorageSpan<double> matrix_vals;
    StorageSpan<uint32_t> component_forest;
    // KWCOMPS: per keyword, its strictly ascending component list.
    FlatLists<social::ComponentId> comps_with_keyword;
  };

  // The load-side counterpart of Finalize's build path: installs a
  // fully deserialized finalized snapshot, skipping saturation, the
  // RDF social-edge import, matrix/component construction and the
  // keyword directories entirely (AttachDerived validates and adopts
  // them instead). Generation and lineage round-trip intact; the
  // process-wide lineage counter is advanced past the restored lineage
  // so freshly finalized instances can never collide with a recovered
  // one. Returns InvalidArgument when any structure fails validation
  // against the population.
  static Result<std::shared_ptr<const S3Instance>> FromSnapshot(
      SnapshotPopulation population, SnapshotDerived derived);

  // ---- finalized accessors --------------------------------------------

  const doc::DocumentStore& docs() const { return docs_; }
  const doc::InvertedIndex& index() const { return index_; }
  const social::EdgeStore& edges() const { return edges_; }
  const social::TransitionMatrix& matrix() const { return matrix_; }
  const social::ComponentIndex& components() const { return components_; }
  const social::EntityLayout& layout() const;
  const std::vector<Tag>& tags() const { return tags_; }
  const std::vector<User>& users() const { return users_; }
  const rdf::TripleStore& rdf_graph() const { return *rdf_; }
  const rdf::TermDictionary& terms() const { return *terms_; }
  const rdf::SaturationStats& saturation_stats() const {
    return saturation_stats_;
  }

  size_t UserCount() const { return users_.size(); }
  size_t TagCount() const { return tags_.size(); }

  // Tags whose subject is the given entity, ascending. Finalized
  // instances only, like layout().
  std::span<const social::TagId> TagsOn(social::EntityId subject) const;

  // Root nodes of documents commenting on fragment `target`, in
  // comment order (one entry per comment). Finalized instances only.
  std::span<const doc::NodeId> CommentsOnFragment(doc::NodeId target) const;

  // Ext(k) mapped into keyword space: the extension of the keyword's
  // spelling through the saturated ontology, restricted to keywords
  // that occur in the instance. Always contains k itself (first).
  std::vector<KeywordId> ExtendKeyword(KeywordId k) const;

  // Components containing keyword k directly (a fragment containing k,
  // or a tag with keyword k). Sorted, unique.
  std::span<const social::ComponentId> ComponentsWithKeyword(
      KeywordId k) const {
    return comps_with_keyword_[k];
  }

  // Convenience: entity rows.
  uint32_t RowOfUser(social::UserId u) const;
  uint32_t RowOfFragment(doc::NodeId n) const;
  uint32_t RowOfTag(social::TagId t) const;

  // ---- reach groups ----------------------------------------------------
  //
  // Every entity hangs off exactly one *owning* user (a fragment off its
  // document's poster, a tag off its author); network edges only ever
  // connect entities whose owners are linked through social /
  // postedBy / commentsOn / hasSubject / hasAuthor relations. The reach
  // partition is the union-find closure of those owner links: two
  // entities can appear on one social path iff their owners share a
  // reach root. S3k uses it to prune unreachable components from the
  // termination threshold; the sharding layer (src/shard) uses it as
  // the unit of placement — a shard holding a seeker's whole reach
  // group answers that seeker exactly.

  // Poster of document `d` (the S3:postedBy target of its root).
  social::UserId PosterOfDoc(doc::DocId d) const { return poster_of_[d]; }

  // Owning user of any entity (users own themselves).
  social::UserId OwnerOfEntity(social::EntityId e) const;

  // Reach-group representative of a user / of a component's owners.
  // Roots are only comparable within one snapshot: the representative
  // is an arbitrary member, equal iff the groups are equal.
  uint32_t ReachRootOfUser(social::UserId u) const { return reach_root_[u]; }
  uint32_t ReachRootOfComponent(social::ComponentId c) const;

  // The generation at which component `c` last changed: gained a member
  // (a new fragment or tag, or another component by a merge) or an
  // endpoint of a new edge. Finalize and a snapshot attach stamp every
  // component with their own generation; ApplyDelta carries each
  // untouched component's stamp over. A component stamped at or below
  // generation g has the same members, tags and comments as at g, so
  // its candidates for any query are still those built at g
  // (RepairCandidatePlan). Derived, never persisted.
  uint64_t ComponentChangedAt(social::ComponentId c) const {
    return comp_stamp_[c];
  }

 private:
  // Structure-sharing copy used by ApplyDelta: shared_ptr members are
  // shared, the edge log shares its full chunks, and the flat document
  // store and vocabulary copy their arrays. What FinalizeIncremental
  // builds afresh from the base — the layout, the postings, the
  // transition matrix, the component index and the keyword, tags-on
  // and comments-on tables — is left empty rather than copied. Never
  // exposed: copying a non-finalized instance would alias the mutable
  // ontology.
  S3Instance(const S3Instance& base);

  Status RequireNotFinalized(const char* op) const;

  // The two halves of AddDocument / AddDocumentFrom: the poster and
  // keyword checks on a document whose keywords `keywords_of(local)`
  // lists, and the poster table and postedBy edges once `added` holds.
  template <typename KeywordsOf>
  Status CheckNewDocument(social::UserId poster, uint32_t n_nodes,
                          KeywordsOf&& keywords_of) const;
  Result<doc::DocId> PostDocument(Result<doc::DocId> added,
                                  social::UserId poster);

  // Second phase of FromSnapshot: `this` holds the restored population
  // and is not finalized. Validates the derived structures against the
  // population (sizes, id ranges, structural invariants — float
  // payloads are covered by the snapshot's checksum framing) and
  // adopts them in place of a Finalize run.
  Status AttachDerived(SnapshotDerived derived);

  // Incremental counterpart of Finalize() for ApplyDelta: `this` is a
  // successor copy of `base` whose population has been extended by a
  // replayed delta (documents, comments, tags, social edges — never
  // users or ontology triples); refreshes the derived structures
  // without recomputing anything the delta did not touch, reading the
  // pre-delta populations, matrix and partition from `base`.
  Status FinalizeIncremental(const S3Instance& base);

  // Builds the tags-on and comments-on tables (needs the layout).
  // Finalize, AttachDerived and FinalizeIncremental all build them this
  // one way, in the push order of a from-scratch build: tag id order,
  // and kCommentsOn log order (AddComment call order). With a `base`
  // (FinalizeIncremental), the comment lists start from the base's and
  // only the log entries appended since are scanned.
  void IndexSubjects(const S3Instance* base);

  // Rebuilds the reach partition from the full edge log (Finalize,
  // AttachDerived), or extends the inherited forest with the owner
  // links of edges >= first_new_edge (FinalizeIncremental; the user
  // population is fixed, so the forest never grows).
  void BuildReach(uint32_t first_new_edge);

  // population state
  std::vector<User> users_;
  std::vector<Tag> tags_;
  doc::DocumentStore docs_;
  social::EdgeStore edges_;
  // Shared across generations: deltas may not add users or ontology
  // triples, so the term dictionary, the (saturated) RDF graph and the
  // saturation stats are identical in every successor snapshot.
  std::shared_ptr<rdf::TermDictionary> terms_;
  std::shared_ptr<rdf::TripleStore> rdf_;
  Vocabulary vocabulary_;
  std::vector<ExplicitSocialEdge> explicit_social_;
  std::vector<social::UserId> poster_of_;  // per DocId

  // derived state (Finalize / FinalizeIncremental)
  bool finalized_ = false;
  uint64_t generation_ = 0;
  uint64_t lineage_ = 0;
  uint64_t instance_id_ = 0;
  uint64_t parent_id_ = 0;
  size_t rdf_social_edges_ = 0;
  std::optional<social::EntityLayout> layout_;
  // Tags on each subject, keyed by the subject's entity row; comment
  // roots on each fragment, keyed by the target node (IndexSubjects).
  FlatLists<social::TagId> tags_on_;
  FlatLists<doc::NodeId> comments_on_;
  doc::InvertedIndex index_;
  social::TransitionMatrix matrix_;
  social::ComponentIndex components_;
  std::vector<uint64_t> comp_stamp_;  // by component (ComponentChangedAt)
  rdf::SaturationStats saturation_stats_;
  // Components containing each keyword, sorted unique per keyword.
  FlatLists<social::ComponentId> comps_with_keyword_;
  // Reach partition over users: the union-find forest (kept for
  // incremental extension — deltas never add users, so its size is
  // fixed) and the flattened per-user root for O(1) immutable lookups.
  std::vector<uint32_t> reach_parent_;
  std::vector<uint32_t> reach_root_;
};

}  // namespace s3::core

#endif  // S3_CORE_S3_INSTANCE_H_
