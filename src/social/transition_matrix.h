// Normalized social-path transition matrix.
//
// Paper §2.5 defines path normalization: when a path enters a node n
// (the end of the previous edge), the next edge e — which may leave n
// or any of its vertical neighbors — gets the normalized weight
//     e.n_w = e.w / Σ_{e' ∈ out(neigh(n))} e'.w .
// Because the denominator depends only on the entered node n, all the
// normalized continuations from n form a row of a (sub)stochastic
// matrix T:
//     T[n][m] = Σ_{e: x→m, x ∈ neigh(n)∪{n}} e.w / D(n),
//     D(n)    = Σ_{e' ∈ out(neigh(n)∪{n})} e'.w .
// The k-step frontier of the seeker (the paper's borderProx, §5.2) is
// then δ_u · T^k, computed by repeated sparse vector-matrix products.
// Row sums are ≤ 1, which yields the exact long-path attenuation bound
// B>n_prox = γ^-(n+1) used by S3k. It also caps every later frontier
// entry by its column maximum: for m ≥ 1,
//     (δ_u · T^m)[r] = Σ_j (δ_u · T^(m−1))[j] · T[j][r] ≤ colmax[r],
// since the previous frontier's mass is ≤ 1 (see ColumnMax()).
#ifndef S3_SOCIAL_TRANSITION_MATRIX_H_
#define S3_SOCIAL_TRANSITION_MATRIX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/storage_span.h"
#include "doc/document_store.h"
#include "social/edge_store.h"
#include "social/entity.h"

namespace s3::social {

// One seeker's exploration frontier: values[row] is its mass on
// `row`, and `nonzero` lists the rows with nonzero mass, ascending,
// after seeding and after every propagate step. Every row outside
// `nonzero` is zero: `Propagate` finds the new support by scanning the
// values of the rows it touched, so write `values` only through these
// members and `Propagate`. The frontier is exhausted when `nonzero` is
// empty.
struct Frontier {
  std::vector<double> values;     // total_rows
  std::vector<uint32_t> nonzero;  // ascending

  void Init(size_t total_rows);
  void Clear();
  // Sets one row's value (seeker seeding); keeps `nonzero` sorted.
  void Set(uint32_t row, double v);
};

// CSR matrix over entity rows.
class TransitionMatrix {
 public:
  // Builds T from the network edges and the document structure
  // (vertical neighborhoods). Layout must cover all entities referenced
  // by the edge store.
  void Build(const EntityLayout& layout, const EdgeStore& edges,
             const doc::DocumentStore& docs);

  // Live-update path: builds this matrix for the post-delta row space
  // from `base`, the pre-delta instance's matrix, without recomputing
  // untouched rows. `base` is only read (its arrays may be views into a
  // mapped snapshot) and stays valid. `touched[row]` (indexed in the
  // *new* row space, size new_layout.total()) marks rows whose
  // neighborhood gained an out-edge; new-entity rows are recomputed
  // regardless. `old_tag_base` is the pre-delta row of tag 0 (users +
  // old fragments) and `n_new_fragments` the fragment-count growth —
  // the delta appends fragments before the tag block, so every old tag
  // row (and every matrix column >= old_tag_base) shifts up by
  // n_new_fragments; untouched rows are spliced over with that column
  // remap, bit-identical values included. Only the recomputed rows'
  // sources are indexed out of the edge log, and the CSR arrays are
  // sized exactly.
  void IncrementalUpdate(const TransitionMatrix& base,
                         const EntityLayout& new_layout,
                         const EdgeStore& edges,
                         const doc::DocumentStore& docs,
                         const std::vector<char>& touched,
                         uint32_t old_tag_base, uint32_t n_new_fragments);

  // One exploration step out = in · T: a push (sparse scatter) over
  // the rows of `in.nonzero` through the kernel of propagate_kernels.h.
  // `out.nonzero` comes back sorted ascending and holds exactly the
  // nonzero rows (one branchless scan of the touched row range, no
  // per-row scratch), so chained steps keep the invariant. Each output
  // row accumulates its terms in ascending source-row order. `in` and
  // `out` must cover rows().
  void Propagate(const Frontier& in, Frontier& out) const;

  // Normalization denominator D(n) for the row of entity `n` (0 if the
  // neighborhood has no outgoing edge).
  double Denominator(uint32_t row) const { return denom_[row]; }

  // Sum of the row (≤ 1; 0 for sink rows).
  double RowSum(uint32_t row) const;

  size_t rows() const { return row_ptr_.empty() ? 0 : row_ptr_.size() - 1; }
  size_t nonzeros() const { return cols_.size(); }

  // Entries of one row as (column, value) pairs — for tests and for the
  // naive reference implementation.
  std::vector<std::pair<uint32_t, double>> Row(uint32_t row) const;

  // colmax[r]: the largest entry of column r (0 for a column no row
  // reaches), one per row. Bounds every frontier value after the first
  // step (file comment), which is what S3k's per-(candidate, keyword)
  // tail coefficient is built from. Derived in O(nnz) at the end of
  // Build, IncrementalUpdate and Adopt; always heap-owned, never part
  // of a snapshot.
  const std::vector<double>& ColumnMax() const { return col_max_; }

  // ---- snapshot (de)serialization hooks --------------------------------

  // Raw CSR views for the binary snapshot writer. Each array may be
  // heap-owned (Build/IncrementalUpdate output, heap loads) or a view
  // into an mmap'd snapshot section (mmap attach).
  const StorageSpan<uint64_t>& row_ptr() const { return row_ptr_; }
  const StorageSpan<uint32_t>& col_index() const { return cols_; }
  const StorageSpan<double>& values() const { return vals_; }
  const StorageSpan<double>& denominators() const { return denom_; }

  // Binary-load path: adopts a deserialized CSR wholesale — shape
  // validation only (monotone row_ptr, in-range strictly-ascending
  // columns per row, matching array sizes); the float values are
  // covered by the snapshot's checksum framing. `n_rows` is the
  // entity-row count the matrix must cover.
  Status Adopt(StorageSpan<uint64_t> row_ptr, StorageSpan<uint32_t> cols,
               StorageSpan<double> vals, StorageSpan<double> denom,
               size_t n_rows);

 private:
  // Owned scratch a Build/IncrementalUpdate pass accumulates into
  // before the results are swapped into the (possibly view-backed)
  // spans — mutation never happens through an adopted array.
  struct CsrBuild {
    std::vector<uint64_t> row_ptr;
    std::vector<uint32_t> cols;
    std::vector<double> vals;
    std::vector<double> denom;
  };

  // Dense per-row accumulator: acc[col] is the row's unnormalized
  // weight on col (zero outside the row being computed) and `cols`
  // lists the columns the row touched.
  struct RowScratch {
    std::vector<double> acc;
    std::vector<uint32_t> cols;
  };

  // Computes one row (sorted normalized entries appended to cols/vals)
  // from the out-edges of its neighborhood in `adj`, and returns its
  // denominator; shared by Build and IncrementalUpdate. Each column
  // sums its weights in log order, entity by entity (the row's own
  // entity, then its vertical neighbors).
  static double ComputeRow(uint32_t row, const EntityLayout& layout,
                           const EdgeStore& edges, const OutAdjacency& adj,
                           const doc::DocumentStore& docs, RowScratch& s,
                           std::vector<uint32_t>& cols,
                           std::vector<double>& vals);

  // Recomputes col_max_ from the current CSR.
  void ComputeColumnMax();

  StorageSpan<uint64_t> row_ptr_;
  StorageSpan<uint32_t> cols_;
  StorageSpan<double> vals_;
  StorageSpan<double> denom_;
  std::vector<double> col_max_;
};

}  // namespace s3::social

#endif  // S3_SOCIAL_TRANSITION_MATRIX_H_
