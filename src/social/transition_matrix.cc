#include "social/transition_matrix.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "social/propagate_kernels.h"

namespace s3::social {

void BatchFrontier::Init(size_t total_rows, size_t n_lanes) {
  assert(n_lanes >= 1 && n_lanes <= kMaxFrontierLanes);
  lanes = n_lanes;
  values.assign(total_rows * n_lanes, 0.0);
  nonzero.clear();
  lane_mass.assign(n_lanes, 0);
}

void BatchFrontier::Clear() {
  for (uint32_t row : nonzero) {
    double* p = &values[static_cast<size_t>(row) * lanes];
    for (size_t l = 0; l < lanes; ++l) p[l] = 0.0;
  }
  nonzero.clear();
  std::fill(lane_mass.begin(), lane_mass.end(), 0);
}

void BatchFrontier::Set(uint32_t row, size_t lane, double v) {
  double* p = &values[static_cast<size_t>(row) * lanes];
  bool had = false;
  for (size_t l = 0; l < lanes; ++l) had = had || p[l] != 0.0;
  if (!had && v != 0.0) {
    nonzero.insert(std::lower_bound(nonzero.begin(), nonzero.end(), row),
                   row);
  }
  p[lane] = v;
  if (v != 0.0) lane_mass[lane] = 1;
}

void BatchFrontier::ZeroLane(size_t lane) {
  for (uint32_t row : nonzero) {
    values[static_cast<size_t>(row) * lanes + lane] = 0.0;
  }
  lane_mass[lane] = 0;
}

void TransitionMatrix::AppendComputedRow(
    uint32_t row, const EntityLayout& layout, const EdgeStore& edges,
    const doc::DocumentStore& docs, CsrBuild& b,
    std::unordered_map<uint32_t, double>& row_acc,
    std::vector<std::pair<uint32_t, double>>& sorted_row) {
  row_acc.clear();
  auto accumulate_entity = [&](EntityId x) {
    for (uint32_t eidx : edges.OutEdges(x)) {
      const NetEdge& e = edges.edge(eidx);
      row_acc[layout.Row(e.target)] += e.weight;
    }
  };
  EntityId n = layout.Entity(row);
  double d = edges.OutWeight(n);
  accumulate_entity(n);
  if (n.kind() == EntityKind::kFragment) {
    // A path entering a fragment may exit from any vertical neighbor.
    for (doc::NodeId v : docs.VerticalNeighbors(n.index())) {
      EntityId ve = EntityId::Fragment(v);
      d += edges.OutWeight(ve);
      accumulate_entity(ve);
    }
  }
  b.denom[row] = d;
  sorted_row.assign(row_acc.begin(), row_acc.end());
  std::sort(sorted_row.begin(), sorted_row.end());
  for (auto& [col, w] : sorted_row) {
    b.cols.push_back(col);
    b.vals.push_back(w / d);
  }
  b.row_ptr[row + 1] = b.cols.size();
}

Status TransitionMatrix::Adopt(StorageSpan<uint64_t> row_ptr,
                               StorageSpan<uint32_t> cols,
                               StorageSpan<double> vals,
                               StorageSpan<double> denom, size_t n_rows) {
  auto bad = [](const std::string& why) {
    return Status::InvalidArgument("transition matrix: " + why);
  };
  if (row_ptr.size() != n_rows + 1 || denom.size() != n_rows) {
    return bad("row count mismatch");
  }
  if (row_ptr[0] != 0 || row_ptr.back() != cols.size() ||
      cols.size() != vals.size()) {
    return bad("CSR extent mismatch");
  }
  for (size_t r = 0; r < n_rows; ++r) {
    if (row_ptr[r] > row_ptr[r + 1]) return bad("row_ptr not monotone");
    for (uint64_t i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      if (cols[i] >= n_rows) return bad("column out of range");
      if (i > row_ptr[r] && cols[i] <= cols[i - 1]) {
        return bad("row columns not strictly ascending");
      }
    }
  }
  row_ptr_ = std::move(row_ptr);
  cols_ = std::move(cols);
  vals_ = std::move(vals);
  denom_ = std::move(denom);
  ComputeColumnMax();
  return Status::OK();
}

void TransitionMatrix::Build(const EntityLayout& layout,
                             const EdgeStore& edges,
                             const doc::DocumentStore& docs) {
  const uint32_t total = layout.total();
  CsrBuild b;
  b.row_ptr.assign(total + 1, 0);
  b.denom.assign(total, 0.0);

  // Per-row accumulation buffer: column -> weight sum (unnormalized).
  std::unordered_map<uint32_t, double> row_acc;
  std::vector<std::pair<uint32_t, double>> sorted_row;

  for (uint32_t row = 0; row < total; ++row) {
    AppendComputedRow(row, layout, edges, docs, b, row_acc, sorted_row);
  }
  row_ptr_ = std::move(b.row_ptr);
  cols_ = std::move(b.cols);
  vals_ = std::move(b.vals);
  denom_ = std::move(b.denom);
  ComputeColumnMax();
}

void TransitionMatrix::IncrementalUpdate(const EntityLayout& new_layout,
                                         const EdgeStore& edges,
                                         const doc::DocumentStore& docs,
                                         const std::vector<char>& touched,
                                         uint32_t old_tag_base,
                                         uint32_t n_new_fragments) {
  const uint32_t total = new_layout.total();
  const uint32_t old_total = static_cast<uint32_t>(rows());
  const uint32_t new_frag_end = old_tag_base + n_new_fragments;
  assert(touched.size() == total);

  // The pre-delta CSR (possibly view-backed on a mapped base) is read
  // in place while the successor arrays accumulate in owned scratch;
  // the swap at the end releases it — or, for a view, just this
  // matrix's pin on the mapping.
  const StorageSpan<uint64_t> old_row_ptr = std::move(row_ptr_);
  const StorageSpan<uint32_t> old_cols = std::move(cols_);
  const StorageSpan<double> old_vals = std::move(vals_);
  const StorageSpan<double> old_denom = std::move(denom_);

  CsrBuild b;
  b.row_ptr.assign(total + 1, 0);
  b.denom.assign(total, 0.0);
  b.cols.reserve(old_cols.size());
  b.vals.reserve(old_vals.size());

  std::unordered_map<uint32_t, double> row_acc;
  std::vector<std::pair<uint32_t, double>> sorted_row;

  for (uint32_t row = 0; row < total; ++row) {
    // New-layout row -> pre-delta row: rows below the old tag base are
    // unchanged, the next n_new_fragments rows are new fragments, and
    // the rest are (old tags shifted up) followed by new tags.
    uint32_t old_row = UINT32_MAX;
    if (row < old_tag_base) {
      old_row = row;
    } else if (row >= new_frag_end && row - n_new_fragments < old_total) {
      old_row = row - n_new_fragments;
    }
    if (old_row != UINT32_MAX && !touched[row]) {
      // Splice: same normalized values, columns remapped for the tag
      // shift (the remap is monotone, so sortedness is preserved).
      b.denom[row] = old_denom[old_row];
      for (uint64_t i = old_row_ptr[old_row]; i < old_row_ptr[old_row + 1];
           ++i) {
        const uint32_t c = old_cols[i];
        b.cols.push_back(c < old_tag_base ? c : c + n_new_fragments);
        b.vals.push_back(old_vals[i]);
      }
      b.row_ptr[row + 1] = b.cols.size();
    } else {
      AppendComputedRow(row, new_layout, edges, docs, b, row_acc,
                        sorted_row);
    }
  }
  row_ptr_ = std::move(b.row_ptr);
  cols_ = std::move(b.cols);
  vals_ = std::move(b.vals);
  denom_ = std::move(b.denom);
  ComputeColumnMax();
}

void TransitionMatrix::ComputeColumnMax() {
  col_max_.assign(rows(), 0.0);
  for (size_t i = 0; i < cols_.size(); ++i) {
    col_max_[cols_[i]] = std::max(col_max_[cols_[i]], vals_[i]);
  }
}

void TransitionMatrix::PropagateBatch(const BatchFrontier& in,
                                      BatchFrontier& out) const {
  assert(in.lanes == out.lanes);
  assert(out.values.size() == rows() * out.lanes);
  out.Clear();
  pk::PushStepAnyWidth(row_ptr_.data(), cols_.data(), vals_.data(),
                       in.nonzero, in.lanes, in.values.data(),
                       out.values.data(), out.nonzero,
                       out.lane_mass.data());
}

double TransitionMatrix::RowSum(uint32_t row) const {
  double s = 0.0;
  for (uint64_t i = row_ptr_[row]; i < row_ptr_[row + 1]; ++i) s += vals_[i];
  return s;
}

std::vector<std::pair<uint32_t, double>> TransitionMatrix::Row(
    uint32_t row) const {
  std::vector<std::pair<uint32_t, double>> out;
  for (uint64_t i = row_ptr_[row]; i < row_ptr_[row + 1]; ++i) {
    out.emplace_back(cols_[i], vals_[i]);
  }
  return out;
}

}  // namespace s3::social
