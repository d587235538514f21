#include "social/transition_matrix.h"

#include <algorithm>
#include <cassert>

#include "social/propagate_kernels.h"

namespace s3::social {

void Frontier::Init(size_t total_rows) {
  values.assign(total_rows, 0.0);
  nonzero.clear();
}

void Frontier::Clear() {
  for (uint32_t row : nonzero) values[row] = 0.0;
  nonzero.clear();
}

void Frontier::Set(uint32_t row, double v) {
  if (values[row] == 0.0 && v != 0.0) {
    nonzero.insert(std::lower_bound(nonzero.begin(), nonzero.end(), row),
                   row);
  }
  values[row] = v;
}

void TransitionMatrix::ComputeRow(uint32_t row, const EntityLayout& layout,
                                  const EdgeStore& edges,
                                  const OutAdjacency& adj,
                                  const doc::DocumentStore& docs,
                                  RowScratch& s, std::vector<uint32_t>& cols,
                                  std::vector<double>& vals) {
  // Returns the entity's own out-weight, summed in log order. Weights
  // are > 0 (EdgeStore::Add), so a zero accumulator marks an untouched
  // column.
  auto accumulate = [&](uint32_t entity_row) {
    double w = 0.0;
    for (uint32_t eidx : adj[entity_row]) {
      const NetEdge& e = edges.edge(eidx);
      const uint32_t col = layout.Row(e.target);
      if (s.acc[col] == 0.0) s.cols.push_back(col);
      s.acc[col] += e.weight;
      w += e.weight;
    }
    return w;
  };
  double d = accumulate(row);
  const EntityId n = layout.Entity(row);
  if (n.kind() == EntityKind::kFragment) {
    // A path entering a fragment may exit from any vertical neighbor.
    for (doc::NodeId v : docs.VerticalNeighbors(n.index())) {
      d += accumulate(layout.Row(EntityId::Fragment(v)));
    }
  }
  std::sort(s.cols.begin(), s.cols.end());
  for (uint32_t col : s.cols) {
    cols.push_back(col);
    vals.push_back(s.acc[col] / d);
    s.acc[col] = 0.0;
  }
  s.cols.clear();
}

Status TransitionMatrix::Adopt(StorageSpan<uint64_t> row_ptr,
                               StorageSpan<uint32_t> cols,
                               StorageSpan<double> vals, size_t n_rows) {
  auto bad = [](const std::string& why) {
    return Status::InvalidArgument("transition matrix: " + why);
  };
  if (row_ptr.size() != n_rows + 1) return bad("row count mismatch");
  if (row_ptr[0] != 0 || row_ptr.back() != cols.size() ||
      cols.size() != vals.size()) {
    return bad("CSR extent mismatch");
  }
  row_ptr_ = std::move(row_ptr);
  cols_ = std::move(cols);
  vals_ = std::move(vals);
  ComputeColumnMax();
  return Status::OK();
}

void TransitionMatrix::Build(const EntityLayout& layout,
                             const EdgeStore& edges,
                             const doc::DocumentStore& docs) {
  const uint32_t total = layout.total();
  const OutAdjacency adj = IndexOutEdges(layout, edges);
  CsrBuild b;
  b.row_ptr.assign(total + 1, 0);
  RowScratch scratch;
  scratch.acc.assign(total, 0.0);
  for (uint32_t row = 0; row < total; ++row) {
    ComputeRow(row, layout, edges, adj, docs, scratch, b.cols, b.vals);
    b.row_ptr[row + 1] = b.cols.size();
  }
  row_ptr_ = std::move(b.row_ptr);
  cols_ = std::move(b.cols);
  vals_ = std::move(b.vals);
  ComputeColumnMax();
}

void TransitionMatrix::IncrementalUpdate(const TransitionMatrix& base,
                                         const EntityLayout& new_layout,
                                         const EdgeStore& edges,
                                         const doc::DocumentStore& docs,
                                         const std::vector<char>& touched,
                                         uint32_t old_tag_base,
                                         uint32_t n_new_fragments) {
  const uint32_t total = new_layout.total();
  const uint32_t old_total = static_cast<uint32_t>(base.rows());
  const uint32_t new_frag_end = old_tag_base + n_new_fragments;
  assert(touched.size() == total);

  // New-layout row -> pre-delta row: rows below the old tag base are
  // unchanged, the next n_new_fragments rows are new fragments, and the
  // rest are (old tags shifted up) followed by new tags. A row without
  // a pre-delta row, or touched by the delta, is recomputed.
  auto recompute = [&](uint32_t row) {
    if (touched[row]) return true;
    if (row < old_tag_base) return false;
    return row < new_frag_end || row - n_new_fragments >= old_total;
  };

  // Pass 1: list the recomputed rows and mark the entities whose
  // out-edges they read (the row's own entity and, for a fragment, its
  // vertical neighbors).
  std::vector<uint32_t> fresh_rows;
  std::vector<char> want(total, 0);
  for (uint32_t row = 0; row < total; ++row) {
    if (!recompute(row)) continue;
    fresh_rows.push_back(row);
    want[row] = 1;
    const EntityId n = new_layout.Entity(row);
    if (n.kind() == EntityKind::kFragment) {
      for (doc::NodeId v : docs.VerticalNeighbors(n.index())) {
        want[new_layout.Row(EntityId::Fragment(v))] = 1;
      }
    }
  }
  const OutAdjacency adj = IndexOutEdges(new_layout, edges, want);

  // Pass 2: compute the recomputed rows into scratch, counting the
  // base entries they replace.
  CsrBuild b;
  b.row_ptr.assign(total + 1, 0);
  RowScratch scratch;
  scratch.acc.assign(total, 0.0);
  std::vector<uint32_t> fresh_cols;
  std::vector<double> fresh_vals;
  std::vector<uint64_t> fresh_end;
  uint64_t replaced_nnz = 0;
  for (uint32_t row : fresh_rows) {
    ComputeRow(row, new_layout, edges, adj, docs, scratch, fresh_cols,
               fresh_vals);
    fresh_end.push_back(fresh_cols.size());
    const bool old_tag = row >= new_frag_end;
    if (row < old_tag_base || (old_tag && row - n_new_fragments < old_total)) {
      const uint32_t old_row = old_tag ? row - n_new_fragments : row;
      replaced_nnz += base.row_ptr_[old_row + 1] - base.row_ptr_[old_row];
    }
  }

  // Pass 3: assemble into exactly sized arrays. Between two recomputed
  // rows, the spliced rows are a run of consecutive pre-delta rows with
  // one column shift, copied in bulk: same normalized values, columns
  // remapped for the tag shift (the remap is monotone, so sortedness is
  // preserved).
  const uint64_t nnz = base.nonzeros() - replaced_nnz + fresh_cols.size();
  b.cols.resize(nnz);
  b.vals.resize(nnz);
  uint64_t out = 0;
  auto splice_run = [&](uint32_t begin, uint32_t end) {
    if (begin == end) return;
    const uint32_t shift = begin < old_tag_base ? 0 : n_new_fragments;
    const uint32_t o0 = begin - shift;
    const uint32_t o1 = end - shift;
    const uint64_t e0 = base.row_ptr_[o0];
    const uint64_t n = base.row_ptr_[o1] - e0;
    const uint32_t* cols = base.cols_.data() + e0;
    uint32_t* cols_out = b.cols.data() + out;
    for (uint64_t i = 0; i < n; ++i) {
      cols_out[i] = cols[i] < old_tag_base ? cols[i] : cols[i] + n_new_fragments;
    }
    std::copy(base.vals_.data() + e0, base.vals_.data() + e0 + n,
              b.vals.data() + out);
    for (uint32_t r = begin; r < end; ++r) {
      b.row_ptr[r + 1] = out + (base.row_ptr_[r - shift + 1] - e0);
    }
    out += n;
  };
  uint32_t next_row = 0;
  uint64_t fresh_begin = 0;
  for (size_t f = 0; f < fresh_rows.size(); ++f) {
    const uint32_t row = fresh_rows[f];
    splice_run(next_row, row);
    const uint64_t end = fresh_end[f];
    std::copy(fresh_cols.begin() + fresh_begin, fresh_cols.begin() + end,
              b.cols.begin() + out);
    std::copy(fresh_vals.begin() + fresh_begin, fresh_vals.begin() + end,
              b.vals.begin() + out);
    out += end - fresh_begin;
    fresh_begin = end;
    b.row_ptr[row + 1] = out;
    next_row = row + 1;
  }
  splice_run(next_row, total);
  assert(out == nnz);
  row_ptr_ = std::move(b.row_ptr);
  cols_ = std::move(b.cols);
  vals_ = std::move(b.vals);
  ComputeColumnMax();
}

void TransitionMatrix::ComputeColumnMax() {
  col_max_.assign(rows(), 0.0);
  for (size_t i = 0; i < cols_.size(); ++i) {
    col_max_[cols_[i]] = std::max(col_max_[cols_[i]], vals_[i]);
  }
}

void TransitionMatrix::Propagate(const Frontier& in, Frontier& out) const {
  assert(out.values.size() == rows());
  out.Clear();
  pk::PushStep(row_ptr_.data(), cols_.data(), vals_.data(), in.nonzero,
               in.values.data(), out.values.data(), out.nonzero);
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
