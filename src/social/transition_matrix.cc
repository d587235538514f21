#include "social/transition_matrix.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <unordered_map>

#include "social/propagate_kernels.h"
#if defined(S3_SIMD_AVX2)
#include "social/propagate_avx2.h"
#endif

namespace s3::social {

namespace {

// Runtime kernel dispatch: the AVX2 TU (compiled with -mavx2, no FMA
// contraction, no fast-math) is bit-for-bit equal to the scalar
// build — only the element-wise lane dimension vectorizes — so the
// dispatch is purely a throughput decision.
#if defined(S3_SIMD_AVX2)
const bool kHaveAvx2 = __builtin_cpu_supports("avx2");
#endif

inline void ScatterRowD(size_t lanes, const uint32_t* cols,
                        const double* vals, size_t n, const double* mass,
                        double* out) {
#if defined(S3_SIMD_AVX2)
  if (kHaveAvx2) return avx2::ScatterRow(lanes, cols, vals, n, mass, out);
#endif
  pk::ScatterRow(lanes, cols, vals, n, mass, out);
}

inline void GatherRowD(size_t lanes, const uint32_t* cols, const double* vals,
                       size_t n, const double* in, double* acc) {
#if defined(S3_SIMD_AVX2)
  if (kHaveAvx2) return avx2::GatherRow(lanes, cols, vals, n, in, acc);
#endif
  pk::GatherRow(lanes, cols, vals, n, in, acc);
}

}  // namespace

void BatchFrontier::Init(size_t total_rows, size_t n_lanes) {
  assert(n_lanes >= 1 && n_lanes <= kMaxFrontierLanes);
  lanes = n_lanes;
  values.assign(total_rows * n_lanes, 0.0);
  nonzero.clear();
  lane_mass.assign(n_lanes, 0);
  touch_epoch.assign(total_rows, 0);
  epoch = 0;
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
  if (!had && v != 0.0) nonzero.push_back(row);
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

void TransitionMatrix::BuildTranspose() {
  const size_t total = rows();
  t_row_ptr_.assign(total + 1, 0);
  for (uint32_t col : cols_) ++t_row_ptr_[col + 1];
  for (uint32_t r = 0; r < total; ++r) t_row_ptr_[r + 1] += t_row_ptr_[r];
  t_cols_.resize(cols_.size());
  t_vals_.resize(vals_.size());
  std::vector<uint64_t> cursor(t_row_ptr_.begin(), t_row_ptr_.end() - 1);
  for (uint32_t row = 0; row < total; ++row) {
    for (uint64_t i = row_ptr_[row]; i < row_ptr_[row + 1]; ++i) {
      uint64_t pos = cursor[cols_[i]]++;
      t_cols_[pos] = row;
      t_vals_[pos] = vals_[i];
    }
  }
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
  BuildTranspose();
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
  BuildTranspose();
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
  BuildTranspose();
}

void TransitionMatrix::PropagateBatchPush(const BatchFrontier& in,
                                          BatchFrontier& out) const {
  const size_t L = in.lanes;
  out.Clear();
  if (out.touch_epoch.size() != rows()) {
    out.touch_epoch.assign(rows(), 0);
    out.epoch = 0;
  }
  if (++out.epoch == 0) {  // epoch wrap: reset the marks once
    std::fill(out.touch_epoch.begin(), out.touch_epoch.end(), 0);
    out.epoch = 1;
  }
  const uint32_t e = out.epoch;
  std::vector<uint32_t>& touched = out.nonzero;
  for (uint32_t row : in.nonzero) {
    const double* mass = &in.values[static_cast<size_t>(row) * L];
    bool any = false;
    for (size_t l = 0; l < L && !any; ++l) any = mass[l] != 0.0;
    if (!any) continue;  // e.g. every lane holding this row dropped out
    const uint64_t begin = row_ptr_[row], end = row_ptr_[row + 1];
    for (uint64_t i = begin; i < end; ++i) {
      const uint32_t col = cols_[i];
      if (out.touch_epoch[col] != e) {
        out.touch_epoch[col] = e;
        touched.push_back(col);
      }
    }
    ScatterRowD(L, cols_.data() + begin, vals_.data() + begin, end - begin,
                mass, out.values.data());
  }
  std::sort(touched.begin(), touched.end());
  // Keep only columns with some surviving lane value; flag lane
  // survival while at it.
  size_t w = 0;
  for (uint32_t col : touched) {
    const double* p = &out.values[static_cast<size_t>(col) * L];
    bool any = false;
    for (size_t l = 0; l < L; ++l) {
      if (p[l] != 0.0) {
        any = true;
        out.lane_mass[l] = 1;
      }
    }
    if (any) touched[w++] = col;
  }
  touched.resize(w);
}

void TransitionMatrix::PropagateBatchPull(
    const BatchFrontier& in, BatchFrontier& out, ThreadPool* pool,
    const std::vector<uint32_t>* pull_rows) const {
  const size_t L = in.lanes;
  out.Clear();
  // When a restriction list is given, only those rows are gathered —
  // the caller guarantees every skipped row gathers exactly 0.0, so
  // leaving it zeroed (Clear above) is what the full sweep would have
  // stored. The list is ascending, so nonzero stays sorted.
  const size_t total = pull_rows != nullptr ? pull_rows->size() : rows();
  auto row_at = [&](size_t i) {
    return pull_rows != nullptr ? (*pull_rows)[i]
                                : static_cast<uint32_t>(i);
  };
  const double* inv = in.values.data();
  if (pool == nullptr) {
    double acc[kMaxFrontierLanes];
    for (size_t i = 0; i < total; ++i) {
      const uint32_t row = row_at(i);
      const uint64_t begin = t_row_ptr_[row], end = t_row_ptr_[row + 1];
      GatherRowD(L, t_cols_.data() + begin, t_vals_.data() + begin,
                 end - begin, inv, acc);
      bool any = false;
      for (size_t l = 0; l < L; ++l) {
        if (acc[l] != 0.0) {
          any = true;
          out.lane_mass[l] = 1;
        }
      }
      if (any) {
        std::copy(acc, acc + L, &out.values[static_cast<size_t>(row) * L]);
        out.nonzero.push_back(row);
      }
    }
    return;
  }
  // Chunks are contiguous ascending row ranges, so the concatenated
  // nonzero list stays sorted.
  const size_t n_chunks = (pool->WorkerCount() + 1) * 4;
  const size_t chunk = (total + n_chunks - 1) / n_chunks;
  std::vector<std::vector<uint32_t>> nz_per_chunk(n_chunks);
  std::vector<std::array<uint8_t, kMaxFrontierLanes>> mass_per_chunk(
      n_chunks);
  pool->ParallelFor(n_chunks, [&](size_t c) {
    const size_t begin_i = c * chunk;
    const size_t end_i = std::min(total, begin_i + chunk);
    auto& nz = nz_per_chunk[c];
    auto& lm = mass_per_chunk[c];
    lm.fill(0);
    double acc[kMaxFrontierLanes];
    for (size_t i = begin_i; i < end_i; ++i) {
      const uint32_t row = row_at(i);
      const uint64_t begin = t_row_ptr_[row], end = t_row_ptr_[row + 1];
      GatherRowD(L, t_cols_.data() + begin, t_vals_.data() + begin,
                 end - begin, inv, acc);
      bool any = false;
      for (size_t l = 0; l < L; ++l) {
        if (acc[l] != 0.0) {
          any = true;
          lm[l] = 1;
        }
      }
      if (any) {
        std::copy(acc, acc + L, &out.values[static_cast<size_t>(row) * L]);
        nz.push_back(row);
      }
    }
  });
  for (size_t c = 0; c < n_chunks; ++c) {
    out.nonzero.insert(out.nonzero.end(), nz_per_chunk[c].begin(),
                       nz_per_chunk[c].end());
    for (size_t l = 0; l < L; ++l) {
      if (mass_per_chunk[c][l]) out.lane_mass[l] = 1;
    }
  }
}

void TransitionMatrix::PropagateBatchAdaptive(
    const BatchFrontier& in, BatchFrontier& out, ThreadPool* pool,
    const std::vector<uint32_t>* pull_rows, bool* used_pull) const {
  // Pull reads all nnz transpose entries sequentially; push scatters
  // into `touched` of them. The crossover sits where the scatter
  // traffic approaches the full sequential sweep, measured on the
  // union support; the measurement stops as soon as the verdict is
  // known. The verdict may differ from what any single lane would have
  // chosen alone — harmless, because push and pull are
  // bitwise-identical per lane (ascending source-row accumulation both
  // ways). A pull restriction shrinks the pull side of the crossover
  // proportionally: the gather only sweeps the restricted rows'
  // transpose entries.
  const size_t pull_span = pull_rows != nullptr ? pull_rows->size() : rows();
  uint64_t touched_cut = nonzeros() / 4;
  if (pull_rows != nullptr && rows() > 0) {
    touched_cut = std::max<uint64_t>(
        1, static_cast<uint64_t>(static_cast<double>(touched_cut) *
                                 static_cast<double>(pull_span) /
                                 static_cast<double>(rows())));
  }
  uint64_t touched = 0;
  for (uint32_t row : in.nonzero) {
    touched += row_ptr_[row + 1] - row_ptr_[row];
    if (touched >= touched_cut) break;
  }
  const bool dense = touched >= touched_cut ||
                     in.nonzero.size() * 4 >= pull_span;
  if (used_pull != nullptr) *used_pull = dense;
  if (dense) {
    PropagateBatchPull(in, out, pool, pull_rows);
  } else {
    PropagateBatchPush(in, out);
  }
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
