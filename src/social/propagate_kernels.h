// The L-lane CSR push step behind TransitionMatrix::PropagateBatch.
//
// Layout: a batched frontier stores L per-seeker values contiguously
// per entity row (values[row*L + lane]) — the textbook SpMM shape: one
// CSR walk over the matrix streams L independent right-hand sides.
// The compiler vectorizes the fixed-width inner lane loop only; the
// per-lane operation sequence over CSR entries is exactly the scalar
// single-seeker order, so every lane's result is bit-for-bit the value
// a lone query would compute. (No FMA contraction, no reassociation:
// the TU compiles without -mfma / fast-math, and the lane dimension is
// element-wise, so there is nothing for the compiler to reorder.)
//
// The whole step is one function template per lane count, so the lane
// width is dispatched once per step and the inner loops see it as a
// compile-time constant. The step keeps no scratch between calls: it
// scatters, then finds the new support by scanning the values of the
// touched row range without a data-dependent branch.
#ifndef S3_SOCIAL_PROPAGATE_KERNELS_H_
#define S3_SOCIAL_PROPAGATE_KERNELS_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace s3::social::pk {

// True when some lane of one row's value block is nonzero: L lanes, or
// `lanes` on the generic path (L == 0).
template <int L>
inline bool AnyNonzero(const double* p, size_t lanes) {
  const size_t n = L > 0 ? static_cast<size_t>(L) : lanes;
  for (size_t l = 0; l < n; ++l) {
    if (p[l] != 0.0) return true;
  }
  return false;
}

// One push step out = in · T over the rows listed in `in_rows`
// (ascending). For every listed row with some nonzero lane, each CSR
// entry (cols[i], vals[i]) adds mass[l] * vals[i] into
// out[cols[i]*L + l], and the step tracks the touched row range
// [lo, hi]. It then emits `out_rows` by one branchless pass over that
// range: every row's id is written to the next slot, and the slot
// advances only when some lane of the row is nonzero; each nonzero lane
// sets its `lane_mass` flag. A row in the range that was not scattered
// into is all-zero (`out` holds zeros outside the rows the caller
// cleared), so `out_rows` comes back ascending and holds exactly the
// rows with some nonzero lane. A support bitmap would cost a
// read-modify-write per CSR entry, and a compare-and-push per row a
// branch miss per row on sparse frontiers.
//
// Each output row accumulates its terms in ascending source-row order
// — the order `in_rows` lists them — which is what makes the step
// bit-for-bit equal to a scalar row-by-row reference.
//
// L is the lane count (1, 2, 4 or 8); L == 0 is the generic path for
// any multiple of 4 (`lanes`, at most 64, the size of the emission's
// per-lane accumulator), run as 4-wide chunks.
template <int L>
void PushStep(const uint64_t* row_ptr, const uint32_t* cols,
              const double* vals, const std::vector<uint32_t>& in_rows,
              size_t lanes, const double* __restrict in,
              double* __restrict out, std::vector<uint32_t>& out_rows,
              uint8_t* lane_mass) {
  const size_t W = L > 0 ? static_cast<size_t>(L) : lanes;
  // Touched row range: each CSR row's columns are strictly ascending,
  // so its first and last entries bound it.
  size_t lo = SIZE_MAX, hi = 0;
  for (uint32_t row : in_rows) {
    const double* __restrict mass = in + static_cast<size_t>(row) * W;
    if (!AnyNonzero<L>(mass, W)) continue;  // every lane of it dropped out
    const uint64_t begin = row_ptr[row], end = row_ptr[row + 1];
    if (begin == end) continue;
    lo = std::min<size_t>(lo, cols[begin]);
    hi = std::max<size_t>(hi, cols[end - 1]);
    for (uint64_t i = begin; i < end; ++i) {
      double* __restrict o = out + static_cast<size_t>(cols[i]) * W;
      const double v = vals[i];
      if constexpr (L > 0) {
        for (int l = 0; l < L; ++l) o[l] += mass[l] * v;
      } else {
        for (size_t c = 0; c + 4 <= W; c += 4) {
          for (int l = 0; l < 4; ++l) o[c + l] += mass[c + l] * v;
        }
      }
    }
  }
  if (lo > hi) return;  // nothing scattered
  // Emission, without a data-dependent branch: a double is nonzero
  // exactly when its bits, sign bit dropped, are. Row ids are staged in
  // a stack chunk and appended to `out_rows` a chunk at a time.
  uint64_t seen[L > 0 ? L : 64] = {};  // lane l's bits OR-ed over rows
  constexpr size_t kChunk = 256;
  uint32_t slot[kChunk];
  for (size_t first = lo; first <= hi; first += kChunk) {
    const size_t last = std::min(hi + 1, first + kChunk);
    size_t n = 0;
    for (size_t row = first; row < last; ++row) {
      const double* __restrict p = out + row * W;
      uint64_t any = 0;
      for (size_t l = 0; l < W; ++l) {
        const uint64_t bits = std::bit_cast<uint64_t>(p[l]) << 1;
        any |= bits;
        seen[l] |= bits;
      }
      slot[n] = static_cast<uint32_t>(row);
      n += any != 0;
    }
    out_rows.insert(out_rows.end(), slot, slot + n);
  }
  for (size_t l = 0; l < W; ++l) lane_mass[l] |= seen[l] != 0;
}

// Lane-count dispatch, once per step. Lane counts are padded to 1, 2,
// 4, 8 or a multiple of 4 (social::PadLanes).
inline void PushStepAnyWidth(const uint64_t* row_ptr, const uint32_t* cols,
                             const double* vals,
                             const std::vector<uint32_t>& in_rows,
                             size_t lanes, const double* in, double* out,
                             std::vector<uint32_t>& out_rows,
                             uint8_t* lane_mass) {
  switch (lanes) {
    case 1:
      return PushStep<1>(row_ptr, cols, vals, in_rows, lanes, in, out,
                         out_rows, lane_mass);
    case 2:
      return PushStep<2>(row_ptr, cols, vals, in_rows, lanes, in, out,
                         out_rows, lane_mass);
    case 4:
      return PushStep<4>(row_ptr, cols, vals, in_rows, lanes, in, out,
                         out_rows, lane_mass);
    case 8:
      return PushStep<8>(row_ptr, cols, vals, in_rows, lanes, in, out,
                         out_rows, lane_mass);
    default:
      return PushStep<0>(row_ptr, cols, vals, in_rows, lanes, in, out,
                         out_rows, lane_mass);
  }
}

}  // namespace s3::social::pk

#endif  // S3_SOCIAL_PROPAGATE_KERNELS_H_
