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
// The whole row loop is one function template per lane count, so the
// lane width is dispatched once per step and the inner loops see it as
// a compile-time constant.
#ifndef S3_SOCIAL_PROPAGATE_KERNELS_H_
#define S3_SOCIAL_PROPAGATE_KERNELS_H_

#include <algorithm>
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
// out[cols[i]*L + l] and sets bit cols[i] of `support`. The rows are
// then emitted in ascending order by scanning the touched bitmap words
// (clearing them, so `support` is all-zero again on return): a row
// joins `out_rows` when some lane is nonzero, and each nonzero lane
// sets its `lane_mass` flag.
//
// Each output row accumulates its terms in ascending source-row order
// — the order `in_rows` lists them — which is what makes the step
// bit-for-bit equal to a scalar row-by-row reference.
//
// L is the lane count (1, 2, 4 or 8); L == 0 is the generic path for
// any multiple of 4 (`lanes`), run as 4-wide chunks.
template <int L>
void PushStep(const uint64_t* row_ptr, const uint32_t* cols,
              const double* vals, const std::vector<uint32_t>& in_rows,
              size_t lanes, const double* __restrict in,
              double* __restrict out, uint64_t* __restrict support,
              std::vector<uint32_t>& out_rows, uint8_t* lane_mass) {
  const size_t W = L > 0 ? static_cast<size_t>(L) : lanes;
  // Touched word range: each CSR row's columns are strictly ascending,
  // so its first and last entries bound it.
  size_t lo = SIZE_MAX, hi = 0;
  for (uint32_t row : in_rows) {
    const double* __restrict mass = in + static_cast<size_t>(row) * W;
    if (!AnyNonzero<L>(mass, W)) continue;  // every lane of it dropped out
    const uint64_t begin = row_ptr[row], end = row_ptr[row + 1];
    if (begin == end) continue;
    lo = std::min<size_t>(lo, cols[begin] >> 6);
    hi = std::max<size_t>(hi, cols[end - 1] >> 6);
    for (uint64_t i = begin; i < end; ++i) {
      const uint32_t col = cols[i];
      support[col >> 6] |= uint64_t{1} << (col & 63);
      double* __restrict o = out + static_cast<size_t>(col) * W;
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
  for (size_t w = lo; w <= hi; ++w) {
    uint64_t bits = support[w];
    if (bits == 0) continue;
    support[w] = 0;
    for (; bits != 0; bits &= bits - 1) {
      const uint32_t col =
          static_cast<uint32_t>(w * 64 + __builtin_ctzll(bits));
      const double* p = out + static_cast<size_t>(col) * W;
      bool any = false;
      for (size_t l = 0; l < W; ++l) {
        if (p[l] != 0.0) {
          any = true;
          lane_mass[l] = 1;
        }
      }
      if (any) out_rows.push_back(col);
    }
  }
}

// Lane-count dispatch, once per step. Lane counts are padded to 1, 2,
// 4, 8 or a multiple of 4 (social::PadLanes).
inline void PushStepAnyWidth(const uint64_t* row_ptr, const uint32_t* cols,
                             const double* vals,
                             const std::vector<uint32_t>& in_rows,
                             size_t lanes, const double* in, double* out,
                             uint64_t* support,
                             std::vector<uint32_t>& out_rows,
                             uint8_t* lane_mass) {
  switch (lanes) {
    case 1:
      return PushStep<1>(row_ptr, cols, vals, in_rows, lanes, in, out,
                         support, out_rows, lane_mass);
    case 2:
      return PushStep<2>(row_ptr, cols, vals, in_rows, lanes, in, out,
                         support, out_rows, lane_mass);
    case 4:
      return PushStep<4>(row_ptr, cols, vals, in_rows, lanes, in, out,
                         support, out_rows, lane_mass);
    case 8:
      return PushStep<8>(row_ptr, cols, vals, in_rows, lanes, in, out,
                         support, out_rows, lane_mass);
    default:
      return PushStep<0>(row_ptr, cols, vals, in_rows, lanes, in, out,
                         support, out_rows, lane_mass);
  }
}

}  // namespace s3::social::pk

#endif  // S3_SOCIAL_PROPAGATE_KERNELS_H_
