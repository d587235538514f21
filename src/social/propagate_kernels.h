// The CSR push step behind TransitionMatrix::Propagate.
//
// A frontier stores one value per entity row (a dense vector) and the
// ascending list of its nonzero rows. One step out = in · T walks the
// CSR rows of the listed input rows and scatters into `out`. The TU
// compiles without -mfma / fast-math, so each output row accumulates
// its terms as written, in ascending source-row order: no FMA
// contraction and no reassociation. The step keeps no scratch between
// calls: it scatters, then finds the new support by scanning the values
// of the touched row range without a data-dependent branch.
#ifndef S3_SOCIAL_PROPAGATE_KERNELS_H_
#define S3_SOCIAL_PROPAGATE_KERNELS_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace s3::social::pk {

// One push step out = in · T over the rows listed in `in_rows`
// (ascending). Each CSR entry (cols[i], vals[i]) of a listed row adds
// in[row] * vals[i] into out[cols[i]], and the step tracks the touched
// row range [lo, hi]. It then emits `out_rows` by one branchless pass
// over that range: every row's id is written to the next slot, and the
// slot advances only when the row's value is nonzero. A row in the
// range that was not scattered into is zero (`out` holds zeros outside
// the rows the caller cleared), so `out_rows` comes back ascending and
// holds exactly the nonzero rows. A support bitmap would cost a
// read-modify-write per CSR entry, and a compare-and-push per row a
// branch miss per row on sparse frontiers.
//
// Each output row accumulates its terms in ascending source-row order
// — the order `in_rows` lists them — which is what makes the step
// bit-for-bit equal to a scalar row-by-row reference. A listed row
// whose value is zero adds zeros, which is bitwise inert.
inline void PushStep(const uint64_t* row_ptr, const uint32_t* cols,
                     const double* vals, const std::vector<uint32_t>& in_rows,
                     const double* __restrict in, double* __restrict out,
                     std::vector<uint32_t>& out_rows) {
  // Touched row range: each CSR row's columns are strictly ascending,
  // so its first and last entries bound it.
  size_t lo = SIZE_MAX, hi = 0;
  for (uint32_t row : in_rows) {
    const uint64_t begin = row_ptr[row], end = row_ptr[row + 1];
    if (begin == end) continue;
    lo = std::min<size_t>(lo, cols[begin]);
    hi = std::max<size_t>(hi, cols[end - 1]);
    const double mass = in[row];
    for (uint64_t i = begin; i < end; ++i) out[cols[i]] += mass * vals[i];
  }
  if (lo > hi) return;  // nothing scattered
  // Emission, without a data-dependent branch: a double is nonzero
  // exactly when its bits, sign bit dropped, are. Row ids are staged in
  // a stack chunk and appended to `out_rows` a chunk at a time.
  constexpr size_t kChunk = 256;
  uint32_t slot[kChunk];
  for (size_t first = lo; first <= hi; first += kChunk) {
    const size_t last = std::min(hi + 1, first + kChunk);
    size_t n = 0;
    for (size_t row = first; row < last; ++row) {
      slot[n] = static_cast<uint32_t>(row);
      n += (std::bit_cast<uint64_t>(out[row]) << 1) != 0;
    }
    out_rows.insert(out_rows.end(), slot, slot + n);
  }
}

}  // namespace s3::social::pk

#endif  // S3_SOCIAL_PROPAGATE_KERNELS_H_
