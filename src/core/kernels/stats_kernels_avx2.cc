// AVX2 sufficient-statistics kernels: stats_kernels_simd.inc at 4
// doubles per register. Compiled with per-file flags -mavx2
// -ffp-contract=off (see src/CMakeLists.txt). -mavx2 does not itself
// enable FMA, but the contract flag is kept anyway so the kernels'
// multiply-add pairs can never be fused — fusion rounds once instead
// of twice and would diverge from the scalar reference.
#ifndef __AVX2__
#error "stats_kernels_avx2.cc requires -mavx2 (per-file flag in src/CMakeLists.txt)"
#endif

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/kernels/stats_kernels.h"
#include "core/suff_stats.h"
#include "linalg/packed_matrix.h"

namespace dash {
namespace kernels {
namespace {
#include "core/kernels/stats_kernels_simd.inc"
}  // namespace

void DensePanelAvx2(const double* x, int64_t x_stride, int64_t rows,
                    const double* y, const double* q, int64_t k, int64_t w,
                    double* xy, double* xx, double* tile) {
  DensePanelSimd<4>(x, x_stride, rows, y, q, k, w, xy, xx, tile);
}

void PackedColumnsAvx2(const PackedGenotypeMatrix& x, const double* y,
                       const Matrix& q, int64_t col_begin, int64_t col_end,
                       const StatsBlockView& out) {
  // KP <= 16: the pair kernel's 2 x 4 accumulator registers plus the
  // broadcast stay within the 16-ymm budget. K > 15 runs portable.
  if (!PackedColumnsSimd<4, 16>(x, y, q, col_begin, col_end, out)) {
    PackedColumnsPortable(x, y, q, col_begin, col_end, out);
  }
}

}  // namespace kernels
}  // namespace dash
