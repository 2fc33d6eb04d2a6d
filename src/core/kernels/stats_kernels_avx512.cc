// AVX-512 sufficient-statistics kernels: stats_kernels_simd.inc at 8
// doubles per register. Compiled with per-file flags -mavx512f
// -mavx512bw -mavx512dq -mavx512vl and -ffp-contract=off (see
// src/CMakeLists.txt); the contract flag matters for bit-identity —
// with FMA available the compiler would otherwise fuse the kernels'
// multiply-add pairs into FMAs, which round once instead of twice and
// diverge from the scalar reference.
#ifndef __AVX512F__
#error "stats_kernels_avx512.cc requires -mavx512f (per-file flag in src/CMakeLists.txt)"
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

void DensePanelAvx512(const double* x, int64_t x_stride, int64_t rows,
                      const double* y, const double* q, int64_t k, int64_t w,
                      double* xy, double* xx, double* tile) {
  DensePanelSimd<8>(x, x_stride, rows, y, q, k, w, xy, xx, tile);
}

void PackedColumnsAvx512(const PackedGenotypeMatrix& x, const double* y,
                         const Matrix& q, int64_t col_begin, int64_t col_end,
                         const StatsBlockView& out) {
  // KP <= 24: at most 3 zmm per column, so the pair kernel keeps 6 zmm
  // (or 4 zmm + 2 ymm) register-resident across a word panel. K > 23
  // runs portable.
  if (!PackedColumnsSimd<8, 24>(x, y, q, col_begin, col_end, out)) {
    PackedColumnsPortable(x, y, q, col_begin, col_end, out);
  }
}

}  // namespace kernels
}  // namespace dash
