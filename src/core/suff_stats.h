// The six sufficient statistics of the association scan (paper §3).
//
// Everything the scan needs beyond public shape information is:
//
//   y.y (scalar)     Qᵀy (K)          — response statistics
//   X.y (M)          X.X (M)          — per-column transient statistics
//   QᵀX (K x M)                        — projected transient covariates
//
// Each party computes its local summand from its own rows; the summands
// add across parties (exactly for the first four by orthogonality of the
// row partition, and by plain linearity for Qᵀy and QᵀX). The total is
// all that FinalizeScan (scan_result.h) consumes — raw data never moves.
//
// A summand has one form: a contiguous wire-order arena of length
// 1 + K + 2M + K*M (StatsWireLayout fixes the offsets), which a single
// secure-sum round aggregates. Every summand entry point
// (ComputeLocalStatsFlat and its scalar-reference siblings) writes
// straight into it, so nothing is copied between the kernel and the
// transport. The aggregated total keeps that form to the
// end: ScanSufficientStats is a non-owning view into it, which
// UnflattenStats points at the blocks without copying, and FinalizeScan
// reads the statistics through the view.
//
// Kernels. ComputeLocalStatsFlat(Matrix) runs the cache-blocked kernel
// of ComputeStatsColumns: columns are tiled into blocks of
// kStatsColBlock, each block's accumulators (X.y, X.X and a
// covariate-major K×w QᵀX tile, so each row's update is K contiguous
// length-w axpys) live in L1 for the whole N-row sweep, strip-mined
// into panels of kStatsRowPanel rows that dispatch to a branchless
// dense micro-kernel or a zero-skipping sparse one by measured
// density. Callers that hold hard-call genotypes 2-bit packed
// (PackedGenotypeMatrix) run the popcount kernel instead, whose flop
// count is proportional to the nonzeros (claim C6); the sparse form
// repacks dosage-valued data into it once per call.
//
// The inner kernels are runtime ISA-dispatched (portable / AVX2 /
// AVX-512; src/core/kernels/stats_kernels.h, DESIGN.md §13).
// The scalar reference kernels (the original implementation) are kept
// as ComputeLocalStatsScalar / ComputeLocalStatsSparseScalar; every
// dispatchable kernel is BIT-IDENTICAL to them for finite inputs:
// every output element is accumulated over rows in the same order,
// SIMD lanes map to distinct output columns, skipped zeros / added
// ±0.0 contributions cannot change an IEEE-754 accumulator that starts
// at +0.0, and no reduction is ever reassociated
// (tests/core_kernel_identity_test.cc pins this, against the reference
// at run time and against recorded checksums).

#ifndef DASH_CORE_SUFF_STATS_H_
#define DASH_CORE_SUFF_STATS_H_

#include <cstdint>
#include <span>

#include "linalg/matrix.h"
#include "linalg/packed_matrix.h"
#include "linalg/sparse_matrix.h"
#include "linalg/vector_ops.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace dash {

// Aggregated statistics as the finalizer reads them: a non-owning view
// into a wire-order arena (normally a secure-sum total), pointed there
// by UnflattenStats. Only num_samples and the scalar yy are held by
// value. The arena must outlive the view, and must not be resized while
// the view is in use.
struct ScanSufficientStats {
  int64_t num_samples = 0;       // public: rows behind these totals
  double yy = 0.0;               // y.y
  std::span<const double> qty;   // length K
  std::span<const double> xy;    // length M
  std::span<const double> xx;    // length M
  std::span<const double> qtx;   // K x M, row-major: qtx[kk * M + j]

  int64_t num_variants() const { return static_cast<int64_t>(xy.size()); }
  int64_t num_covariates() const { return static_cast<int64_t>(qty.size()); }
};

// --- Wire layout ------------------------------------------------------
// Offsets of the statistic blocks inside the arena:
//   [0]                    yy
//   [1, 1+K)               qty
//   [1+K, 1+K+M)           xy
//   [1+K+M, 1+K+2M)        xx
//   [1+K+2M, 1+K+2M+K*M)   qtx, row-major K x M
struct StatsWireLayout {
  int64_t m = 0;  // variants
  int64_t k = 0;  // covariates

  int64_t yy_offset() const { return 0; }
  int64_t qty_offset() const { return 1; }
  int64_t xy_offset() const { return 1 + k; }
  int64_t xx_offset() const { return 1 + k + m; }
  int64_t qtx_offset() const { return 1 + k + 2 * m; }
  int64_t total_len() const { return 1 + k + 2 * m + k * m; }
};

// Destination slices for the column-range kernels, in wire order.
// Column j of the range writes xy[j - col_begin], xx[j - col_begin] and
// qtx[kk * qtx_stride + (j - col_begin)] for each covariate kk.
struct StatsBlockView {
  double* xy = nullptr;
  double* xx = nullptr;
  double* qtx = nullptr;
  int64_t qtx_stride = 0;
};

// Cache-block geometry of the dense kernel. One column block's working
// set is kStatsColBlock * (K + 2) doubles of accumulators — ~10 KiB for
// K = 8 — which stays L1-resident across the whole row sweep; row
// panels of kStatsRowPanel rows are the granularity of the
// dense/sparse micro-kernel dispatch.
inline constexpr int64_t kStatsColBlock = 128;
inline constexpr int64_t kStatsRowPanel = 256;

// ACCUMULATES xy/xx/qtx for columns [col_begin, col_end) of x into
// `out` with the blocked kernel; the caller zeroes the destination
// before the first call. The accumulate contract (shared by every
// column-range kernel) is what lets the out-of-core path stream X in
// row panels: repeated calls over a row partition continue each output
// element's left-folded add chain exactly where the previous call left
// it, so the streamed result is bit-identical to one full in-memory
// sweep (core/streaming_stats.h). Requires finite
// inputs for the bit-identity guarantee (no NaN/Inf in x, y, q).
// `pool` may be null; otherwise column blocks are cost-chunked across
// its threads.
void ComputeStatsColumns(const Matrix& x, const Vector& y, const Matrix& q,
                         int64_t col_begin, int64_t col_end,
                         const StatsBlockView& out, ThreadPool* pool = nullptr);

// Packed-genotype variant: consumes an already 2-bit-packed X with the
// popcount kernel — O(nnz) flops plus one popcount per 32 genotypes.
// Bit-identical to the dense paths on the expanded matrix (missing
// calls expand to 0.0). Same accumulate-into-out contract.
void ComputeStatsColumnsPacked(const PackedGenotypeMatrix& x, const Vector& y,
                               const Matrix& q, int64_t col_begin,
                               int64_t col_end, const StatsBlockView& out,
                               ThreadPool* pool = nullptr);

// Computes one party's summand given its rows of Q, directly into a
// zeroed wire-order arena (StatsWireLayout over x's M and q's K) ready
// for the secure sum: the arena is the only form a summand takes. The
// public num_samples travels outside the secure sum. `pool` may be null
// (serial); otherwise column blocks are sharded across its threads.
Vector ComputeLocalStatsFlat(const Matrix& x, const Vector& y, const Matrix& q,
                             ThreadPool* pool = nullptr);

// Sparse-X form. Dosage-valued sparse data (every stored value in
// {0, 1, 2} — the common genotype case) is repacked once into the
// 2-bit popcount kernel; anything else runs the per-column sparse
// path. Both are bit-identical to ComputeLocalStatsSparseScalar.
Vector ComputeLocalStatsFlat(const SparseColumnMatrix& x, const Vector& y,
                             const Matrix& q, ThreadPool* pool = nullptr);

// Packed-X form for callers that keep genotypes 2-bit packed (the
// steady state of a resident scan service: pack once, scan many).
Vector ComputeLocalStatsFlat(const PackedGenotypeMatrix& x, const Vector& y,
                             const Matrix& q, ThreadPool* pool = nullptr);

// The original scalar kernels, kept as the bit-identity reference for
// tests and as the bench baseline; they write the same arena.
Vector ComputeLocalStatsScalar(const Matrix& x, const Vector& y,
                               const Matrix& q, ThreadPool* pool = nullptr);
Vector ComputeLocalStatsSparseScalar(const SparseColumnMatrix& x,
                                     const Vector& y, const Matrix& q,
                                     ThreadPool* pool = nullptr);

// Points a view at the blocks of an arena (a summand or a secure-sum
// total) for FinalizeScan, given the public shape (M, K); nothing is
// copied but yy. num_samples is left 0 for the caller to set. The arena
// must outlive the view, so a temporary arena is rejected at compile
// time.
Result<ScanSufficientStats> UnflattenStats(std::span<const double> flat,
                                           int64_t num_variants,
                                           int64_t num_covariates);
Result<ScanSufficientStats> UnflattenStats(Vector&& flat, int64_t num_variants,
                                           int64_t num_covariates) = delete;

// FNV-1a over the IEEE-754 bytes of an arena. Equal checksums <=>
// bit-identical statistics; benches and the kernel-identity tests
// report these.
uint64_t WireChecksum(const Vector& flat);

}  // namespace dash

#endif  // DASH_CORE_SUFF_STATS_H_
