// Plaintext association scan (paper §2): M simple regressions with
// shared permanent covariates, in O(NK² + NKM / threads).
//
// This is both the single-site tool and the per-party compute kernel of
// the secure protocol: the secure scan's per-party work is exactly one
// call to the same ComputeLocalStatsFlat path, which is why DASH runs "at
// plaintext speed".

#ifndef DASH_CORE_ASSOCIATION_SCAN_H_
#define DASH_CORE_ASSOCIATION_SCAN_H_

#include "core/scan_result.h"
#include "linalg/matrix.h"
#include "linalg/sparse_matrix.h"
#include "util/status.h"

namespace dash {

struct ScanOptions {
  // Worker threads for the column-parallel statistics pass.
  int num_threads = 1;
};

// Scans dense X against y with permanent covariates c (include an
// intercept column in c if desired). Requires N > K + 1 and
// full-column-rank c.
Result<ScanResult> AssociationScan(const Matrix& x, const Vector& y,
                                   const Matrix& c,
                                   const ScanOptions& options = {});

// Sparse-X variant; identical statistics, O(nnz) column kernels.
Result<ScanResult> AssociationScanSparse(const SparseColumnMatrix& x,
                                         const Vector& y, const Matrix& c,
                                         const ScanOptions& options = {});

}  // namespace dash

#endif  // DASH_CORE_ASSOCIATION_SCAN_H_
