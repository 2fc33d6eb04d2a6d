// The horizontal partition of a study across parties.
//
// PartyData is the library's central input type: one party's private
// block (X_p, y_p, C_p) of the row-partitioned (X, y, C). SplitRows
// slices a pooled study into parties; PoolParties undoes it (for
// validation against the pooled "primary analysis" only — the secure
// protocols never pool raw data).

#ifndef DASH_DATA_PARTY_SPLIT_H_
#define DASH_DATA_PARTY_SPLIT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector_ops.h"
#include "util/status.h"

namespace dash {

struct PartyData {
  Matrix x;  // N_p x M transient covariates
  Vector y;  // N_p responses
  Matrix c;  // N_p x K permanent covariates

  int64_t num_samples() const { return static_cast<int64_t>(y.size()); }
};

// Validates a party set: consistent M and K, matching row counts, and
// each party tall enough for a local QR (N_p >= K >= 1).
Status ValidateParties(std::span<const PartyData> parties);

// Slices rows of a pooled study into |counts| parties; counts must sum
// to the row count.
Result<std::vector<PartyData>> SplitRows(const Matrix& x, const Vector& y,
                                         const Matrix& c,
                                         const std::vector<int64_t>& counts);

struct PooledData {
  Matrix x;
  Vector y;
  Matrix c;
};

// Stacks parties back into one study (test/validation use only).
Result<PooledData> PoolParties(const std::vector<PartyData>& parties);

// Centers y and the columns of c and x within each party, in place.
// By Frisch-Waugh this is exactly equivalent to adding one indicator
// covariate per party (batch effects); see the paper's §3 closing note.
void CenterPerParty(std::vector<PartyData>* parties);

}  // namespace dash

#endif  // DASH_DATA_PARTY_SPLIT_H_
