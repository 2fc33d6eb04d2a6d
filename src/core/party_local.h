// Party-local computations of the secure scan — everything a party does
// on its own data without communicating.
//
// Exposed separately from the protocol driver so that a real deployment
// (where each party is its own process) can reuse the exact kernels, and
// so tests can verify each stage in isolation.

#ifndef DASH_CORE_PARTY_LOCAL_H_
#define DASH_CORE_PARTY_LOCAL_H_

#include "core/suff_stats.h"
#include "data/party_split.h"
#include "linalg/matrix.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace dash {

// Stage 1: the K x K local R factor of the party's covariate block.
// Discloses only covariate angles, never rows (see paper §3).
Result<Matrix> PartyLocalRFactor(const PartyData& party);

// Stage 2: the party's rows of the global Q, via Q_p = C_p R⁻¹.
Matrix PartyLocalQ(const PartyData& party, const Matrix& r_inverse);

// Stage 3: the party's sufficient-statistic summand, computed directly
// into a wire-order arena (StatsWireLayout over the party's M, K) ready
// for the secure sum.
Vector PartyLocalStatsFlat(const PartyData& party, const Matrix& q_p,
                           ThreadPool* pool = nullptr);

}  // namespace dash

#endif  // DASH_CORE_PARTY_LOCAL_H_
