// Shamir secret sharing over F_p, p = 2^61 - 1.
//
// A secret s becomes the constant term of a uniformly random degree-t
// polynomial f; party i (1-indexed evaluation point) receives f(i). Any
// t+1 shares reconstruct s by Lagrange interpolation at 0; any t shares
// reveal nothing. Compared with additive sharing this tolerates up to
// n - (t+1) dropouts, at the cost of field arithmetic — experiment E8
// measures the difference.

#ifndef DASH_MPC_SHAMIR_H_
#define DASH_MPC_SHAMIR_H_

#include <cstdint>
#include <vector>

#include "mpc/fixed_point.h"
#include "mpc/secrecy.h"
#include "util/random.h"
#include "util/status.h"

namespace dash {

struct ShamirShare {
  uint64_t x = 0;  // evaluation point (party index + 1), in F_p
  uint64_t y = 0;  // polynomial value, in F_p
};

// Splits `secret` (an F_p element) into n shares with threshold t:
// any t+1 shares reconstruct. Requires 0 <= t < n and secret < p.
// Scalar legacy primitive kept for the unit tests; the returned shares
// are secret material despite their plain type.
DASH_SECRET_SOURCE
Result<std::vector<ShamirShare>> ShamirSplit(uint64_t secret, int n, int t,
                                             Rng* rng);

// Lagrange interpolation at 0 over the given shares (all x distinct,
// at least one share). The caller must supply >= t+1 honest shares for a
// correct result; the math itself only needs the points given.
Result<uint64_t> ShamirReconstruct(const std::vector<ShamirShare>& shares);

// Vector forms: result[j] holds party j's share of every element.
// Scalar-struct legacy form for the unit tests (see ShamirSplit).
DASH_SECRET_SOURCE
Result<std::vector<std::vector<ShamirShare>>> ShamirSplitVector(
    const std::vector<uint64_t>& secrets, int n, int t, Rng* rng);

Result<std::vector<uint64_t>> ShamirReconstructVector(
    const std::vector<std::vector<ShamirShare>>& share_vectors);

// Lagrange basis weights at 0 for fixed evaluation points (all distinct,
// nonzero): reconstruct(y) = sum_i weights[i] * y[i]. Precomputing these
// turns per-element reconstruction into one multiply-add per share.
Result<std::vector<uint64_t>> LagrangeWeightsAtZero(
    const std::vector<uint64_t>& xs);

// --- Typed protocol API (mpc/secrecy.h) ------------------------------
//
// The per-party secure-sum flow: field-encode the private contribution,
// split it (party j's share is the evaluation at x = j+1, carried as a
// bare y-vector), accumulate the shares a party holds into its partial
// (individually uniform, hence Masked), and open the total from every
// survivor's partial.

// Fixed-point + field encoding of a private contribution, with the
// headroom check for the 61-bit field shared among `num_parties`.
Result<Secret<RingVector>> ShamirFieldEncode(const FixedPointCodec& codec,
                                             const Secret<Vector>& input,
                                             int num_parties);

// Splits every element of `field_secrets` for n parties at threshold t.
// result[j] holds the y-values destined for party j (x = j+1 implied).
Result<std::vector<Secret<RingVector>>> ShamirShareVectorForParties(
    const Secret<RingVector>& field_secrets, int n, int t, Rng* rng);

// Field-adds the y-vectors received from peers into the party's own
// kept share; by linearity the result is the party's share of the
// total — individually uniform, sealed Masked for broadcast.
Result<Masked<RingVector>> AccumulateShamirShares(
    const Secret<RingVector>& own_share,
    const std::vector<RingVector>& received_shares);

// Lagrange-reconstructs the total at x = 0 and decodes it.
// partials_by_party has one slot per party (evaluation point j+1); the
// slot at `own_index` is taken from own_partial and may be left empty,
// and any other empty slot is a party that dropped out. Reveal point
// (round-key phase2-shamir): >= t+1 sum shares interpolate to exactly
// the aggregate total the protocol reveals; the caller checks the
// count.
Result<Vector> OpenShamirTotal(const Masked<RingVector>& own_partial,
                               int own_index,
                               const std::vector<RingVector>& partials_by_party,
                               const FixedPointCodec& codec);

}  // namespace dash

#endif  // DASH_MPC_SHAMIR_H_
