// Secure computation of the scan's projected statistics (paper §3,
// "for even greater security, they can use a more sophisticated SMC
// algorithm to only share the three right-hand quantities (two dot
// products of K-vectors for each m)").
//
// The parties hold additive summands of the global Qᵀy (K-vector) and
// QᵀX (K x M). The baseline protocol reveals those sums; this protocol
// reveals ONLY the scalars Lemma 2.1 actually consumes:
//
//   Qᵀy.Qᵀy          (one scalar)
//   QᵀX_m.Qᵀy        (one scalar per m)
//   QᵀX_m.QᵀX_m      (one scalar per m)
//
// using Beaver-triple multiplication on the summands themselves (a
// party's summand IS its additive share of the global vector). Two
// online rounds: one opening of the 2(K + 2KM) masked values, one
// opening of the 2M + 1 results. Communication is O(KM) — larger than
// the reveal-the-sums baseline's O(M) by the factor K the paper accepts
// for the stronger privacy — still independent of N and parallel in m.
//
// PartySecureProjection is the one implementation: one party's side over
// a party-bound transport, consuming triple shares it was dealt. The
// triples come from a trusted dealer, which only the simulator has
// (SecureProjectedAggregation deals them and runs every party on an
// in-process mesh); a deployment without a dealer cannot run this
// variant, so the TCP runner rejects it (transport/party_runner.h).
//
// Fixed-point note: products carry 2*frac_bits fractional bits and are
// only rescaled after the final opening (no intermediate truncation, so
// the integer arithmetic is exact). Headroom therefore shrinks twice as
// fast in frac_bits; Validate() enforces the bound and the default of
// 20 bits covers |summand| up to ~480 per entry at K=8, P=4.

#ifndef DASH_MPC_SECURE_PROJECTION_H_
#define DASH_MPC_SECURE_PROJECTION_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "mpc/beaver.h"
#include "mpc/secrecy.h"
#include "transport/inprocess_mesh.h"
#include "transport/transport.h"
#include "util/status.h"

namespace dash {

struct SecureProjectionOptions {
  // Fractional bits of the ring encoding; results carry 2x this.
  int frac_bits = 20;
  // Seed for the dealer's triple randomness.
  uint64_t seed = 0xbea7e5;
};

// The quantities revealed to every party.
struct ProjectedStats {
  double qty_qty = 0.0;
  Vector qtx_qty;  // length M
  Vector qtx_qtx;  // length M
};

// Beaver triples one projection of K x M summands consumes (one per
// multiplication: K for Qᵀy.Qᵀy, 2KM for the per-variant products).
int64_t ProjectionTripleCount(int64_t k, int64_t m);

// Runs party transport->local_party()'s side: `qty` (K-vector) and `qtx`
// (K x M) are its summands of Qᵀy and QᵀX, `triples` its shares of
// ProjectionTripleCount(K, M) dealt triples. Summands are private
// (mpc/secrecy.h); only the masked d/e openings and the opened result
// scalars cross the wire. Values beyond the fixed-point headroom fail
// with OutOfRange before any traffic.
Result<ProjectedStats> PartySecureProjection(
    Transport* transport, const Secret<Vector>& qty, const Secret<Matrix>& qtx,
    const std::vector<Secret<BeaverTripleShare>>& triples, int frac_bits);

// The simulator: deals the triples and runs PartySecureProjection at
// every endpoint of `mesh`, one thread each.
class SecureProjectedAggregation {
 public:
  // `mesh` must outlive this object.
  SecureProjectedAggregation(InProcessMesh* mesh,
                             const SecureProjectionOptions& options);

  // qty_summands[p] / qtx_summands[p] are party p's summands; shapes
  // must agree across parties.
  Result<ProjectedStats> Run(
      const std::vector<Secret<Vector>>& qty_summands,
      const std::vector<Secret<Matrix>>& qtx_summands);

 private:
  InProcessMesh* mesh_;
  SecureProjectionOptions options_;
  DealerTripleProvider dealer_;
};

}  // namespace dash

#endif  // DASH_MPC_SECURE_PROJECTION_H_
