// Secure multi-party vector summation.
//
// This is the protocol the paper's §3 invokes to combine the parties'
// sufficient-statistic summands "by computing their internal summands and
// either sharing them to sum or by applying an SMC sum protocol which
// only reveals the overall sum". Four interchangeable modes:
//
//  * kPublicShare — every party broadcasts its plaintext contribution;
//    not secure, exact in doubles; the baseline the secure modes are
//    measured against ("sharing them to sum").
//  * kAdditive — each party additively secret-shares its fixed-point
//    contribution among all parties; parties broadcast their share sums;
//    only the total is revealed. Two vector rounds.
//  * kMasked — pairwise ChaCha20 masks that cancel in the total
//    (Bonawitz-style); one vector round after a one-time key agreement.
//  * kShamir — Shamir sharing over F_(2^61-1) with threshold
//    floor((P-1)/2); survives parties that drop out after distributing
//    their shares (>= t+1 must remain); two vector rounds.
//
// All modes reveal exactly the element-wise sum to every party and cost
// O(length) bytes per link, independent of the per-party sample counts —
// the communication property experiment E3 verifies.
//
// PartySecureVectorSum is the one implementation: it runs ONE party's
// side over a party-bound Transport (a TcpTransport endpoint, a
// SessionChannel, or an InProcessMesh endpoint). SecureVectorSum is the
// simulator's convenience: one PartySecureVectorSum per mesh endpoint,
// each run on its own thread (transport/inprocess_mesh.h).

#ifndef DASH_MPC_SECURE_SUM_H_
#define DASH_MPC_SECURE_SUM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/vector_ops.h"
#include "mpc/fixed_point.h"
#include "mpc/secrecy.h"
#include "transport/inprocess_mesh.h"
#include "transport/transport.h"
#include "util/chacha20.h"
#include "util/random.h"
#include "util/status.h"

namespace dash {

enum class AggregationMode {
  kPublicShare = 0,
  kAdditive = 1,
  kMasked = 2,
  kShamir = 3,
};

// Stable name, e.g. "masked".
const char* AggregationModeName(AggregationMode mode);

struct SecureSumOptions {
  AggregationMode mode = AggregationMode::kMasked;

  // Fixed-point fractional bits for the ring/field encodings. Note the
  // Shamir field is 61 bits wide, so its headroom is 2^(60 - frac_bits)
  // rather than 2^(63 - frac_bits).
  int frac_bits = FixedPointCodec::kDefaultFracBits;

  // Shamir reconstruction threshold; -1 selects floor((P-1)/2).
  int shamir_threshold = -1;

  // Seed for the per-party randomness (shares, masks, DH exponents).
  uint64_t seed = 0xda5b;

  // Domain separator mixed into the seed chain (0 = none, the exact
  // historical chain). Concurrent logical sessions over one mesh set
  // this to their session id so no two sessions ever derive the same DH
  // exponents — and therefore never share pairwise mask keys — even
  // when every job runs with the same protocol seed. The revealed total
  // is independent of the randomness (ring/field sums are exact), so
  // results stay bit-identical across domains.
  uint64_t mask_domain = 0;
};

// Wraps each party's plaintext contribution for SecureVectorSum::Run.
// Wrapping is always safe — it is reading BACK that the secrecy types
// gate — so this is the standard bridge for simulations and tests whose
// per-party inputs are generated locally.
[[nodiscard]] std::vector<Secret<Vector>> ToSecretInputs(
    std::vector<Vector> inputs);

// One party's end of the secure sum. Performs the sends party
// `transport->local_party()` makes and consumes the messages addressed
// to it. The object keeps the party's state (RNG, pairwise keys) so
// repeated Run() calls reuse the one-time setup, as a long-lived
// deployment would.
//
// Randomness: party i draws from the i-th output of the SplitMix64
// chain over options.seed, so deployments with equal seeds exchange
// identical ciphertexts. A nonzero mask_domain perturbs the chain's
// starting point (see SecureSumOptions).
//
// Bit identity across parties and backends: public mode sums in
// ascending party order; the ring and field modes are exact, so
// arrival order cannot change the total.
//
// Secrecy discipline (mpc/secrecy.h, DESIGN.md §11): the contribution
// arrives as Secret<Vector> and is never read directly — every buffer
// handed to the transport comes from a blessed reveal point
// (SerializeShareForHolder, MaskAndSerialize,
// DiffieHellman::PublicValue) except the public-share baseline, whose
// plaintext broadcast is an explicit DASH_DECLASSIFY.
class PartySecureVectorSum {
 public:
  // `transport` must be party-bound (local_party() >= 0) and outlive
  // this object.
  PartySecureVectorSum(Transport* transport, const SecureSumOptions& options);

  // `input` is this party's private contribution; every party must pass
  // the same length. Returns the element-wise total — the one value the
  // protocol declares public. The first call runs the one-time setup
  // (the masked mode's Diffie-Hellman key agreement).
  Result<Vector> Run(const Secret<Vector>& input);

  // The one-time setup on its own (Run calls it). Idempotent.
  Status Setup();

 private:
  Result<Vector> RunPublic(const Secret<Vector>& input);
  Result<Vector> RunAdditive(const Secret<Vector>& input);
  Result<Vector> RunMasked(const Secret<Vector>& input);
  Result<Vector> RunShamir(const Secret<Vector>& input);

  Transport* net_;
  int local_;
  SecureSumOptions options_;
  FixedPointCodec codec_;
  Rng rng_;
  // [q] = mask key shared with party q; secret material (mpc/secrecy.h).
  std::vector<Secret<ChaCha20Rng::Key>> pairwise_keys_;
  uint64_t round_nonce_ = 0;
  bool setup_done_ = false;
};

// The simulator: one PartySecureVectorSum per endpoint of `mesh`, each
// run on its own thread per Run() call.
class SecureVectorSum {
 public:
  // `mesh` must outlive this object.
  SecureVectorSum(InProcessMesh* mesh, const SecureSumOptions& options);

  // Every party's one-time setup (the masked mode's key agreement).
  Status Setup();

  // inputs[p] is party p's PRIVATE contribution. Returns the total as
  // revealed to every party (party 0's view), or the first failing
  // party's status.
  Result<Vector> Run(const std::vector<Secret<Vector>>& inputs);

  // Scalar convenience (tests and small drivers).
  Result<double> RunScalar(const std::vector<double>& inputs);

 private:
  InProcessMesh* mesh_;
  std::vector<std::unique_ptr<PartySecureVectorSum>> parties_;
};

}  // namespace dash

#endif  // DASH_MPC_SECURE_SUM_H_
