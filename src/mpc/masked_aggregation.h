// Pairwise-masked aggregation (Bonawitz et al. style secure sum).
//
// Each ordered pair (i, j), i < j, shares a ChaCha20 key k_ij. Party i
// adds PRG(k_ij) to its ring-encoded contribution and party j subtracts
// the identical stream, so all masks cancel in the sum:
//
//   masked_p = v_p + sum_{q > p} PRG(k_pq) - sum_{q < p} PRG(k_qp)
//   sum_p masked_p = sum_p v_p  (mod 2^64)
//
// A single broadcast of masked_p per party then reveals only the total —
// one message per party per sum, the cheapest of the secure modes.
//
// `round_nonce` must change between protocol invocations that reuse the
// same pairwise keys; it selects a fresh ChaCha20 stream so masks are
// never reused.
//
// Types (mpc/secrecy.h): the input contribution and the pairwise keys
// are Secret; the output carries the masks and is sealed Masked — the
// one buffer of this mode that is safe to broadcast.

#ifndef DASH_MPC_MASKED_AGGREGATION_H_
#define DASH_MPC_MASKED_AGGREGATION_H_

#include <cstdint>
#include <vector>

#include "mpc/fixed_point.h"
#include "mpc/secrecy.h"
#include "util/chacha20.h"

namespace dash {

// Applies party `party_index`'s masks for one aggregation round.
// pairwise_keys[q] is the key shared with party q (entry `party_index`
// itself is ignored). Returns values + masks (wrapping), sealed for the
// wire.
Masked<RingVector> ApplyPairwiseMasks(
    int party_index, const Secret<RingVector>& values,
    const std::vector<Secret<ChaCha20Rng::Key>>& pairwise_keys,
    uint64_t round_nonce);

// Decodes the total of ALL masked vectors: the party's own, with every
// peer's broadcast one added into it as it arrived
// (ByteReader::AddU64VectorTo, which also checks each peer's length).
// Reveal point (round-key phase2-masked): the pairwise masks cancel in
// the sum of ALL vectors, so the output is exactly the aggregate the
// protocol reveals.
Result<Vector> OpenMaskedTotal(const RingVector& total,
                               const FixedPointCodec& codec);

// The same reveal over peer vectors already read into memory: sums the
// own masked vector and every peer's (InternalError when a peer's
// length differs), then decodes. dashbench times the open layer
// through this form.
Result<Vector> OpenMaskedTotal(const Masked<RingVector>& own_masked,
                               const std::vector<RingVector>& peer_masked,
                               const FixedPointCodec& codec);

}  // namespace dash

#endif  // DASH_MPC_MASKED_AGGREGATION_H_
