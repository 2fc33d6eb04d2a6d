#include "mpc/secure_projection.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "net/round_annotations.h"
#include "net/serialization.h"
#include "util/check.h"

namespace dash {
namespace {

// Encodes a double with `frac_bits` fractional bits into the ring.
inline uint64_t RingEncode(double v, double scale) {
  return static_cast<uint64_t>(static_cast<int64_t>(std::llround(v * scale)));
}

// Decodes a ring value carrying 2*frac_bits fractional bits.
inline double RingDecodeProduct(uint64_t v, double inv_scale2) {
  return static_cast<double>(static_cast<int64_t>(v)) * inv_scale2;
}

}  // namespace

int64_t ProjectionTripleCount(int64_t k, int64_t m) { return k + 2 * k * m; }

Result<ProjectedStats> PartySecureProjection(
    Transport* transport, const Secret<Vector>& qty_secret,
    const Secret<Matrix>& qtx_secret,
    const std::vector<Secret<BeaverTripleShare>>& triples, int frac_bits) {
  DASH_CHECK(frac_bits >= 1 && frac_bits <= 30) << "frac_bits=" << frac_bits;
  const int p = transport->num_parties();
  const int local = transport->local_party();
  constexpr MpcPass pass = MpcPass::Get();
  const Vector& qty = qty_secret.Reveal(pass);
  const Matrix& qtx = qtx_secret.Reveal(pass);
  const int64_t k = static_cast<int64_t>(qty.size());
  const int64_t m = qtx.cols();
  if (qtx.rows() != k) {
    return InvalidArgumentError("Qᵀy and QᵀX summands disagree on K");
  }
  if (k == 0) {
    ProjectedStats empty;
    empty.qtx_qty.assign(static_cast<size_t>(m), 0.0);
    empty.qtx_qtx.assign(static_cast<size_t>(m), 0.0);
    return empty;
  }
  const int64_t total_mults = ProjectionTripleCount(k, m);
  if (static_cast<int64_t>(triples.size()) != total_mults) {
    return InvalidArgumentError(
        "expected " + std::to_string(total_mults) + " Beaver triples, got " +
        std::to_string(triples.size()));
  }

  // Headroom: the opened products sum K terms of (P * bound)^2 * 2^(2f);
  // require the worst case to stay inside the signed 63-bit range.
  const double scale = std::ldexp(1.0, frac_bits);
  const double inv_scale2 = std::ldexp(1.0, -2 * frac_bits);
  const double bound =
      std::sqrt(std::ldexp(1.0, 62 - 2 * frac_bits) / static_cast<double>(k)) /
      static_cast<double>(p);
  double worst = MaxAbs(qty);
  for (int64_t e = 0; e < qtx.size(); ++e) {
    worst = std::max(worst, std::fabs(qtx.data()[e]));
  }
  if (!(worst <= bound)) {
    // The offending magnitude is secret-derived and deliberately kept out
    // of the (loggable) error message; only the public bound is reported.
    return OutOfRangeError(
        "projected summand magnitude exceeds Beaver fixed-point headroom " +
        std::to_string(bound) + "; lower frac_bits");
  }

  // Multiplication layout (all element-wise, summed locally afterwards):
  //   [0, K)                   : qty_k   * qty_k
  //   [K + m*2K, K + m*2K + K) : qtx_km  * qty_k
  //   [... + K, ... + 2K)      : qtx_km  * qtx_km
  // Round 1: broadcast our shares of d = x - a, e = y - b. Each is offset
  // by a uniform triple component, so it is individually uniform —
  // sealed Masked for the wire.
  transport->BeginRound();
  RingVector de(static_cast<size_t>(2 * total_mults));
  for (int64_t t = 0; t < total_mults; ++t) {
    uint64_t x = 0;
    uint64_t y = 0;
    if (t < k) {
      x = y = RingEncode(qty[static_cast<size_t>(t)], scale);
    } else {
      const int64_t rem = t - k;
      const int64_t col = rem / (2 * k);
      const int64_t within = rem % (2 * k);
      if (within < k) {
        x = RingEncode(qtx(within, col), scale);
        y = RingEncode(qty[static_cast<size_t>(within)], scale);
      } else {
        x = y = RingEncode(qtx(within - k, col), scale);
      }
    }
    const BeaverTripleShare& share = triples[static_cast<size_t>(t)].Reveal(pass);
    de[static_cast<size_t>(2 * t)] = x - share.a;
    de[static_cast<size_t>(2 * t + 1)] = y - share.b;
  }
  const Masked<RingVector> de_share =
      Masked<RingVector>::Seal(std::move(de), pass);
  DASH_ROUND(beaver_open_operands, kMaskedValue);
  DASH_RETURN_IF_ERROR(transport->Broadcast(local, MessageTag::kMaskedValue,
                                            MaskAndSerialize(de_share)));
  // Open d, e: the ring sum of every party's share.
  RingVector opened = de_share.wire();
  for (int q = 0; q < p; ++q) {
    if (q == local) continue;
    DASH_ROUND(beaver_open_operands, kMaskedValue);
    DASH_ASSIGN_OR_RETURN(
        Message msg, transport->Receive(local, q, MessageTag::kMaskedValue));
    ByteReader r(msg.payload);
    DASH_ASSIGN_OR_RETURN(RingVector peer, r.GetU64Vector());
    if (peer.size() != opened.size()) {
      return InvalidArgumentError("Beaver operand openings disagree in length");
    }
    for (size_t e = 0; e < opened.size(); ++e) opened[e] += peer[e];
  }

  // Local: product shares, folded into our share of the three result
  // families.
  const size_t result_len = static_cast<size_t>(2 * m + 1);
  RingVector mine(result_len, 0);
  for (int64_t t = 0; t < total_mults; ++t) {
    const uint64_t prod = BeaverProductShare(
        opened[static_cast<size_t>(2 * t)],
        opened[static_cast<size_t>(2 * t + 1)],
        triples[static_cast<size_t>(t)], /*include_de=*/local == 0);
    size_t slot = 0;  // qty.qty
    if (t >= k) {
      const int64_t rem = t - k;
      const int64_t col = rem / (2 * k);
      slot = (rem % (2 * k) < k) ? static_cast<size_t>(1 + col)
                                 : static_cast<size_t>(1 + m + col);
    }
    mine[slot] += prod;
  }
  const Masked<RingVector> result_share =
      Masked<RingVector>::Seal(std::move(mine), pass);

  // Round 2: open the results. A result share is one additive share of
  // the revealed scalars — individually uniform, hence Masked.
  transport->BeginRound();
  DASH_ROUND(beaver_open_result, kPartialSum);
  DASH_RETURN_IF_ERROR(transport->Broadcast(local, MessageTag::kPartialSum,
                                            MaskAndSerialize(result_share)));
  RingVector totals = result_share.wire();
  for (int q = 0; q < p; ++q) {
    if (q == local) continue;
    DASH_ROUND(beaver_open_result, kPartialSum);
    DASH_ASSIGN_OR_RETURN(
        Message msg, transport->Receive(local, q, MessageTag::kPartialSum));
    ByteReader r(msg.payload);
    DASH_ASSIGN_OR_RETURN(RingVector peer, r.GetU64Vector());
    if (peer.size() != totals.size()) {
      return InvalidArgumentError("Beaver result openings disagree in length");
    }
    for (size_t e = 0; e < totals.size(); ++e) totals[e] += peer[e];
  }

  ProjectedStats out;
  out.qty_qty = RingDecodeProduct(totals[0], inv_scale2);
  out.qtx_qty.resize(static_cast<size_t>(m));
  out.qtx_qtx.resize(static_cast<size_t>(m));
  for (int64_t j = 0; j < m; ++j) {
    out.qtx_qty[static_cast<size_t>(j)] =
        RingDecodeProduct(totals[static_cast<size_t>(1 + j)], inv_scale2);
    out.qtx_qtx[static_cast<size_t>(j)] =
        RingDecodeProduct(totals[static_cast<size_t>(1 + m + j)], inv_scale2);
  }
  return out;
}

SecureProjectedAggregation::SecureProjectedAggregation(
    InProcessMesh* mesh, const SecureProjectionOptions& options)
    : mesh_(mesh), options_(options),
      dealer_(mesh->num_parties(), options.seed) {
  DASH_CHECK(options.frac_bits >= 1 && options.frac_bits <= 30)
      << "frac_bits=" << options.frac_bits;
}

Result<ProjectedStats> SecureProjectedAggregation::Run(
    const std::vector<Secret<Vector>>& qty_summands,
    const std::vector<Secret<Matrix>>& qtx_summands) {
  const int p = mesh_->num_parties();
  if (static_cast<int>(qty_summands.size()) != p ||
      static_cast<int>(qtx_summands.size()) != p) {
    return InvalidArgumentError("expected one summand per party");
  }
  // Shapes are public metadata.
  constexpr MpcPass pass = MpcPass::Get();
  const int64_t k = static_cast<int64_t>(qty_summands[0].Reveal(pass).size());
  const int64_t m = qtx_summands[0].Reveal(pass).cols();
  for (int i = 0; i < p; ++i) {
    if (static_cast<int64_t>(
            qty_summands[static_cast<size_t>(i)].Reveal(pass).size()) != k ||
        qtx_summands[static_cast<size_t>(i)].Reveal(pass).rows() != k ||
        qtx_summands[static_cast<size_t>(i)].Reveal(pass).cols() != m) {
      return InvalidArgumentError("summand shapes disagree across parties");
    }
  }
  auto triples = dealer_.Deal(k > 0 ? ProjectionTripleCount(k, m) : 0);
  return SimulateParties(mesh_, [&](int i, Transport* t) {
    return PartySecureProjection(t, qty_summands[static_cast<size_t>(i)],
                                 qtx_summands[static_cast<size_t>(i)],
                                 triples[static_cast<size_t>(i)],
                                 options_.frac_bits);
  });
}

}  // namespace dash
