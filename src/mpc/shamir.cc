#include "mpc/shamir.h"

#include <cmath>
#include <string>
#include <utility>

#include "mpc/prime_field.h"

namespace dash {
namespace {

Status ValidateParams(int n, int t) {
  if (n < 1) return InvalidArgumentError("need at least one share");
  if (t < 0 || t >= n) {
    return InvalidArgumentError("threshold t=" + std::to_string(t) +
                                " must satisfy 0 <= t < n=" +
                                std::to_string(n));
  }
  return Status::Ok();
}

// Evaluates sum_k coeffs[k] * x^k by Horner's rule.
uint64_t PolyEval(const std::vector<uint64_t>& coeffs, uint64_t x) {
  uint64_t acc = 0;
  for (size_t k = coeffs.size(); k-- > 0;) {
    acc = FieldAdd(FieldMul(acc, x), coeffs[k]);
  }
  return acc;
}

}  // namespace

Result<std::vector<ShamirShare>> ShamirSplit(uint64_t secret, int n, int t,
                                             Rng* rng) {
  DASH_RETURN_IF_ERROR(ValidateParams(n, t));
  if (secret >= kFieldPrime) {
    return InvalidArgumentError("secret is not a field element");
  }
  std::vector<uint64_t> coeffs(static_cast<size_t>(t) + 1);
  coeffs[0] = secret;
  for (int k = 1; k <= t; ++k) coeffs[static_cast<size_t>(k)] = FieldUniform(rng);
  std::vector<ShamirShare> shares(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const uint64_t x = static_cast<uint64_t>(i) + 1;
    shares[static_cast<size_t>(i)] = ShamirShare{x, PolyEval(coeffs, x)};
  }
  return shares;
}

Result<uint64_t> ShamirReconstruct(const std::vector<ShamirShare>& shares) {
  if (shares.empty()) return InvalidArgumentError("no shares given");
  for (size_t i = 0; i < shares.size(); ++i) {
    for (size_t j = i + 1; j < shares.size(); ++j) {
      if (shares[i].x == shares[j].x) {
        return InvalidArgumentError("duplicate share evaluation point");
      }
    }
  }
  // Lagrange basis at 0: l_i = prod_{j != i} x_j / (x_j - x_i).
  uint64_t secret = 0;
  for (size_t i = 0; i < shares.size(); ++i) {
    uint64_t num = 1;
    uint64_t den = 1;
    for (size_t j = 0; j < shares.size(); ++j) {
      if (j == i) continue;
      num = FieldMul(num, shares[j].x);
      den = FieldMul(den, FieldSub(shares[j].x, shares[i].x));
    }
    const uint64_t li = FieldMul(num, FieldInv(den));
    secret = FieldAdd(secret, FieldMul(shares[i].y, li));
  }
  return secret;
}

Result<std::vector<std::vector<ShamirShare>>> ShamirSplitVector(
    const std::vector<uint64_t>& secrets, int n, int t, Rng* rng) {
  DASH_RETURN_IF_ERROR(ValidateParams(n, t));
  std::vector<std::vector<ShamirShare>> out(
      static_cast<size_t>(n), std::vector<ShamirShare>(secrets.size()));
  for (size_t e = 0; e < secrets.size(); ++e) {
    DASH_ASSIGN_OR_RETURN(std::vector<ShamirShare> shares,
                          ShamirSplit(secrets[e], n, t, rng));
    for (int j = 0; j < n; ++j) out[static_cast<size_t>(j)][e] = shares[static_cast<size_t>(j)];
  }
  return out;
}

Result<std::vector<uint64_t>> LagrangeWeightsAtZero(
    const std::vector<uint64_t>& xs) {
  if (xs.empty()) return InvalidArgumentError("no evaluation points");
  for (size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] == 0 || xs[i] >= kFieldPrime) {
      return InvalidArgumentError("evaluation points must be nonzero field elements");
    }
    for (size_t j = i + 1; j < xs.size(); ++j) {
      if (xs[i] == xs[j]) {
        return InvalidArgumentError("duplicate evaluation point");
      }
    }
  }
  std::vector<uint64_t> weights(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    uint64_t num = 1;
    uint64_t den = 1;
    for (size_t j = 0; j < xs.size(); ++j) {
      if (j == i) continue;
      num = FieldMul(num, xs[j]);
      den = FieldMul(den, FieldSub(xs[j], xs[i]));
    }
    weights[i] = FieldMul(num, FieldInv(den));
  }
  return weights;
}

Result<Secret<RingVector>> ShamirFieldEncode(const FixedPointCodec& codec,
                                             const Secret<Vector>& input,
                                             int num_parties) {
  if (num_parties < 1) return InvalidArgumentError("need at least one party");
  // The 61-bit field offers less headroom than the 64-bit ring.
  const double field_max = std::ldexp(1.0, 60 - codec.frac_bits()) /
                           static_cast<double>(num_parties);
  const Vector& raw = input.Reveal(MpcPass::Get());
  for (const double x : raw) {
    if (!(x > -field_max && x < field_max)) {
      return OutOfRangeError(
          "input exceeds Shamir field headroom; lower frac_bits");
    }
  }
  RingVector encoded(raw.size());
  for (size_t e = 0; e < raw.size(); ++e) {
    DASH_ASSIGN_OR_RETURN(uint64_t ring, codec.TryEncode(raw[e]));
    encoded[e] = FieldEncodeSigned(static_cast<int64_t>(ring));
  }
  return Secret<RingVector>(std::move(encoded));
}

Result<std::vector<Secret<RingVector>>> ShamirShareVectorForParties(
    const Secret<RingVector>& field_secrets, int n, int t, Rng* rng) {
  DASH_ASSIGN_OR_RETURN(
      auto shares,
      ShamirSplitVector(field_secrets.Reveal(MpcPass::Get()), n, t, rng));
  std::vector<Secret<RingVector>> out;
  out.reserve(shares.size());
  for (const auto& party_shares : shares) {
    RingVector ys(party_shares.size());
    for (size_t e = 0; e < party_shares.size(); ++e) ys[e] = party_shares[e].y;
    out.emplace_back(std::move(ys));
  }
  return out;
}

Result<Masked<RingVector>> AccumulateShamirShares(
    const Secret<RingVector>& own_share,
    const std::vector<RingVector>& received_shares) {
  RingVector held = own_share.Reveal(MpcPass::Get());
  for (const RingVector& ys : received_shares) {
    if (ys.size() != held.size()) {
      return InternalError("Shamir share length mismatch");
    }
    for (size_t e = 0; e < held.size(); ++e) held[e] = FieldAdd(held[e], ys[e]);
  }
  return Masked<RingVector>::Seal(std::move(held), MpcPass::Get());
}

Result<Vector> OpenShamirTotal(const Masked<RingVector>& own_partial,
                               int own_index,
                               const std::vector<RingVector>& partials_by_party,
                               const FixedPointCodec& codec) {
  const int num_parties = static_cast<int>(partials_by_party.size());
  if (own_index < 0 || own_index >= num_parties) {
    return InvalidArgumentError("own_index outside the party set");
  }
  const RingVector& own = own_partial.wire();
  const size_t len = own.size();
  // The present evaluation points: our own, plus every non-empty slot.
  std::vector<const RingVector*> ys;
  std::vector<uint64_t> xs;
  for (int j = 0; j < num_parties; ++j) {
    const RingVector& y = (j == own_index)
                              ? own
                              : partials_by_party[static_cast<size_t>(j)];
    if (j != own_index && y.empty()) continue;
    if (y.size() != len) {
      return InternalError("Shamir sum share length mismatch");
    }
    xs.push_back(static_cast<uint64_t>(j) + 1);
    ys.push_back(&y);
  }
  DASH_ASSIGN_OR_RETURN(std::vector<uint64_t> weights,
                        LagrangeWeightsAtZero(xs));
  Vector result(len);
  for (size_t e = 0; e < len; ++e) {
    uint64_t acc = 0;
    for (size_t j = 0; j < ys.size(); ++j) {
      acc = FieldAdd(acc, FieldMul(weights[j], (*ys[j])[e]));
    }
    const int64_t signed_ring = FieldDecodeSigned(acc);
    result[e] = codec.Decode(static_cast<uint64_t>(signed_ring));
  }
  return result;
}

Result<std::vector<uint64_t>> ShamirReconstructVector(
    const std::vector<std::vector<ShamirShare>>& share_vectors) {
  if (share_vectors.empty()) {
    return InvalidArgumentError("no share vectors given");
  }
  const size_t len = share_vectors[0].size();
  for (const auto& sv : share_vectors) {
    if (sv.size() != len) {
      return InvalidArgumentError("share vectors disagree in length");
    }
  }
  std::vector<uint64_t> out(len);
  std::vector<ShamirShare> column(share_vectors.size());
  for (size_t e = 0; e < len; ++e) {
    for (size_t j = 0; j < share_vectors.size(); ++j) column[j] = share_vectors[j][e];
    DASH_ASSIGN_OR_RETURN(out[e], ShamirReconstruct(column));
  }
  return out;
}

}  // namespace dash
