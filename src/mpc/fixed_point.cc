#include "mpc/fixed_point.h"

#include <cmath>
#include <utility>

#include "util/check.h"
#include "util/strings.h"

namespace dash {

FixedPointCodec::FixedPointCodec(int frac_bits) : frac_bits_(frac_bits) {
  DASH_CHECK(1 <= frac_bits && frac_bits <= 62) << "frac_bits=" << frac_bits;
  scale_ = std::ldexp(1.0, frac_bits);
  max_magnitude_ = std::ldexp(1.0, 63 - frac_bits);
  resolution_ = 1.0 / scale_;
}

uint64_t FixedPointCodec::Encode(double value) const {
  Result<uint64_t> r = TryEncode(value);
  DASH_CHECK(r.ok()) << r.status().ToString();
  return r.value();
}

Result<uint64_t> FixedPointCodec::TryEncode(double value) const {
  if (!std::isfinite(value)) {
    return InvalidArgumentError("cannot fixed-point encode non-finite value");
  }
  const double scaled = value * scale_;
  // Strict bound: int64 range is [-2^63, 2^63).
  if (!(scaled >= -9.223372036854775808e18 && scaled < 9.223372036854775808e18)) {
    return OutOfRangeError("value " + DoubleToString(value) +
                           " exceeds fixed-point range (frac_bits=" +
                           std::to_string(frac_bits_) + ")");
  }
  const int64_t q = static_cast<int64_t>(std::llround(scaled));
  return static_cast<uint64_t>(q);
}

double FixedPointCodec::Decode(uint64_t ring_value) const {
  return static_cast<double>(static_cast<int64_t>(ring_value)) * resolution_;
}

Result<std::vector<uint64_t>> FixedPointCodec::EncodeVector(
    const Vector& values) const {
  std::vector<uint64_t> out(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    const double scaled = values[i] * scale_;
    // TryEncode's range test, which NaN and ±inf fail too; the first
    // failing element gets TryEncode's own error.
    if (!(scaled >= -9.223372036854775808e18 &&
          scaled < 9.223372036854775808e18)) {
      return TryEncode(values[i]).status();
    }
    out[i] = static_cast<uint64_t>(static_cast<int64_t>(std::llround(scaled)));
  }
  return out;
}

Result<Secret<RingVector>> FixedPointCodec::EncodeSecretVector(
    const Secret<Vector>& values) const {
  DASH_ASSIGN_OR_RETURN(RingVector encoded,
                        EncodeVector(values.Reveal(MpcPass::Get())));
  return Secret<RingVector>(std::move(encoded));
}

Vector FixedPointCodec::DecodeVector(
    const std::vector<uint64_t>& ring_values) const {
  Vector out(ring_values.size());
  for (size_t i = 0; i < ring_values.size(); ++i) out[i] = Decode(ring_values[i]);
  return out;
}

}  // namespace dash
