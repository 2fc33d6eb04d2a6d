// Leakage smoke tests: what actually crosses the wire in the secure
// modes must look like noise, carry no bitwise structure from the
// inputs, and never repeat across protocol rounds — while the public
// baseline visibly transmits the raw statistics. True security rests on
// the constructions' proofs; these tests catch the classic
// implementation bugs (forgotten masking, reused mask streams,
// plaintext fallback paths).

#include <gtest/gtest.h>

#include <cmath>

#include "mpc/additive_sharing.h"
#include "mpc/fixed_point.h"
#include "mpc/masked_aggregation.h"
#include "mpc/secure_sum.h"
#include "transport/inprocess_mesh.h"
#include "net/serialization.h"
#include "util/chacha20.h"
#include "util/random.h"

namespace dash {
namespace {

// Fraction of one-bits across a byte buffer; ~0.5 for noise.
double OneBitFraction(const std::vector<uint8_t>& bytes) {
  int64_t ones = 0;
  for (const uint8_t b : bytes) ones += __builtin_popcount(b);
  return static_cast<double>(ones) /
         (8.0 * static_cast<double>(bytes.size()));
}

TEST(LeakageTest, PublicModeVisiblyTransmitsInputs) {
  // The insecure baseline puts the raw doubles on the wire: the first
  // message party 0 broadcasts is exactly its serialized input.
  InProcessMesh net(2);
  SecureSumOptions opts;
  opts.mode = AggregationMode::kPublicShare;
  SecureVectorSum sum(&net, opts);
  // Queue party 0's broadcast by hand-running the protocol's encoder.
  const Vector input = {1.5, -2.25, 1e6};
  (void)sum.Run(ToSecretInputs({input, {0.0, 0.0, 0.0}})).value();
  // The wire format is deterministic; re-encode and compare sizes (the
  // payload itself was consumed by the run, but the metrics confirm the
  // plaintext-width transfer: 8 bytes per double plus length prefix).
  ByteWriter w;
  w.PutDoubleVector(input);
  const int64_t per_message =
      static_cast<int64_t>(w.size()) + static_cast<int64_t>(Message::kHeaderBytes);
  EXPECT_EQ(net.metrics().LinkBytes(0, 1), per_message);
}

TEST(LeakageTest, AdditiveSharesLookUniformRegardlessOfSecret) {
  // The share sent to the other party is uniformly random: the bit
  // statistics must be identical whether the secret is 0 or huge.
  FixedPointCodec codec(32);
  std::vector<uint8_t> zero_secret_bytes;
  std::vector<uint8_t> big_secret_bytes;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng_a(seed);
    Rng rng_b(seed + 10000);
    const auto shares_zero = AdditiveShare(codec.Encode(0.0), 2, &rng_a);
    const auto shares_big =
        AdditiveShare(codec.Encode(123456.789), 2, &rng_b);
    ByteWriter wa;
    wa.PutU64(shares_zero[1]);
    const auto a = wa.Take();
    ByteWriter wb;
    wb.PutU64(shares_big[1]);
    const auto b = wb.Take();
    zero_secret_bytes.insert(zero_secret_bytes.end(), a.begin(), a.end());
    big_secret_bytes.insert(big_secret_bytes.end(), b.begin(), b.end());
  }
  EXPECT_NEAR(OneBitFraction(zero_secret_bytes), 0.5, 0.02);
  EXPECT_NEAR(OneBitFraction(big_secret_bytes), 0.5, 0.02);
}

TEST(LeakageTest, MaskedBroadcastIsUniformDespiteConstantInputs) {
  // Every party contributes the SAME constant; the masked vectors must
  // still be indistinguishable from noise (the PRG masks dominate).
  std::vector<Secret<ChaCha20Rng::Key>> keys0(2);
  keys0[1] = Secret<ChaCha20Rng::Key>(ChaCha20Rng::KeyFromSeed(7));
  FixedPointCodec codec(32);
  std::vector<uint8_t> wire;
  for (uint64_t nonce = 1; nonce <= 400; ++nonce) {
    const std::vector<uint64_t> encoded(4, codec.Encode(1.0));
    const auto masked =
        ApplyPairwiseMasks(0, Secret<RingVector>(encoded), keys0, nonce);
    // MaskAndSerialize is the blessed wire path for sealed vectors.
    const auto bytes = MaskAndSerialize(masked);
    // Skip the 8-byte length prefix, which IS structured.
    wire.insert(wire.end(), bytes.begin() + 8, bytes.end());
  }
  EXPECT_NEAR(OneBitFraction(wire), 0.5, 0.01);
  // Mask-stream freshness: consecutive nonces never repeat.
  const auto a = ApplyPairwiseMasks(
      0, Secret<RingVector>(RingVector{codec.Encode(1.0)}), keys0, 1);
  const auto b = ApplyPairwiseMasks(
      0, Secret<RingVector>(RingVector{codec.Encode(1.0)}), keys0, 2);
  EXPECT_NE(a.wire()[0], b.wire()[0]);
}

TEST(LeakageTest, SecureModesRevealOnlyTheTotal) {
  // Two input configurations with the SAME total: every secure mode
  // returns the same revealed answer and moves the same number of bytes
  // — nothing about the wire depends on the individual contributions.
  const std::vector<Vector> config_a = {{5.0}, {1.0}, {-2.0}};
  const std::vector<Vector> config_b = {{-3.0}, {6.0}, {1.0}};
  for (const auto mode :
       {AggregationMode::kAdditive, AggregationMode::kMasked,
        AggregationMode::kShamir}) {
    InProcessMesh net_a(3);
    InProcessMesh net_b(3);
    SecureSumOptions opts;
    opts.mode = mode;
    opts.frac_bits = 32;
    SecureVectorSum sum_a(&net_a, opts);
    SecureVectorSum sum_b(&net_b, opts);
    const double total_a = sum_a.Run(ToSecretInputs(config_a)).value()[0];
    const double total_b = sum_b.Run(ToSecretInputs(config_b)).value()[0];
    EXPECT_NEAR(total_a, 4.0, 1e-6) << AggregationModeName(mode);
    EXPECT_NEAR(total_b, 4.0, 1e-6) << AggregationModeName(mode);
    EXPECT_EQ(net_a.metrics().total_bytes(), net_b.metrics().total_bytes())
        << AggregationModeName(mode);
  }
}

TEST(LeakageTest, TrafficVolumeIsValueIndependent) {
  // Byte counts depend only on shapes, never on magnitudes — a
  // compressible-payload side channel would violate this.
  for (const auto mode :
       {AggregationMode::kAdditive, AggregationMode::kMasked,
        AggregationMode::kShamir}) {
    int64_t bytes[2] = {0, 0};
    int variant = 0;
    for (const double scale : {1e-6, 1e5}) {
      InProcessMesh net(4);
      SecureSumOptions opts;
      opts.mode = mode;
      opts.frac_bits = 24;
      SecureVectorSum sum(&net, opts);
      Rng rng(9);
      std::vector<Vector> inputs(4, Vector(64));
      for (auto& v : inputs) {
        for (auto& x : v) x = scale * rng.UniformDouble();
      }
      (void)sum.Run(ToSecretInputs(inputs)).value();
      bytes[variant++] = net.metrics().total_bytes();
    }
    EXPECT_EQ(bytes[0], bytes[1]) << AggregationModeName(mode);
  }
}

}  // namespace
}  // namespace dash
