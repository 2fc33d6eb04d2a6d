#include "mpc/secure_sum.h"

#include <gtest/gtest.h>

#include <cmath>

#include "transport/inprocess_mesh.h"
#include "util/random.h"

namespace dash {
namespace {

std::vector<Vector> RandomInputs(int parties, size_t len, uint64_t seed,
                                 double scale = 100.0) {
  Rng rng(seed);
  std::vector<Vector> inputs(static_cast<size_t>(parties), Vector(len));
  for (auto& v : inputs) {
    for (auto& x : v) x = rng.Uniform(-scale, scale);
  }
  return inputs;
}

Vector PlainSum(const std::vector<Vector>& inputs) {
  Vector total(inputs[0].size(), 0.0);
  for (const auto& v : inputs) {
    for (size_t i = 0; i < v.size(); ++i) total[i] += v[i];
  }
  return total;
}

// Sweep: every aggregation mode, several party counts.
class SecureSumModeTest
    : public testing::TestWithParam<std::tuple<AggregationMode, int>> {};

TEST_P(SecureSumModeTest, SumsMatchPlainComputation) {
  const auto [mode, parties] = GetParam();
  InProcessMesh net(parties);
  SecureSumOptions opts;
  opts.mode = mode;
  opts.frac_bits = 32;
  SecureVectorSum sum(&net, opts);

  const auto inputs = RandomInputs(parties, 37, 1000 + parties);
  const Vector expected = PlainSum(inputs);
  const Vector got = sum.Run(ToSecretInputs(inputs)).value();
  ASSERT_EQ(got.size(), expected.size());
  const double tol = (mode == AggregationMode::kPublicShare)
                         ? 1e-12
                         : parties * std::ldexp(1.0, -32) * 2;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], expected[i], tol) << "element " << i;
  }
}

TEST_P(SecureSumModeTest, RepeatedRunsStayCorrect) {
  const auto [mode, parties] = GetParam();
  InProcessMesh net(parties);
  SecureSumOptions opts;
  opts.mode = mode;
  opts.frac_bits = 32;
  SecureVectorSum sum(&net, opts);
  for (int round = 0; round < 3; ++round) {
    const auto inputs =
        RandomInputs(parties, 5, 2000 + round * 10 + parties);
    const Vector expected = PlainSum(inputs);
    const Vector got = sum.Run(ToSecretInputs(inputs)).value();
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], expected[i], 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndParties, SecureSumModeTest,
    testing::Combine(testing::Values(AggregationMode::kPublicShare,
                                     AggregationMode::kAdditive,
                                     AggregationMode::kMasked,
                                     AggregationMode::kShamir),
                     testing::Values(2, 3, 5, 8)));

TEST(SecureSumTest, SinglePartyShortCircuits) {
  InProcessMesh net(1);
  SecureSumOptions opts;
  opts.mode = AggregationMode::kMasked;
  SecureVectorSum sum(&net, opts);
  const Vector got = sum.Run(ToSecretInputs({{1.0, 2.0}})).value();
  EXPECT_EQ(got, (Vector{1.0, 2.0}));
  EXPECT_EQ(net.metrics().total_bytes(), 0);
}

TEST(SecureSumTest, ScalarConvenience) {
  InProcessMesh net(3);
  SecureSumOptions opts;
  opts.mode = AggregationMode::kAdditive;
  SecureVectorSum sum(&net, opts);
  EXPECT_NEAR(sum.RunScalar({1.5, 2.5, -1.0}).value(), 3.0, 1e-9);
}

TEST(SecureSumTest, InputValidation) {
  InProcessMesh net(3);
  SecureVectorSum sum(&net, {});
  EXPECT_FALSE(sum.Run(ToSecretInputs({{1.0}, {2.0}})).ok());                  // wrong count
  EXPECT_FALSE(sum.Run(ToSecretInputs({{1.0}, {2.0}, {3.0, 4.0}})).ok());      // ragged
}

TEST(SecureSumTest, FixedPointOverflowIsReported) {
  InProcessMesh net(2);
  SecureSumOptions opts;
  opts.mode = AggregationMode::kAdditive;
  opts.frac_bits = 50;  // headroom only 2^13
  SecureVectorSum sum(&net, opts);
  const auto r = sum.Run(ToSecretInputs({{1e6}, {1e6}}));
  EXPECT_FALSE(r.ok());
}

TEST(SecureSumTest, ShamirHeadroomIsNarrowerThanRing) {
  InProcessMesh net(3);
  SecureSumOptions opts;
  opts.mode = AggregationMode::kShamir;
  opts.frac_bits = 40;  // field headroom 2^20 / P
  SecureVectorSum sum(&net, opts);
  EXPECT_FALSE(sum.Run(ToSecretInputs({{5e5}, {5e5}, {5e5}})).ok());
  // Lower precision restores headroom.
  opts.frac_bits = 20;
  SecureVectorSum relaxed(&net, opts);
  EXPECT_NEAR(relaxed.Run(ToSecretInputs({{5e5}, {5e5}, {5e5}})).value()[0],
              1.5e6, 1e-2);
}

TEST(SecureSumTest, MaskedSetupIsIdempotentAndCostsOnce) {
  InProcessMesh net(4);
  SecureSumOptions opts;
  opts.mode = AggregationMode::kMasked;
  SecureVectorSum sum(&net, opts);
  ASSERT_TRUE(sum.Setup().ok());
  const int64_t setup_bytes = net.metrics().total_bytes();
  EXPECT_GT(setup_bytes, 0);
  ASSERT_TRUE(sum.Setup().ok());
  EXPECT_EQ(net.metrics().total_bytes(), setup_bytes);

  const auto inputs = RandomInputs(4, 10, 5);
  (void)sum.Run(ToSecretInputs(inputs)).value();
  const int64_t after_first = net.metrics().total_bytes();
  (void)sum.Run(ToSecretInputs(inputs)).value();
  const int64_t after_second = net.metrics().total_bytes();
  // Steady-state cost per run excludes key agreement.
  EXPECT_EQ(after_second - after_first, after_first - setup_bytes);
}

TEST(SecureSumTest, BytesScaleLinearlyInLength) {
  for (const AggregationMode mode :
       {AggregationMode::kAdditive, AggregationMode::kMasked,
        AggregationMode::kShamir}) {
    SecureSumOptions opts;
    opts.mode = mode;
    opts.frac_bits = 24;

    InProcessMesh net_small(3);
    SecureVectorSum small(&net_small, opts);
    ASSERT_TRUE(small.Setup().ok());
    const int64_t setup_small = net_small.metrics().total_bytes();
    (void)small.Run(ToSecretInputs(RandomInputs(3, 100, 6))).value();
    const int64_t bytes_small = net_small.metrics().total_bytes() - setup_small;

    InProcessMesh net_large(3);
    SecureVectorSum large(&net_large, opts);
    ASSERT_TRUE(large.Setup().ok());
    const int64_t setup_large = net_large.metrics().total_bytes();
    (void)large.Run(ToSecretInputs(RandomInputs(3, 1000, 7))).value();
    const int64_t bytes_large = net_large.metrics().total_bytes() - setup_large;

    // Fixed per-message overhead keeps the ratio just under 10x.
    EXPECT_GT(bytes_large, 9 * bytes_small)
        << AggregationModeName(mode);
    EXPECT_LT(bytes_large, 11 * bytes_small)
        << AggregationModeName(mode);
  }
}

TEST(SecureSumTest, MaskedIsCheapestSecureMode) {
  const auto bytes_for = [](AggregationMode mode) {
    InProcessMesh net(4);
    SecureSumOptions opts;
    opts.mode = mode;
    opts.frac_bits = 24;
    SecureVectorSum sum(&net, opts);
    auto r = sum.Setup();
    EXPECT_TRUE(r.ok());
    const int64_t setup_bytes = net.metrics().total_bytes();
    (void)sum.Run(ToSecretInputs(RandomInputs(4, 500, 8))).value();
    return net.metrics().total_bytes() - setup_bytes;
  };
  const int64_t masked = bytes_for(AggregationMode::kMasked);
  const int64_t additive = bytes_for(AggregationMode::kAdditive);
  const int64_t shamir = bytes_for(AggregationMode::kShamir);
  EXPECT_LT(masked, additive);
  EXPECT_LE(masked, shamir);
}

TEST(SecureSumTest, NegativeAndTinyValuesSurviveQuantization) {
  InProcessMesh net(3);
  SecureSumOptions opts;
  opts.mode = AggregationMode::kMasked;
  opts.frac_bits = 48;
  SecureVectorSum sum(&net, opts);
  const std::vector<Vector> inputs = {{-1e-10}, {2e-10}, {-0.5e-10}};
  EXPECT_NEAR(sum.Run(ToSecretInputs(inputs)).value()[0], 0.5e-10,
              std::ldexp(3.0, -48));
}

}  // namespace
}  // namespace dash
