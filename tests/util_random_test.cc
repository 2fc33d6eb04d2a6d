#include "util/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/chacha20.h"

namespace dash {
namespace {

TEST(SplitMix64Test, KnownSequence) {
  // Reference values for seed 0 (standard SplitMix64).
  uint64_t state = 0;
  EXPECT_EQ(SplitMix64(&state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(SplitMix64(&state), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(SplitMix64(&state), 0x06c45d188009454fULL);
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformInt(7), 7u);
  }
  EXPECT_EQ(rng.UniformInt(1), 0u);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(11);
  bool seen[5] = {false, false, false, false, false};
  for (int i = 0; i < 1000; ++i) seen[rng.UniformInt(5)] = true;
  for (const bool s : seen) EXPECT_TRUE(s);
}

TEST(RngTest, GaussianMomentsAreSane) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, GaussianWithParamsScales) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, ForkedStreamsAreIndependentButDeterministic) {
  Rng a(21);
  Rng b(21);
  Rng fa = a.Fork();
  Rng fb = b.Fork();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(fa.NextU64(), fb.NextU64());
}

TEST(ChaCha20Test, DeterministicPerKeyAndStream) {
  const auto key = ChaCha20Rng::KeyFromSeed(42);
  ChaCha20Rng a(key, 5);
  ChaCha20Rng b(key, 5);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(ChaCha20Test, DifferentStreamsDiffer) {
  const auto key = ChaCha20Rng::KeyFromSeed(42);
  ChaCha20Rng a(key, 1);
  ChaCha20Rng b(key, 2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LE(same, 1);
}

TEST(ChaCha20Test, DifferentKeysDiffer) {
  ChaCha20Rng a(ChaCha20Rng::KeyFromSeed(1), 0);
  ChaCha20Rng b(ChaCha20Rng::KeyFromSeed(2), 0);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LE(same, 1);
}

// RFC 8439 appendix A.1 test vectors 1 and 2: the all-zero key and
// nonce at block counters 0 and 1, read as little-endian words, from
// both NextU64 and the four-block bulk path.
TEST(ChaCha20Test, MatchesRfc8439BlockFunctionVectors) {
  const uint8_t expected_bytes[128] = {
      0x76, 0xb8, 0xe0, 0xad, 0xa0, 0xf1, 0x3d, 0x90, 0x40, 0x5d, 0x6a,
      0xe5, 0x53, 0x86, 0xbd, 0x28, 0xbd, 0xd2, 0x19, 0xb8, 0xa0, 0x8d,
      0xed, 0x1a, 0xa8, 0x36, 0xef, 0xcc, 0x8b, 0x77, 0x0d, 0xc7, 0xda,
      0x41, 0x59, 0x7c, 0x51, 0x57, 0x48, 0x8d, 0x77, 0x24, 0xe0, 0x3f,
      0xb8, 0xd8, 0x4a, 0x37, 0x6a, 0x43, 0xb8, 0xf4, 0x15, 0x18, 0xa1,
      0x1c, 0xc3, 0x87, 0xb6, 0x69, 0xb2, 0xee, 0x65, 0x86,
      0x9f, 0x07, 0xe7, 0xbe, 0x55, 0x51, 0x38, 0x7a, 0x98, 0xba, 0x97,
      0x7c, 0x73, 0x2d, 0x08, 0x0d, 0xcb, 0x0f, 0x29, 0xa0, 0x48, 0xe3,
      0x65, 0x69, 0x12, 0xc6, 0x53, 0x3e, 0x32, 0xee, 0x7a, 0xed, 0x29,
      0xb7, 0x21, 0x76, 0x9c, 0xe6, 0x4e, 0x43, 0xd5, 0x71, 0x33, 0xb0,
      0x74, 0xd8, 0x39, 0xd5, 0x31, 0xed, 0x1f, 0x28, 0x51, 0x0a, 0xfb,
      0x45, 0xac, 0xe1, 0x0a, 0x1f, 0x4b, 0x79, 0x4d, 0x6f};
  std::vector<uint64_t> expected(16, 0);
  for (size_t i = 0; i < 128; ++i) {
    expected[i / 8] |= static_cast<uint64_t>(expected_bytes[i]) << (8 * (i % 8));
  }
  const ChaCha20Rng::Key zero_key{};
  ChaCha20Rng words(zero_key, 0);
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(words.NextU64(), expected[i]) << "word " << i;
  }
  std::vector<uint64_t> bulk(32, 0);
  ChaCha20Rng(zero_key, 0).AddTo(bulk.data(), bulk.size());
  EXPECT_EQ(std::vector<uint64_t>(bulk.begin(), bulk.begin() + 16), expected);
}

// The bulk mask is the NextU64 stream, added or subtracted word by
// word: for lengths on both sides of the 8-word block and 32-word batch
// boundaries, after 0-3 words already drawn, for two keys and nonces.
// A NextU64 after the bulk call continues the same stream.
TEST(ChaCha20Test, BulkMaskIsTheNextU64Stream) {
  const std::pair<uint64_t, uint64_t> keys_and_nonces[] = {
      {7, 1}, {0xfeed, uint64_t{1} << 40}};
  const size_t lengths[] = {0,  1,  7,  8,  9,  15, 16, 17, 31,
                            32, 33, 63, 64, 65, 95, 96, 97, 1000};
  for (const auto& [seed, nonce] : keys_and_nonces) {
    const ChaCha20Rng::Key key = ChaCha20Rng::KeyFromSeed(seed);
    for (const size_t n : lengths) {
      for (int drawn = 0; drawn < 4; ++drawn) {
        for (const bool subtract : {false, true}) {
          std::vector<uint64_t> values(n);
          for (size_t i = 0; i < n; ++i) values[i] = i * 0x9E3779B97F4A7C15ull;
          std::vector<uint64_t> expected = values;

          ChaCha20Rng bulk(key, nonce);
          ChaCha20Rng words(key, nonce);
          for (int d = 0; d < drawn; ++d) {
            ASSERT_EQ(bulk.NextU64(), words.NextU64());
          }
          if (subtract) {
            bulk.SubtractFrom(values.data(), n);
            for (auto& v : expected) v -= words.NextU64();
          } else {
            bulk.AddTo(values.data(), n);
            for (auto& v : expected) v += words.NextU64();
          }
          ASSERT_EQ(values, expected)
              << "seed " << seed << ", n " << n << ", drawn " << drawn
              << (subtract ? ", subtract" : ", add");
          EXPECT_EQ(bulk.NextU64(), words.NextU64());
        }
      }
    }
  }
}

TEST(ChaCha20Test, OutputLooksUniform) {
  ChaCha20Rng rng(ChaCha20Rng::KeyFromSeed(99), 0);
  const int n = 100000;
  int ones = 0;
  for (int i = 0; i < n; ++i) ones += __builtin_popcountll(rng.NextU64());
  // 64n/2 expected one-bits, ~0.1% tolerance.
  EXPECT_NEAR(static_cast<double>(ones) / (64.0 * n), 0.5, 0.002);
}

}  // namespace
}  // namespace dash
