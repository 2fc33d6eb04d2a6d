#include "core/suff_stats.h"

#include <gtest/gtest.h>

#include <cstring>

#include "data/genotype_generator.h"
#include "linalg/qr.h"
#include "util/random.h"

namespace dash {
namespace {

struct Fixture {
  Matrix x;
  Vector y;
  Matrix q;
};

Fixture MakeFixture(int64_t n, int64_t m, int64_t k, uint64_t seed) {
  Rng rng(seed);
  Fixture f;
  f.x = GaussianMatrix(n, m, &rng);
  f.y = GaussianVector(n, &rng);
  f.q = ThinQr(GaussianMatrix(n, k, &rng)).value().q;
  return f;
}

TEST(SuffStatsTest, MatchesDirectComputation) {
  const Fixture f = MakeFixture(30, 8, 3, 1);
  const Vector flat = ComputeLocalStatsFlat(f.x, f.y, f.q);
  const ScanSufficientStats s = UnflattenStats(flat, 8, 3).value();
  EXPECT_NEAR(s.yy, SquaredNorm(f.y), 1e-12);
  EXPECT_LT(MaxAbsDiff(Vector(s.qty.begin(), s.qty.end()),
                       TransposeMatVec(f.q, f.y)),
            1e-12);
  for (int64_t j = 0; j < 8; ++j) {
    const Vector xj = f.x.Col(j);
    EXPECT_NEAR(s.xy[static_cast<size_t>(j)], Dot(xj, f.y), 1e-12);
    EXPECT_NEAR(s.xx[static_cast<size_t>(j)], SquaredNorm(xj), 1e-12);
    const Vector qtxj = TransposeMatVec(f.q, xj);
    for (int64_t kk = 0; kk < 3; ++kk) {
      EXPECT_NEAR(s.qtx[static_cast<size_t>(kk * 8 + j)],
                  qtxj[static_cast<size_t>(kk)], 1e-12);
    }
  }
}

TEST(SuffStatsTest, SparseMatchesDense) {
  GenotypeOptions geno;
  geno.num_samples = 60;
  geno.num_variants = 25;
  geno.maf_min = 0.02;
  geno.maf_max = 0.2;
  geno.seed = 2;
  const Matrix dense = GenerateGenotypes(geno);
  const SparseColumnMatrix sparse = SparseColumnMatrix::FromDense(dense);
  Rng rng(3);
  const Vector y = GaussianVector(60, &rng);
  const Matrix q = ThinQr(GaussianMatrix(60, 4, &rng)).value().q;

  EXPECT_EQ(WireChecksum(ComputeLocalStatsFlat(dense, y, q)),
            WireChecksum(ComputeLocalStatsFlat(sparse, y, q)));
}

TEST(SuffStatsTest, ThreadedMatchesSerial) {
  const Fixture f = MakeFixture(40, 33, 2, 4);
  ThreadPool pool(4);
  EXPECT_EQ(WireChecksum(ComputeLocalStatsFlat(f.x, f.y, f.q)),
            WireChecksum(ComputeLocalStatsFlat(f.x, f.y, f.q, &pool)));
}

TEST(SuffStatsTest, ChecksumDetectsSingleBitDrift) {
  const Fixture f = MakeFixture(25, 6, 2, 11);
  Vector flat = ComputeLocalStatsFlat(f.x, f.y, f.q);
  const uint64_t before = WireChecksum(flat);
  // Flip the lowest mantissa bit of one xy element.
  const StatsWireLayout layout{6, 2};
  double& xy3 = flat[static_cast<size_t>(layout.xy_offset() + 3)];
  uint64_t bits;
  std::memcpy(&bits, &xy3, sizeof(bits));
  bits ^= 1;
  std::memcpy(&xy3, &bits, sizeof(bits));
  EXPECT_NE(WireChecksum(flat), before);
}

TEST(SuffStatsTest, UnflattenSlicesTheWireLayout) {
  const Fixture f = MakeFixture(15, 6, 3, 8);
  const Vector flat = ComputeLocalStatsFlat(f.x, f.y, f.q);
  const StatsWireLayout layout{6, 3};
  ASSERT_EQ(static_cast<int64_t>(flat.size()), layout.total_len());
  EXPECT_EQ(flat.size(), static_cast<size_t>(1 + 3 + 2 * 6 + 3 * 6));
  const ScanSufficientStats s = UnflattenStats(flat, 6, 3).value();
  EXPECT_EQ(s.num_samples, 0);  // public; the caller sets it
  EXPECT_EQ(s.yy, flat[static_cast<size_t>(layout.yy_offset())]);
  // A view, not a copy: every block points into the arena itself.
  EXPECT_EQ(s.qty.data(), flat.data() + layout.qty_offset());
  EXPECT_EQ(s.xy.data(), flat.data() + layout.xy_offset());
  EXPECT_EQ(s.xx.data(), flat.data() + layout.xx_offset());
  EXPECT_EQ(s.qtx.data(), flat.data() + layout.qtx_offset());
  EXPECT_EQ(s.num_covariates(), 3);
  EXPECT_EQ(s.num_variants(), 6);
  EXPECT_EQ(s.xx.size(), 6u);
  EXPECT_EQ(s.qtx.size(), static_cast<size_t>(3 * 6));
}

TEST(SuffStatsTest, UnflattenRejectsWrongLength) {
  const Vector short_arena(10);
  EXPECT_FALSE(UnflattenStats(short_arena, 6, 3).ok());
}

TEST(SuffStatsTest, ZeroCovariateCase) {
  Rng rng(9);
  const Matrix x = GaussianMatrix(10, 3, &rng);
  const Vector y = GaussianVector(10, &rng);
  const Matrix q(10, 0);
  const Vector flat = ComputeLocalStatsFlat(x, y, q);
  EXPECT_EQ(flat.size(), static_cast<size_t>(1 + 2 * 3));
  const ScanSufficientStats s = UnflattenStats(flat, 3, 0).value();
  EXPECT_EQ(s.num_covariates(), 0);
  EXPECT_TRUE(s.qtx.empty());
}

}  // namespace
}  // namespace dash
