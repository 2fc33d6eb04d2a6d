// Beaver triples and the secure projected aggregation (the paper's
// "only share the three right-hand quantities" variant).

#include <gtest/gtest.h>

#include <cmath>

#include "core/association_scan.h"
#include "core/secure_scan.h"
#include "data/genotype_generator.h"
#include "data/workloads.h"
#include "linalg/qr.h"
#include "mpc/additive_sharing.h"
#include "mpc/beaver.h"
#include "mpc/secrecy.h"
#include "mpc/secure_projection.h"
#include "transport/inprocess_mesh.h"
#include "util/random.h"

namespace dash {
namespace {

// Test-side wrapping of plain summands into the Secret API.
std::vector<Secret<Vector>> SecretVectors(std::vector<Vector> vs) {
  std::vector<Secret<Vector>> out;
  out.reserve(vs.size());
  for (auto& v : vs) out.push_back(Secret<Vector>(std::move(v)));
  return out;
}

std::vector<Secret<Matrix>> SecretMatrices(std::vector<Matrix> ms) {
  std::vector<Secret<Matrix>> out;
  out.reserve(ms.size());
  for (auto& m : ms) out.push_back(Secret<Matrix>(std::move(m)));
  return out;
}

TEST(BeaverTripleTest, DealtSharesSatisfyTheTripleRelation) {
  DealerTripleProvider dealer(4, 1);
  const auto shares = dealer.Deal(50);
  ASSERT_EQ(shares.size(), 4u);
  for (int64_t i = 0; i < 50; ++i) {
    uint64_t a = 0;
    uint64_t b = 0;
    uint64_t c = 0;
    for (int p = 0; p < 4; ++p) {
      const BeaverTripleShare t = DASH_DECLASSIFY(
          shares[static_cast<size_t>(p)][static_cast<size_t>(i)],
          "test reconstructs the dealt triples to check a*b=c");
      a += t.a;
      b += t.b;
      c += t.c;
    }
    EXPECT_EQ(c, a * b);
  }
}

TEST(BeaverTripleTest, MultiplicationProtocolIsExactInTheRing) {
  Rng rng(2);
  DealerTripleProvider dealer(3, 3);
  for (int trial = 0; trial < 100; ++trial) {
    // Shares of x and y.
    const uint64_t x = rng.NextU64();
    const uint64_t y = rng.NextU64();
    const auto xs = AdditiveShare(x, 3, &rng);
    const auto ys = AdditiveShare(y, 3, &rng);
    const auto triples = dealer.Deal(1);
    // Open d, e.
    uint64_t d = 0;
    uint64_t e = 0;
    for (int p = 0; p < 3; ++p) {
      const BeaverTripleShare t = DASH_DECLASSIFY(
          triples[static_cast<size_t>(p)][0],
          "test plays all parties and opens d/e directly");
      d += xs[static_cast<size_t>(p)] - t.a;
      e += ys[static_cast<size_t>(p)] - t.b;
    }
    // Reconstruct the product from the local shares.
    uint64_t product = 0;
    for (int p = 0; p < 3; ++p) {
      product += BeaverProductShare(d, e, triples[static_cast<size_t>(p)][0],
                                    /*include_de=*/p == 0);
    }
    EXPECT_EQ(product, x * y);
  }
}

TEST(BeaverTripleTest, SingleParty) {
  DealerTripleProvider dealer(1, 4);
  const auto shares = dealer.Deal(3);
  EXPECT_EQ(shares.size(), 1u);
  const BeaverTripleShare t =
      DASH_DECLASSIFY(shares[0][0], "test checks the single-party triple");
  EXPECT_EQ(t.c, t.a * t.b);
}

class SecureProjectionTest : public testing::TestWithParam<int> {};

TEST_P(SecureProjectionTest, MatchesDirectDotProducts) {
  const int p = GetParam();
  const int64_t k = 4;
  const int64_t m = 30;
  Rng rng(10 + static_cast<uint64_t>(p));
  std::vector<Vector> qty(static_cast<size_t>(p));
  std::vector<Matrix> qtx(static_cast<size_t>(p));
  Vector qty_total(static_cast<size_t>(k), 0.0);
  Matrix qtx_total(k, m);
  for (int i = 0; i < p; ++i) {
    qty[static_cast<size_t>(i)] = GaussianVector(k, &rng);
    qtx[static_cast<size_t>(i)] = GaussianMatrix(k, m, &rng);
    for (int64_t kk = 0; kk < k; ++kk) {
      qty_total[static_cast<size_t>(kk)] += qty[static_cast<size_t>(i)][static_cast<size_t>(kk)];
      for (int64_t j = 0; j < m; ++j) {
        qtx_total(kk, j) += qtx[static_cast<size_t>(i)](kk, j);
      }
    }
  }

  InProcessMesh net(p);
  SecureProjectionOptions opts;
  opts.frac_bits = 22;
  SecureProjectedAggregation agg(&net, opts);
  const ProjectedStats got =
      agg.Run(SecretVectors(qty), SecretMatrices(qtx)).value();

  const double tol = 1e-4;
  EXPECT_NEAR(got.qty_qty, SquaredNorm(qty_total), tol);
  for (int64_t j = 0; j < m; ++j) {
    const Vector col = qtx_total.Col(j);
    EXPECT_NEAR(got.qtx_qty[static_cast<size_t>(j)], Dot(col, qty_total), tol);
    EXPECT_NEAR(got.qtx_qtx[static_cast<size_t>(j)], SquaredNorm(col), tol);
  }
}

INSTANTIATE_TEST_SUITE_P(Parties, SecureProjectionTest,
                         testing::Values(1, 2, 3, 6));

TEST(SecureProjectionTest, NeverTransmitsTheRawSummands) {
  // The opened d/e values are uniformly masked: re-running with the same
  // inputs but a different dealer seed produces different wire bytes of
  // the same length — nothing deterministic about the inputs leaks.
  const int p = 2;
  Rng rng(20);
  std::vector<Vector> qty = {GaussianVector(3, &rng), GaussianVector(3, &rng)};
  std::vector<Matrix> qtx = {GaussianMatrix(3, 5, &rng),
                             GaussianMatrix(3, 5, &rng)};
  const auto run = [&](uint64_t seed) {
    InProcessMesh net(p);
    SecureProjectionOptions opts;
    opts.seed = seed;
    SecureProjectedAggregation agg(&net, opts);
    auto r = agg.Run(SecretVectors(qty), SecretMatrices(qtx));
    EXPECT_TRUE(r.ok());
    return net.metrics().total_bytes();
  };
  EXPECT_EQ(run(1), run(2));  // cost identical, content differs by seed
}

TEST(SecureProjectionTest, HeadroomViolationIsReported) {
  InProcessMesh net(2);
  SecureProjectionOptions opts;
  opts.frac_bits = 28;  // products carry 56 fractional bits
  SecureProjectedAggregation agg(&net, opts);
  const std::vector<Vector> qty = {{1000.0}, {1000.0}};
  const std::vector<Matrix> qtx = {Matrix(1, 2), Matrix(1, 2)};
  const auto r = agg.Run(SecretVectors(qty), SecretMatrices(qtx));
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(SecureProjectionTest, ShapeValidation) {
  InProcessMesh net(2);
  SecureProjectedAggregation agg(&net, {});
  EXPECT_FALSE(agg.Run(SecretVectors({{1.0}}),
                       SecretMatrices({Matrix(1, 2), Matrix(1, 2)}))
                   .ok());
  EXPECT_FALSE(agg.Run(SecretVectors({{1.0}, {1.0, 2.0}}),
                       SecretMatrices({Matrix(1, 2), Matrix(1, 2)}))
                   .ok());
  EXPECT_FALSE(agg.Run(SecretVectors({{1.0}, {1.0}}),
                       SecretMatrices({Matrix(1, 2), Matrix(1, 3)}))
                   .ok());
}

TEST(SecureProjectionTest, ZeroCovariatesShortCircuit) {
  InProcessMesh net(2);
  SecureProjectedAggregation agg(&net, {});
  const auto r = agg.Run(SecretVectors({Vector{}, Vector{}}),
                         SecretMatrices({Matrix(0, 4), Matrix(0, 4)}))
                     .value();
  EXPECT_DOUBLE_EQ(r.qty_qty, 0.0);
  EXPECT_EQ(r.qtx_qty.size(), 4u);
}

// End-to-end: the Beaver-secured scan equals the plaintext scan.
TEST(BeaverScanTest, SecureScanWithDotProductsMatchesPlaintext) {
  RDemoOptions demo;
  demo.n1 = 50;
  demo.n2 = 80;
  demo.n3 = 60;
  demo.num_variants = 20;
  demo.num_covariates = 3;
  demo.seed = 33;
  const ScanWorkload w = MakeRDemoWorkload(demo);
  const PooledData pooled = PoolParties(w.parties).value();
  const ScanResult plain =
      AssociationScan(pooled.x, pooled.y, pooled.c).value();

  SecureScanOptions opts;
  opts.aggregation = AggregationMode::kMasked;
  opts.projection = ProjectionSecurity::kBeaverDotProducts;
  opts.projection_frac_bits = 22;
  const SecureScanOutput secure =
      SecureAssociationScan(opts).Run(w.parties).value();

  EXPECT_EQ(secure.result.dof, plain.dof);
  EXPECT_LT(MaxAbsDiff(secure.result.beta, plain.beta), 1e-4);
  EXPECT_LT(MaxAbsDiff(secure.result.se, plain.se), 1e-4);
  EXPECT_LT(MaxAbsDiff(secure.result.pval, plain.pval), 1e-3);
}

TEST(BeaverScanTest, DotProductModeCostsKTimesMore) {
  RDemoOptions demo;
  demo.n1 = 40;
  demo.n2 = 40;
  demo.n3 = 40;
  demo.num_variants = 100;
  demo.num_covariates = 4;
  const ScanWorkload w = MakeRDemoWorkload(demo);

  SecureScanOptions sums;
  sums.aggregation = AggregationMode::kMasked;
  const auto baseline = SecureAssociationScan(sums).Run(w.parties).value();

  SecureScanOptions beaver = sums;
  beaver.projection = ProjectionSecurity::kBeaverDotProducts;
  const auto secured = SecureAssociationScan(beaver).Run(w.parties).value();

  // O(KM) vs O(M): more traffic, bounded by a small multiple of K.
  EXPECT_GT(secured.metrics.total_bytes, baseline.metrics.total_bytes);
  EXPECT_LT(secured.metrics.total_bytes,
            10 * baseline.metrics.total_bytes);
}

TEST(BeaverScanTest, NamesAreStable) {
  EXPECT_STREQ(ProjectionSecurityName(ProjectionSecurity::kRevealProjectedSums),
               "reveal-sums");
  EXPECT_STREQ(
      ProjectionSecurityName(ProjectionSecurity::kBeaverDotProducts),
      "beaver-dot-products");
}

}  // namespace
}  // namespace dash
