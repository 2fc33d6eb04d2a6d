// Missing-data handling and the secure mean-imputation protocol, plus
// Shamir dropout tolerance at the protocol level.

#include "core/imputation.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/association_scan.h"
#include "data/genotype_generator.h"
#include "data/missing_data.h"
#include "mpc/secure_sum.h"
#include "transport/fault_transport.h"
#include "transport/inprocess_mesh.h"
#include "util/random.h"

namespace dash {
namespace {

TEST(MissingDataTest, SumsCountsAndImputation) {
  Matrix x = {{1.0, std::nan("")}, {std::nan(""), 4.0}, {2.0, 6.0}};
  EXPECT_EQ(CountMissing(x), 2);
  const ColumnMoments m = ColumnSumsAndCounts(x);
  EXPECT_DOUBLE_EQ(m.sums[0], 3.0);
  EXPECT_DOUBLE_EQ(m.counts[0], 2.0);
  EXPECT_DOUBLE_EQ(m.sums[1], 10.0);
  EXPECT_DOUBLE_EQ(m.counts[1], 2.0);
  ImputeWithMeans({1.5, 5.0}, &x);
  EXPECT_EQ(CountMissing(x), 0);
  EXPECT_DOUBLE_EQ(x(1, 0), 1.5);
  EXPECT_DOUBLE_EQ(x(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(x(2, 1), 6.0);  // observed entries untouched
}

TEST(MissingDataTest, InjectMissingnessRate) {
  Rng rng(1);
  Matrix x(200, 50);
  InjectMissingness(0.1, &rng, &x);
  const double rate =
      static_cast<double>(CountMissing(x)) / static_cast<double>(x.size());
  EXPECT_NEAR(rate, 0.1, 0.02);
  Matrix y(10, 10);
  InjectMissingness(0.0, &rng, &y);
  EXPECT_EQ(CountMissing(y), 0);
}

std::vector<PartyData> MakePartiesWithMissingness(uint64_t seed,
                                                  double rate) {
  Rng rng(seed);
  std::vector<PartyData> parties;
  for (const int64_t n : {int64_t{60}, int64_t{80}, int64_t{70}}) {
    PartyData p;
    GenotypeOptions geno;
    geno.num_samples = n;
    geno.num_variants = 15;
    geno.seed = rng.NextU64();
    p.x = GenerateGenotypes(geno);
    InjectMissingness(rate, &rng, &p.x);
    p.c = WithInterceptColumn(GaussianMatrix(n, 1, &rng));
    p.y = GaussianVector(n, &rng);
    parties.push_back(std::move(p));
  }
  return parties;
}

TEST(SecureImputationTest, MatchesPooledImputation) {
  auto parties = MakePartiesWithMissingness(2, 0.08);
  // Reference: pool, compute global means in the clear, impute.
  auto reference = parties;
  const PooledData pooled = PoolParties(reference).value();
  const ColumnMoments global = ColumnSumsAndCounts(pooled.x);
  Vector means(global.sums.size());
  for (size_t j = 0; j < means.size(); ++j) {
    means[j] = (global.counts[j] > 0) ? global.sums[j] / global.counts[j] : 0.0;
  }
  for (auto& p : reference) ImputeWithMeans(means, &p.x);

  SecureScanOptions opts;
  opts.aggregation = AggregationMode::kMasked;
  const SecureImputationOutput out =
      SecureMeanImpute(&parties, opts).value();
  EXPECT_GT(out.total_missing, 0);
  EXPECT_LT(MaxAbsDiff(out.means, means), 1e-8);
  for (size_t p = 0; p < parties.size(); ++p) {
    EXPECT_EQ(CountMissing(parties[p].x), 0);
    EXPECT_LT(MaxAbsDiff(parties[p].x, reference[p].x), 1e-8);
  }
  // Call rates in (0, 1], roughly 1 - rate.
  for (const double cr : out.call_rates) {
    EXPECT_GT(cr, 0.8);
    EXPECT_LE(cr, 1.0);
  }
}

TEST(SecureImputationTest, ImputedScanMatchesPooledImputedScan) {
  auto parties = MakePartiesWithMissingness(3, 0.05);
  SecureScanOptions opts;
  opts.aggregation = AggregationMode::kAdditive;
  ASSERT_TRUE(SecureMeanImpute(&parties, opts).ok());
  const auto secure = SecureAssociationScan(opts).Run(parties).value();

  // Pooled reference with the same imputation.
  const PooledData pooled = PoolParties(parties).value();
  const ScanResult plain =
      AssociationScan(pooled.x, pooled.y, pooled.c).value();
  EXPECT_LT(MaxAbsDiff(secure.result.beta, plain.beta), 1e-6);
  EXPECT_LT(MaxAbsDiff(secure.result.pval, plain.pval), 1e-6);
}

TEST(SecureImputationTest, FullyMissingColumnImputesToZero) {
  auto parties = MakePartiesWithMissingness(4, 0.0);
  for (auto& p : parties) {
    for (int64_t i = 0; i < p.x.rows(); ++i) p.x(i, 3) = std::nan("");
  }
  const SecureImputationOutput out = SecureMeanImpute(&parties, {}).value();
  EXPECT_DOUBLE_EQ(out.means[3], 0.0);
  EXPECT_DOUBLE_EQ(out.call_rates[3], 0.0);
  // The dead column becomes constant zero -> untestable in the scan.
  SecureScanOptions opts;
  const auto scan = SecureAssociationScan(opts).Run(parties).value();
  EXPECT_TRUE(std::isnan(scan.result.beta[3]));
}

TEST(SecureImputationTest, NoMissingnessIsIdentity) {
  auto parties = MakePartiesWithMissingness(5, 0.0);
  const auto before = parties;
  const SecureImputationOutput out = SecureMeanImpute(&parties, {}).value();
  EXPECT_EQ(out.total_missing, 0);
  for (size_t p = 0; p < parties.size(); ++p) {
    EXPECT_LT(MaxAbsDiff(parties[p].x, before[p].x), 1e-8);
  }
}

// --- Shamir dropout tolerance ---
//
// A real dropout: the dropped parties' mesh endpoints are wrapped in a
// FaultInjectingTransport whose kDisconnect rule fires on their first
// message of round 2 — after their input shares went out in round 1,
// before their sum shares do. Each party then leaves the mesh, as a
// crashed process would.

std::vector<Result<Vector>> RunShamirWithDropouts(
    const std::vector<Vector>& inputs, const SecureSumOptions& opts,
    int dropouts) {
  const int p = static_cast<int>(inputs.size());
  InProcessMesh mesh(p);
  return RunPerParty(&mesh, [&](int i, Transport* endpoint) {
    FaultPlan plan;
    if (i >= p - dropouts) {
      FaultRule crash;
      crash.kind = FaultKind::kDisconnect;
      crash.round = 2;
      plan.rules.push_back(crash);
    }
    FaultInjectingTransport transport(endpoint, plan);
    PartySecureVectorSum sum(&transport, opts);
    return sum.Run(Secret<Vector>(inputs[static_cast<size_t>(i)]));
  });
}

TEST(ShamirDropoutTest, SumSurvivesDropoutsBelowThresholdBound) {
  const int p = 5;
  Rng rng(6);
  std::vector<Vector> inputs(p, Vector(12));
  Vector expected(12, 0.0);
  for (auto& v : inputs) {
    for (size_t e = 0; e < v.size(); ++e) {
      v[e] = rng.Uniform(-50.0, 50.0);
      expected[e] += v[e];
    }
  }
  // threshold t = 2 -> need >= 3 survivors -> up to 2 dropouts.
  for (const int dropouts : {0, 1, 2}) {
    SecureSumOptions opts;
    opts.mode = AggregationMode::kShamir;
    opts.frac_bits = 24;
    opts.shamir_threshold = 2;
    const auto outs = RunShamirWithDropouts(inputs, opts, dropouts);
    for (int i = 0; i < p; ++i) {
      const auto& got = outs[static_cast<size_t>(i)];
      if (i >= p - dropouts) {
        EXPECT_FALSE(got.ok()) << "dropped party " << i << " finished";
        continue;
      }
      ASSERT_TRUE(got.ok()) << "dropouts=" << dropouts << " survivor " << i
                            << ": " << got.status();
      for (size_t e = 0; e < got->size(); ++e) {
        // The crashed parties' inputs are still included.
        EXPECT_NEAR((*got)[e], expected[e], 1e-5)
            << "dropouts=" << dropouts << " survivor " << i << " element "
            << e;
      }
    }
  }
}

TEST(ShamirDropoutTest, TooManyDropoutsIsAnErrorAtEverySurvivor) {
  SecureSumOptions opts;
  opts.mode = AggregationMode::kShamir;
  opts.shamir_threshold = 1;  // need >= 2 sum shares
  const auto outs =
      RunShamirWithDropouts({{1.0}, {1.0}, {1.0}, {1.0}}, opts, 3);
  for (const auto& out : outs) {
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kUnavailable) << out.status();
  }
}

TEST(ShamirDropoutTest, OtherModesCannotLoseAParty) {
  // Masked aggregation needs every party's masked vector: the dropped
  // party's disconnect is an error at every survivor, never a wrong sum.
  SecureSumOptions opts;
  opts.mode = AggregationMode::kMasked;
  const auto outs = RunShamirWithDropouts({{1.0}, {2.0}, {3.0}}, opts, 1);
  for (const auto& out : outs) EXPECT_FALSE(out.ok());
}

}  // namespace
}  // namespace dash
