// Golden result checksums for the Lemma 2.1 finalizers.
//
// Every other scan test compares results within a tolerance, so a change
// in the finalizers' arithmetic order (or in how their inputs are sliced
// out of a secure-sum total) would still pass them. These recorded
// ScanResultChecksum constants pin the exact result bits of each
// finalize path on fixed-seed inputs: the plaintext scan (dense gaussian
// and genotype data), the secure scan with revealed projected sums and
// with Beaver dot products (plain and per-party centered), every
// phenotype of the secure multi-phenotype scan, and the Cᵀ-compressed
// study. Re-baselining them needs a stated reason in the change that
// does it.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/association_scan.h"
#include "core/compressed_study.h"
#include "core/multi_phenotype_scan.h"
#include "core/scan_result.h"
#include "core/secure_scan.h"
#include "data/genotype_generator.h"
#include "data/party_split.h"
#include "data/workloads.h"
#include "linalg/sparse_matrix.h"
#include "util/random.h"

namespace dash {
namespace {

constexpr uint64_t kGoldenPlainGaussian = 0xb7a947ecf6909b69ULL;
constexpr uint64_t kGoldenPlainGenotype = 0xe8fb30e21647fa15ULL;
constexpr uint64_t kGoldenSecureRevealSums = 0xbd9531cf53648ae4ULL;
constexpr uint64_t kGoldenSecureBeaver = 0x4644318e98caa82aULL;
constexpr uint64_t kGoldenSecureBeaverCentered = 0xc614477a1a4c4b9bULL;
constexpr uint64_t kGoldenMultiPhenotype[] = {
    0x3e0321c28a6aea22ULL, 0x1c051ce11a8c7985ULL, 0x5c683b373a854cf7ULL};
constexpr uint64_t kGoldenCompressed[] = {
    0xfdd2cd2f28dfe67aULL, 0xa11d625cf58f6487ULL, 0x88533ab07cb68d77ULL};

// Three gaussian parties with two covariates and no intercept column,
// so the same parties also serve the per-party-centering mode.
std::vector<PartyData> GaussianParties() {
  Rng rng(0x901d);
  std::vector<PartyData> parties;
  for (int p = 0; p < 3; ++p) {
    PartyData pd;
    const int64_t n = 50 + 15 * p;
    pd.x = GaussianMatrix(n, 24, &rng);
    pd.c = GaussianMatrix(n, 2, &rng);
    pd.y.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      pd.y[static_cast<size_t>(i)] =
          0.5 * pd.x(i, 3) + 0.8 * pd.c(i, 1) + static_cast<double>(p) +
          rng.Gaussian();
    }
    parties.push_back(std::move(pd));
  }
  return parties;
}

// Three parties sharing one genotype block, with T = 3 phenotypes.
std::vector<MultiPhenotypePartyData> MultiPhenotypeParties() {
  GenotypeOptions geno;
  geno.num_samples = 180;
  geno.num_variants = 30;
  geno.maf_min = 0.05;
  geno.maf_max = 0.45;
  geno.seed = 0x901e;
  const Matrix x = GenerateGenotypes(geno);
  Rng rng(0x901f);
  const Matrix noise = GaussianMatrix(180, 3, &rng);
  const Matrix covariates = GaussianMatrix(180, 2, &rng);
  std::vector<MultiPhenotypePartyData> parties;
  int64_t begin = 0;
  for (const int64_t n : {50, 70, 60}) {
    MultiPhenotypePartyData pd;
    pd.x = Matrix(n, 30);
    pd.ys = Matrix(n, 3);
    pd.c = Matrix(n, 3);
    for (int64_t i = 0; i < n; ++i) {
      const int64_t r = begin + i;
      for (int64_t j = 0; j < 30; ++j) pd.x(i, j) = x(r, j);
      pd.c(i, 0) = 1.0;
      pd.c(i, 1) = covariates(r, 0);
      pd.c(i, 2) = covariates(r, 1);
      for (int64_t t = 0; t < 3; ++t) {
        pd.ys(i, t) = 0.3 * static_cast<double>(t + 1) * x(r, 2 * t) +
                      0.4 * covariates(r, 0) + noise(r, t);
      }
    }
    begin += n;
    parties.push_back(std::move(pd));
  }
  return parties;
}

TEST(FinalizeGoldenTest, PlaintextGaussian) {
  const PooledData pooled = PoolParties(GaussianParties()).value();
  EXPECT_EQ(ScanResultChecksum(
                AssociationScan(pooled.x, pooled.y, pooled.c).value()),
            kGoldenPlainGaussian);
}

TEST(FinalizeGoldenTest, PlaintextGenotype) {
  GwasWorkloadOptions gwas;
  gwas.party_sizes = {90, 120, 100};
  gwas.num_variants = 60;
  gwas.num_covariates = 3;
  gwas.num_causal = 3;
  gwas.seed = 0x9020;
  const ScanWorkload w = MakeGwasWorkload(gwas).value();
  const PooledData pooled = PoolParties(w.parties).value();
  EXPECT_EQ(ScanResultChecksum(
                AssociationScan(pooled.x, pooled.y, pooled.c).value()),
            kGoldenPlainGenotype);
  const SparseColumnMatrix sparse = SparseColumnMatrix::FromDense(pooled.x);
  EXPECT_EQ(ScanResultChecksum(
                AssociationScanSparse(sparse, pooled.y, pooled.c).value()),
            kGoldenPlainGenotype);
}

TEST(FinalizeGoldenTest, SecureRevealSums) {
  SecureScanOptions opts;
  opts.aggregation = AggregationMode::kMasked;
  const SecureScanOutput out =
      SecureAssociationScan(opts).Run(GaussianParties()).value();
  EXPECT_EQ(ScanResultChecksum(out.result), kGoldenSecureRevealSums);
}

TEST(FinalizeGoldenTest, SecureBeaverDotProducts) {
  SecureScanOptions opts;
  opts.aggregation = AggregationMode::kMasked;
  opts.projection = ProjectionSecurity::kBeaverDotProducts;
  opts.projection_frac_bits = 22;
  const std::vector<PartyData> parties = GaussianParties();
  EXPECT_EQ(ScanResultChecksum(
                SecureAssociationScan(opts).Run(parties).value().result),
            kGoldenSecureBeaver);
  opts.center_per_party = true;
  EXPECT_EQ(ScanResultChecksum(
                SecureAssociationScan(opts).Run(parties).value().result),
            kGoldenSecureBeaverCentered);
}

TEST(FinalizeGoldenTest, SecureMultiPhenotype) {
  SecureScanOptions opts;
  opts.aggregation = AggregationMode::kMasked;
  const SecureMultiPhenotypeOutput out =
      SecureMultiPhenotypeScan(MultiPhenotypeParties(), opts).value();
  ASSERT_EQ(out.results.size(), 3u);
  for (size_t t = 0; t < out.results.size(); ++t) {
    SCOPED_TRACE("phenotype " + std::to_string(t));
    EXPECT_EQ(ScanResultChecksum(out.results[t]), kGoldenMultiPhenotype[t]);
  }
}

TEST(FinalizeGoldenTest, CompressedStudyAllCovariates) {
  const std::vector<MultiPhenotypePartyData> parties = MultiPhenotypeParties();
  CompressedStudy study =
      CompressedStudy::Compress(parties[0].x, parties[0].ys, parties[0].c)
          .value();
  for (size_t p = 1; p < parties.size(); ++p) {
    ASSERT_TRUE(study
                    .Merge(CompressedStudy::Compress(parties[p].x,
                                                     parties[p].ys,
                                                     parties[p].c)
                               .value())
                    .ok());
  }
  for (int64_t t = 0; t < 3; ++t) {
    SCOPED_TRACE("phenotype " + std::to_string(t));
    EXPECT_EQ(ScanResultChecksum(study.ScanAllCovariates(t).value()),
              kGoldenCompressed[t]);
  }
}

}  // namespace
}  // namespace dash
