// Online GWAS over streaming sample batches (paper preface + §5).
//
//   $ ./examples/online_gwas
//
// The preface imagines secure GWAS running "in online fashion as new
// batches of samples come online". The Cᵀ-compression form of the scan
// makes every sufficient statistic additive over batches, so each batch
// is compressed once, merged into a running CompressedStudy, and the
// scan can be re-finalized at any time.
// This example streams five enrollment waves and watches a planted hit's
// p-value sharpen as samples accumulate.

#include <cstdio>

#include "core/compressed_study.h"
#include "data/genotype_generator.h"
#include "util/random.h"

namespace {

int RealMain() {
  using namespace dash;

  constexpr int64_t kVariants = 500;
  constexpr int64_t kCovariates = 3;  // intercept + 2 components
  constexpr int64_t kCausal = 77;

  // The accumulator starts as an empty block of the study's shape.
  CompressedStudy online =
      CompressedStudy::Compress(Matrix(0, kVariants), Matrix(0, 1),
                                Matrix(0, kCovariates))
          .value();
  Rng rng(11);

  std::printf("streaming enrollment waves (true effect 0.15 on variant %lld)\n",
              static_cast<long long>(kCausal));
  std::printf("%-8s %10s %14s %14s\n", "wave", "N so far", "beta[77]",
              "p[77]");

  for (int wave = 1; wave <= 5; ++wave) {
    const int64_t n = 400 * wave;  // growing enrollment waves
    GenotypeOptions geno;
    geno.num_samples = n;
    geno.num_variants = kVariants;
    geno.seed = 100 + static_cast<uint64_t>(wave);
    const Matrix x = GenerateGenotypes(geno);
    Matrix c(n, kCovariates);
    Vector y(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      c(i, 0) = 1.0;
      c(i, 1) = rng.Gaussian();
      c(i, 2) = rng.Gaussian();
      y[static_cast<size_t>(i)] = 0.15 * x(i, kCausal) + 0.4 * c(i, 1) +
                                  rng.Gaussian();
    }
    const auto batch = CompressedStudy::Compress(x, Matrix::ColumnVector(y), c);
    const Status s = batch.ok() ? online.Merge(batch.value()) : batch.status();
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }

    const auto scan = online.ScanAllCovariates();
    if (!scan.ok()) {
      std::fprintf(stderr, "%s\n", scan.status().ToString().c_str());
      return 1;
    }
    std::printf("%-8d %10lld %14.4f %14.3e\n", wave,
                static_cast<long long>(online.num_samples()),
                scan->beta[kCausal], scan->pval[kCausal]);
  }

  std::printf("\neach batch was touched once; re-finalization is O(K^2 M)\n");
  std::printf("and never revisits raw genotypes (Cᵀ compression, §5).\n");
  return 0;
}

}  // namespace

int main() { return RealMain(); }
