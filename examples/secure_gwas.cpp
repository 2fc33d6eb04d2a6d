// Secure multi-biobank GWAS: the paper's motivating scenario.
//
//   $ ./examples/secure_gwas [output.csv]
//
// Three "biobanks" hold disjoint cohorts of Hardy-Weinberg genotypes with
// shared covariates (intercept + 3 ancestry-like components). Ten causal
// variants are planted. The banks run DASH with masked aggregation and a
// binary-tree R combination, then report genome-wide significant hits,
// the exact protocol traffic, and a WAN time estimate from the link cost
// model.

#include <cstdio>
#include <string>

#include "core/secure_scan.h"
#include "data/workloads.h"
#include "transport/inprocess_mesh.h"
#include "util/stopwatch.h"

namespace {

int RealMain(int argc, char** argv) {
  using namespace dash;

  GwasWorkloadOptions workload;
  workload.party_sizes = {800, 1600, 1200};
  workload.num_variants = 8000;
  workload.num_covariates = 4;
  workload.num_causal = 10;
  workload.effect_size = 0.12;
  workload.seed = 7;
  std::printf("generating cohorts: N=(800, 1600, 1200), M=%lld, K=%lld\n",
              static_cast<long long>(workload.num_variants),
              static_cast<long long>(workload.num_covariates));
  const auto maybe_workload = MakeGwasWorkload(workload);
  if (!maybe_workload.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 maybe_workload.status().ToString().c_str());
    return 1;
  }
  const ScanWorkload& w = maybe_workload.value();

  SecureScanOptions options;
  options.aggregation = AggregationMode::kMasked;
  options.r_combine = RCombineMode::kBinaryTree;
  Stopwatch total;
  const auto out = SecureAssociationScan(options).Run(w.parties);
  if (!out.ok()) {
    std::fprintf(stderr, "scan: %s\n", out.status().ToString().c_str());
    return 1;
  }
  const ScanResult& scan = out->result;
  std::printf("secure scan finished in %.2fs\n", total.ElapsedSeconds());

  // Genome-wide significance with a Bonferroni threshold.
  const double alpha = 0.05 / static_cast<double>(scan.num_variants());
  std::printf("\nhits at Bonferroni alpha = %.2e:\n", alpha);
  std::printf("%-10s %10s %10s %12s %8s\n", "variant", "beta", "se", "p",
              "causal?");
  int hits = 0;
  int true_positives = 0;
  for (int64_t m = 0; m < scan.num_variants(); ++m) {
    const size_t i = static_cast<size_t>(m);
    if (!(scan.pval[i] < alpha)) continue;
    ++hits;
    bool causal = false;
    for (const int64_t c : w.causal_variants) causal = causal || (c == m);
    true_positives += causal;
    std::printf("%-10lld %10.4f %10.4f %12.3e %8s\n",
                static_cast<long long>(m), scan.beta[i], scan.se[i],
                scan.pval[i], causal ? "yes" : "NO");
  }
  std::printf("%d hits, %d of %zu planted causal variants recovered\n", hits,
              true_positives, w.causal_variants.size());

  // Communication accounting: this is what crossed institutional lines.
  std::printf("\ninter-party traffic: %lld bytes (%lld messages, %d rounds)\n",
              static_cast<long long>(out->metrics.total_bytes),
              static_cast<long long>(out->metrics.total_messages),
              out->metrics.rounds);
  std::printf("busiest link carried %lld bytes\n",
              static_cast<long long>(out->metrics.max_link_bytes));
  // Modeled WAN wall-clock: 30 ms RTT, 100 Mbit/s.
  TrafficMetrics modeled(static_cast<int>(w.parties.size()));
  LinkCostModel wan{0.030, 100e6 / 8.0};
  const double wan_seconds =
      out->metrics.rounds * wan.latency_seconds +
      static_cast<double>(out->metrics.total_bytes) /
          wan.bandwidth_bytes_per_second;
  std::printf("modeled WAN protocol time (30ms, 100Mbit/s): %.2fs\n",
              wan_seconds);

  if (argc > 1) {
    const Status s = scan.WriteCsv(argv[1]);
    if (!s.ok()) {
      std::fprintf(stderr, "write csv: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("full results written to %s\n", argv[1]);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return RealMain(argc, argv); }
