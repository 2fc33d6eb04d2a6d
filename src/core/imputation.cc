#include "core/imputation.h"

#include "data/missing_data.h"
#include "mpc/secure_sum.h"
#include "transport/inprocess_mesh.h"
#include "transport/party_runner.h"

namespace dash {

namespace {

// One party's side: the pooled sample count (phase 0) and one secure sum
// of [column sums | non-missing counts]. Returns the public totals.
Result<Vector> PartyImputationTotals(Transport* transport,
                                     const PartyData& party,
                                     const SecureScanOptions& options,
                                     int64_t* total_samples) {
  DASH_ASSIGN_OR_RETURN(*total_samples,
                        PartyPooledSampleCount(transport, party.num_samples()));
  const ColumnMoments moments = ColumnSumsAndCounts(party.x);
  Vector flat = moments.sums;
  flat.insert(flat.end(), moments.counts.begin(), moments.counts.end());
  SecureSumOptions sum_options;
  sum_options.mode = options.aggregation;
  sum_options.frac_bits = options.frac_bits;
  sum_options.seed = options.seed ^ 0x1255;
  PartySecureVectorSum secure_sum(transport, sum_options);
  return secure_sum.Run(Secret<Vector>(std::move(flat)));
}

}  // namespace

Result<SecureImputationOutput> SecureMeanImpute(
    std::vector<PartyData>* parties, const SecureScanOptions& options) {
  DASH_RETURN_IF_ERROR(ValidateParties(*parties));
  const int num_parties = static_cast<int>(parties->size());
  const int64_t m = (*parties)[0].x.cols();

  SecureImputationOutput out;
  for (const auto& p : *parties) out.total_missing += CountMissing(p.x);

  InProcessMesh mesh(num_parties);
  int64_t total_samples = 0;
  DASH_ASSIGN_OR_RETURN(
      Vector totals, SimulateParties(&mesh, [&](int i, Transport* t) {
        // Every party learns the same public N; party 0 reports it.
        int64_t n = 0;
        Result<Vector> got = PartyImputationTotals(
            t, (*parties)[static_cast<size_t>(i)], options, &n);
        if (i == 0) total_samples = n;
        return got;
      }));

  out.means.assign(static_cast<size_t>(m), 0.0);
  out.call_rates.assign(static_cast<size_t>(m), 0.0);
  for (int64_t j = 0; j < m; ++j) {
    const double sum = totals[static_cast<size_t>(j)];
    const double count = totals[static_cast<size_t>(m + j)];
    // Secure-sum quantization can leave counts a hair off an integer.
    const double observed = (count > 0.5) ? count : 0.0;
    out.means[static_cast<size_t>(j)] =
        (observed > 0.0) ? sum / observed : 0.0;
    out.call_rates[static_cast<size_t>(j)] =
        (total_samples > 0)
            ? observed / static_cast<double>(total_samples)
            : 0.0;
  }

  // Each party imputes its own rows with the public means.
  for (auto& p : *parties) ImputeWithMeans(out.means, &p.x);
  out.metrics = MetricsFromTraffic(mesh.metrics());
  return out;
}

}  // namespace dash
