#include "core/imputation.h"

#include <cmath>

#include "data/missing_data.h"
#include "transport/party_runner.h"

namespace dash {

Result<SecureImputationOutput> PartyMeanImpute(
    Transport* transport, PartyData* party, const SecureScanOptions& options) {
  DASH_RETURN_IF_ERROR(ValidateParties({party, 1}));
  const int64_t m = party->x.cols();
  SecureImputationOutput out;
  Phase2Body body;
  body.workload = SecureWorkload::kMeanImputation;
  body.summand = [&](const Matrix&, ThreadPool*) -> Result<Vector> {
    const ColumnMoments moments = ColumnSumsAndCounts(party->x);
    Vector flat = moments.sums;
    flat.insert(flat.end(), moments.counts.begin(), moments.counts.end());
    return flat;
  };
  body.finalize = [&](const Vector& total, int64_t n) -> Result<uint64_t> {
    out.means.assign(static_cast<size_t>(m), 0.0);
    out.call_rates.assign(static_cast<size_t>(m), 0.0);
    for (int64_t j = 0; j < m; ++j) {
      const double sum = total[static_cast<size_t>(j)];
      const double count = total[static_cast<size_t>(m + j)];
      // Secure-sum quantization can leave counts a hair off an integer.
      const double observed = (count > 0.5) ? count : 0.0;
      out.means[static_cast<size_t>(j)] =
          (observed > 0.0) ? sum / observed : 0.0;
      out.call_rates[static_cast<size_t>(j)] =
          (n > 0) ? observed / static_cast<double>(n) : 0.0;
      out.total_missing += n - std::llround(observed);
    }
    return WireChecksum(total);
  };
  // No permanent covariates: the frame runs Phase 0 only.
  DASH_ASSIGN_OR_RETURN(
      out.metrics,
      RunPartyFrame(transport, Matrix(party->num_samples(), 0), options, body));
  // This party imputes its own rows with the public means.
  ImputeWithMeans(out.means, &party->x);
  return out;
}

Result<SecureImputationOutput> SecureMeanImpute(
    std::vector<PartyData>* parties, const SecureScanOptions& options) {
  DASH_RETURN_IF_ERROR(ValidateParties(*parties));
  return SimulateWorkload(
      static_cast<int>(parties->size()), [&](int i, Transport* t) {
        return PartyMeanImpute(t, &(*parties)[static_cast<size_t>(i)],
                               options);
      });
}

}  // namespace dash
