#include "core/secure_scan.h"

#include <algorithm>
#include <string>
#include <vector>

#include "core/suff_stats.h"
#include "mpc/beaver.h"
#include "mpc/secure_projection.h"
#include "transport/party_runner.h"

namespace dash {

const char* ProjectionSecurityName(ProjectionSecurity security) {
  switch (security) {
    case ProjectionSecurity::kRevealProjectedSums:
      return "reveal-sums";
    case ProjectionSecurity::kBeaverDotProducts:
      return "beaver-dot-products";
  }
  return "unknown";
}

SecureScanMetrics MetricsFromTraffic(const TrafficMetrics& traffic) {
  SecureScanMetrics m;
  m.total_bytes = traffic.total_bytes();
  m.total_messages = traffic.total_messages();
  m.max_link_bytes = traffic.MaxLinkBytes();
  m.rounds = traffic.rounds();
  return m;
}

SecureAssociationScan::SecureAssociationScan(const SecureScanOptions& options)
    : options_(options) {}

Result<ScanResult> FinalizeScanWithAbsorbedParams(
    const ScanSufficientStats& totals, int64_t absorbed_params) {
  // dof = N − K − 1 − absorbed; fold the absorbed parameters into the
  // sample count seen by the standard finalization.
  ScanSufficientStats adjusted = totals;
  adjusted.num_samples -= absorbed_params;
  return FinalizeScan(adjusted);
}

Result<SecureScanOutput> SecureAssociationScan::Run(
    const std::vector<PartyData>& parties) const {
  DASH_RETURN_IF_ERROR(ValidateParties(parties));
  InProcessMesh mesh(static_cast<int>(parties.size()));
  return Run(parties, &mesh);
}

Result<SecureScanOutput> SecureAssociationScan::Run(
    const std::vector<PartyData>& parties, InProcessMesh* mesh) const {
  DASH_CHECK(mesh != nullptr);
  // Cross-party shape agreement is the one check no single party can
  // make before the wire; everything else each party validates itself.
  DASH_RETURN_IF_ERROR(ValidateParties(parties));
  const int num_parties = static_cast<int>(parties.size());
  if (mesh->num_parties() != num_parties) {
    return InvalidArgumentError("mesh has " +
                                std::to_string(mesh->num_parties()) +
                                " endpoints for " +
                                std::to_string(num_parties) + " parties");
  }

  // The simulator is the Beaver projection's trusted dealer.
  std::vector<std::vector<Secret<BeaverTripleShare>>> triples;
  const bool beaver =
      options_.projection == ProjectionSecurity::kBeaverDotProducts;
  if (beaver) {
    const int64_t k = parties[0].c.cols();
    const int64_t m = parties[0].x.cols();
    DealerTripleProvider dealer(num_parties, options_.seed ^ 0xbea7e5);
    triples = dealer.Deal(k > 0 ? ProjectionTripleCount(k, m) : 0);
  }

  std::vector<SecureScanMetrics> party_metrics(
      static_cast<size_t>(num_parties));
  DASH_ASSIGN_OR_RETURN(
      SecureScanOutput out,
      SimulateParties(mesh, [&](int i, Transport* t) {
        const PartyData& party = parties[static_cast<size_t>(i)];
        Result<SecureScanOutput> got =
            beaver ? RunPartySecureScan(t, party, options_,
                                        triples[static_cast<size_t>(i)])
                   : RunPartySecureScan(t, party, options_);
        if (got.ok()) party_metrics[static_cast<size_t>(i)] = got->metrics;
        return got;
      }));
  out.metrics = MetricsFromTraffic(mesh->metrics());
  for (const SecureScanMetrics& m : party_metrics) {
    out.metrics.local_compute_seconds += m.local_compute_seconds;
    out.metrics.protocol_seconds =
        std::max(out.metrics.protocol_seconds, m.protocol_seconds);
  }
  return out;
}

}  // namespace dash
