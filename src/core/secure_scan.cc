#include "core/secure_scan.h"

#include <algorithm>
#include <string>
#include <vector>

#include "core/suff_stats.h"
#include "mpc/beaver.h"
#include "mpc/secure_projection.h"
#include "transport/party_runner.h"
#include "util/check.h"

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
  return MetricsFromTraffic(traffic, TrafficMetrics(traffic.num_parties()));
}

SecureScanMetrics MetricsFromTraffic(const TrafficMetrics& traffic,
                                     const TrafficMetrics& start) {
  DASH_CHECK_EQ(traffic.num_parties(), start.num_parties());
  SecureScanMetrics m;
  m.total_bytes = traffic.total_bytes() - start.total_bytes();
  m.total_messages = traffic.total_messages() - start.total_messages();
  m.rounds = traffic.rounds() - start.rounds();
  for (int from = 0; from < traffic.num_parties(); ++from) {
    for (int to = 0; to < traffic.num_parties(); ++to) {
      m.max_link_bytes =
          std::max(m.max_link_bytes,
                   traffic.LinkBytes(from, to) - start.LinkBytes(from, to));
    }
  }
  return m;
}

SecureAssociationScan::SecureAssociationScan(const SecureScanOptions& options)
    : options_(options) {}

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

  return SimulateWorkload(mesh, [&](int i, Transport* t) {
    const PartyData& party = parties[static_cast<size_t>(i)];
    return beaver ? RunPartySecureScan(t, party, options_,
                                       triples[static_cast<size_t>(i)])
                  : RunPartySecureScan(t, party, options_);
  });
}

}  // namespace dash
