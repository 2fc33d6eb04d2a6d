// DASH: the secure multi-party association scan (paper §3).
//
// P parties hold horizontal slices (X_p, y_p, C_p) of a pooled study.
// The protocol computes exactly the pooled scan's beta-hat, standard
// errors, t-statistics and p-values while exchanging only:
//
//   1. K x K local R factors (combined by broadcast-stack or binary
//      tree) — independent of N;
//   2. one secure-sum aggregation of the sufficient statistics
//      (1 + K + 2M + K*M values) — O(M) per link, independent of N.
//
// Per-party computation is the same ComputeLocalStatsFlat kernel the
// plaintext scan uses, which is the paper's "plaintext speed" property;
// the traffic counters exported in SecureScanOutput back the O(M)
// communication claim (experiments E2 and E3).
//
// The protocol is implemented once, per party (RunPartySecureScan,
// transport/party_runner.h). SecureAssociationScan is the in-process
// simulator: it runs that code on P threads, one per endpoint of an
// InProcessMesh (transport/inprocess_mesh.h), and reports the union of
// the parties' traffic.

#ifndef DASH_CORE_SECURE_SCAN_H_
#define DASH_CORE_SECURE_SCAN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/distributed_qr.h"
#include "net/trace.h"
#include "core/scan_result.h"
#include "data/party_split.h"
#include "mpc/secure_sum.h"
#include "transport/inprocess_mesh.h"
#include "util/status.h"

namespace dash {

// What the protocol reveals about the projected statistics.
enum class ProjectionSecurity {
  // Reveal the aggregated K-vectors Qᵀy and QᵀX (the paper's baseline:
  // "sharing them to sum or applying an SMC sum protocol").
  kRevealProjectedSums = 0,
  // Reveal only the dot products Lemma 2.1 consumes, via Beaver-triple
  // multiplication on the summands (the paper's "for even greater
  // security" variant). Costs O(KM) traffic instead of O(M).
  kBeaverDotProducts = 1,
};

const char* ProjectionSecurityName(ProjectionSecurity security);

struct SecureScanOptions {
  // How the sufficient-statistic summands are aggregated.
  AggregationMode aggregation = AggregationMode::kMasked;

  // How the per-party R factors are combined.
  RCombineMode r_combine = RCombineMode::kBroadcastStack;

  // Whether the projected statistics are revealed as sums or only as
  // the final dot products.
  ProjectionSecurity projection = ProjectionSecurity::kRevealProjectedSums;

  // Fixed-point bits for the Beaver products (results carry 2x this;
  // see mpc/secure_projection.h for the headroom trade-off).
  int projection_frac_bits = 20;

  // Fixed-point precision for the ring/field secure sums.
  int frac_bits = FixedPointCodec::kDefaultFracBits;

  // Threads for the per-party statistics pass.
  int num_threads = 1;

  // Center y, C, and X within each party before scanning. Exactly
  // equivalent to adding one batch-indicator covariate per party (the
  // paper's closing §3 note); supply C WITHOUT an intercept column in
  // this mode. Degrees of freedom account for the P absorbed indicators.
  bool center_per_party = false;

  // Run a final commit round: every party broadcasts the FNV-1a
  // checksum of its revealed result (MessageTag::kCommit) and
  // cross-checks its peers'. A mismatch — the signature of an
  // undetected fault such as a same-tag reorder — fails the scan with
  // DataLoss("result divergence ...") instead of letting parties walk
  // away with silently different numbers. One extra round of
  // 8-byte payloads; both backends run it so traffic stays comparable.
  bool commit_round = true;

  // Seed for protocol randomness (shares, masks, DH exponents).
  uint64_t seed = 0xda5b;

  // Optional transcript recorder (net/trace.h); when non-null, every
  // protocol message's metadata is appended to it. Must outlive Run().
  // One trace may be shared by the simulator's parties (mesh endpoints
  // append under the mesh lock), not by concurrent TCP endpoints.
  ProtocolTrace* trace = nullptr;
};

// Cost accounting: a party's own sends from RunPartySecureScan; the
// union over parties from the simulator.
struct SecureScanMetrics {
  int64_t total_bytes = 0;
  int64_t total_messages = 0;
  int64_t max_link_bytes = 0;
  int rounds = 0;
  // True when a cached Phase-1 state was reused (party_runner.h
  // Phase1State): the sample-count and R-combination rounds were
  // replaced by a single kPhase1Probe round.
  bool phase1_cache_hit = false;
  // Out-of-core accounting (RunPartySecureScanStreamed only; see
  // core/streaming_stats.h). resumed_from_panel > 0 means this run
  // continued a prior run's checkpoint instead of starting at panel 0.
  bool streamed = false;
  int64_t resumed_from_panel = 0;
  int64_t panels_streamed = 0;
  int64_t checkpoints_written = 0;
};

// The traffic fields of SecureScanMetrics from a ledger (a party's own,
// or InProcessMesh::metrics() for the whole run).
SecureScanMetrics MetricsFromTraffic(const TrafficMetrics& traffic);

// The same for the traffic `traffic` counted after `start` was copied
// from it (TrafficMetrics::MergeFrom into an empty ledger): one run's
// share of a transport that carried earlier runs too.
SecureScanMetrics MetricsFromTraffic(const TrafficMetrics& traffic,
                                     const TrafficMetrics& start);

struct SecureScanOutput {
  ScanResult result;
  SecureScanMetrics metrics;
};

// The simulator of any secure workload: party_entry(i, transport) — a
// per-party entry point returning Result<Output> with a `metrics`
// member — runs at every endpoint of `mesh` on its own thread
// (SimulateParties), and the revealed output carries the union of all
// parties' traffic instead of one party's.
template <typename Fn>
auto SimulateWorkload(InProcessMesh* mesh, Fn party_entry) {
  auto out = SimulateParties(mesh, std::move(party_entry));
  if (out.ok()) out->metrics = MetricsFromTraffic(mesh->metrics());
  return out;
}

// Same, over a private mesh of `num_parties` endpoints.
template <typename Fn>
auto SimulateWorkload(int num_parties, Fn party_entry) {
  InProcessMesh mesh(num_parties);
  return SimulateWorkload(&mesh, std::move(party_entry));
}

class SecureAssociationScan {
 public:
  explicit SecureAssociationScan(const SecureScanOptions& options = {});

  // Validates the whole party set, then runs RunPartySecureScan for
  // every party on its own thread over a private InProcessMesh. Returns
  // the revealed scan (identical at every party) with the union of the
  // parties' traffic, or the status of the first party to fail (the
  // others fail with the same code through the abort notice). For
  // kBeaverDotProducts the simulator also acts as the triple dealer.
  Result<SecureScanOutput> Run(const std::vector<PartyData>& parties) const;

  // Same, over a caller-supplied mesh with one endpoint per party, so
  // callers can inspect per-link metrics or attach a trace to it. To run
  // ONE party over a real network, use RunPartySecureScan.
  Result<SecureScanOutput> Run(const std::vector<PartyData>& parties,
                               InProcessMesh* mesh) const;

  const SecureScanOptions& options() const { return options_; }

 private:
  SecureScanOptions options_;
};

}  // namespace dash

#endif  // DASH_CORE_SECURE_SCAN_H_
