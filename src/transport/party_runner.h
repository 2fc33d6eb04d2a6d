// One party's end of the secure association scan — the scan's only
// implementation.
//
// RunPartySecureScan performs the sends party `transport->local_party()`
// makes and consumes the messages addressed to it, round by round. A
// deployment runs it once per process over a TcpTransport (dash_party)
// or a SessionChannel (dash_partyd); the in-process simulator
// (SecureAssociationScan::Run) runs it on P threads over the endpoints
// of an InProcessMesh (transport/inprocess_mesh.h). Every backend
// therefore reveals the same ScanResult bit for bit (ring/field sums
// are order-independent; the public mode and all plaintext reductions
// fix party-index summation order; doubles travel as exact IEEE-754
// bit patterns) and exchanges the same per-link traffic.
//
// Protocol randomness is derived from the shared options.seed: party i
// draws its share/mask/DH randomness from the i-th output of the
// SplitMix64 seed chain (mpc/secure_sum.h), so two deployments with
// equal seeds exchange identical ciphertexts.
//
// Failures: a party that fails mid-protocol best-effort broadcasts a
// kAbort carrying its status, so every peer fails with the originator's
// code (PROTOCOL.md "Failure modes").
//
// ProjectionSecurity::kBeaverDotProducts needs dealt Beaver triples,
// which only the simulator can provide (the overload taking
// beaver_triples); without them it returns Unimplemented.

#ifndef DASH_TRANSPORT_PARTY_RUNNER_H_
#define DASH_TRANSPORT_PARTY_RUNNER_H_

#include <cstdint>
#include <vector>

#include "core/distributed_qr.h"
#include "core/secure_scan.h"
#include "core/streaming_stats.h"
#include "data/panel_stream.h"
#include "data/party_split.h"
#include "linalg/matrix.h"
#include "mpc/beaver.h"
#include "mpc/secrecy.h"
#include "transport/transport.h"

namespace dash {

// One party's reusable Phase-1 state: everything the scan derives from
// the PERMANENT covariates alone, independent of which variants are
// tested. Repeat scans on the same cohort (same rows, same C, same
// preprocessing) skip the sample-count exchange, the QR combination,
// and the local Q_p rebuild — the per-variant Phase-2 aggregation is
// all that remains on the wire.
//
// Secrecy: Q_p's rows are derived from the party's private data, so the
// cached copy stays Secret<Matrix>; RunPartySecureScan reads it back
// through an audited DASH_DECLASSIFY (round key `phase1-cache` in
// tools/secrecy_allowlist.txt) that never moves the bytes off-process.
// The pooled sample count is public by protocol (phase0 reveal), so it
// is stored plain.
//
// Invalidation is the caller's job: any change to the cohort's rows or
// covariates MUST either be reflected in the data (the fingerprint then
// misses by itself) or be signaled by dropping the state (valid=false /
// destroying it). The fingerprint is local-only — it is never sent —
// and the kPhase1Probe agreement round only reveals one have/have-not
// bit per party.
struct Phase1State {
  bool valid = false;
  // FNV-1a over this party's (preprocessed) covariate slab, sample
  // count, and the Phase-1 options; see Phase1Fingerprint in
  // party_runner.cc.
  uint64_t local_fingerprint = 0;
  int64_t total_samples = 0;   // pooled N (public, phase0 reveal)
  Secret<Matrix> q_p;          // this party's Q_p rows (private)
};

// Runs the scan as party transport->local_party() holding rows `party`.
// Blocks until the protocol completes; every party returns the identical
// revealed result. Metrics cover this party's sends only.
Result<SecureScanOutput> RunPartySecureScan(Transport* transport,
                                            const PartyData& party,
                                            const SecureScanOptions& options);

// Cache-aware variant. `phase1` (may be null = uncached) is read AND
// written: when every party arrives with matching valid state — agreed
// in one extra kPhase1Probe round of a single public have-bit each —
// Phase 1 is skipped entirely and metrics.phase1_cache_hit is set;
// otherwise the full protocol runs and `phase1` is refilled. All-or-
// nothing: one stale party forces the full Phase 1 at every party, so
// the transcript stays identical at all of them.
Result<SecureScanOutput> RunPartySecureScan(Transport* transport,
                                            const PartyData& party,
                                            const SecureScanOptions& options,
                                            Phase1State* phase1);

// Simulator variant for ProjectionSecurity::kBeaverDotProducts:
// `beaver_triples` are this party's shares of the
// ProjectionTripleCount(K, M) triples a dealer handed out
// (mpc/secure_projection.h).
Result<SecureScanOutput> RunPartySecureScan(
    Transport* transport, const PartyData& party,
    const SecureScanOptions& options,
    const std::vector<Secret<BeaverTripleShare>>& beaver_triples);

// Phase 0 for one party: broadcasts its public sample count and returns
// the pooled N (no traffic when P = 1).
Result<int64_t> PartyPooledSampleCount(Transport* transport,
                                       int64_t local_samples);

// Phases 0–1 for one party holding the permanent covariates `c` of its
// rows: the pooled N (a public protocol reveal) and this party's private
// rows Q_p = C_p R⁻¹ of the pooled basis. The scan and the §5 workloads
// (grouped, multi-phenotype) share it.
struct PartyBasis {
  int64_t total_samples = 0;
  Matrix q_p;  // N_p x K
};
Result<PartyBasis> RunPartyPhase1(Transport* transport, const Matrix& c,
                                  RCombineMode mode);

// Out-of-core scan configuration for RunPartySecureScanStreamed: this
// party's genotype block streams from `source` one panel at a time
// (core/streaming_stats.h) instead of living in PartyData.x, and the
// partial accumulator is durably checkpointed so a killed party
// resumes from the last snapshot. The revealed result is bit-identical
// to the in-memory scan on the same data, resumed or not.
struct StreamingPartyScan {
  PanelSource* source = nullptr;  // required; must outlive the call

  // Checkpointing, prefetch and the test hooks. The runner overrides
  // only `pool`, with the scan's own (SecureScanOptions::num_threads).
  StreamingStatsOptions options;
};

// Streamed variant of RunPartySecureScan: y and the permanent
// covariates C stay RAM-resident (they are all Phases 0–1 need), X
// streams from stream.source during Phase 2. Incompatible with
// center_per_party (X is immutable on disk — pre-center before
// packing) and with the Beaver projection. On success the checkpoint
// file, if any, is removed; on failure it is left behind so the next
// run resumes.
Result<SecureScanOutput> RunPartySecureScanStreamed(
    Transport* transport, const Vector& y, const Matrix& c,
    const StreamingPartyScan& stream, const SecureScanOptions& options,
    Phase1State* phase1 = nullptr);

}  // namespace dash

#endif  // DASH_TRANSPORT_PARTY_RUNNER_H_
