// One party's end of every secure workload: the per-party frame, and
// the association scan that runs in it.
//
// The frame (RunPartyFrame) is the paper's §3 protocol with the Phase-2
// summand left open, which is all the §5 generalizations change:
//
//   Phase-1 cache probe (optional) -> Phase 0 (pooled N) -> Phase 1
//   (R-combine, this party's rows Q_p) -> summand(Q_p, pool) -> ONE
//   secure sum -> finalize(total, N) -> commit round
//
// A workload supplies only its Phase-2 body (Phase2Body): the summand
// and a finalizer of the revealed total that returns the value every
// party commits to. The frame owns the rest: abort propagation (a party
// that fails mid-protocol best-effort broadcasts a kAbort carrying its
// status, so every peer fails with the originator's code; PROTOCOL.md
// "Failure modes"), the thread pool, the secure-sum options with their
// mask domain, the commit round, and the traffic metrics. A workload
// with no permanent covariates (a 0-column C) runs Phase 0 only.
//
// Every entry runs once per process over a TcpTransport (dash_party) or
// a SessionChannel (dash_partyd); the in-process simulators run it on P
// threads over the endpoints of an InProcessMesh (SimulateWorkload in
// core/secure_scan.h). Every backend therefore reveals the same result
// bit for bit (ring/field sums are order-independent; the public mode
// and all plaintext reductions fix party-index summation order; doubles
// travel as exact IEEE-754 bit patterns) and exchanges the same
// per-link traffic.
//
// Protocol randomness is derived from the shared options.seed: party i
// draws its share/mask/DH randomness from the i-th output of the
// SplitMix64 seed chain (mpc/secure_sum.h), started in a domain made of
// the session id and the workload, so neither two sessions nor two
// workloads run with one seed ever share a pairwise mask key.
//
// ProjectionSecurity::kBeaverDotProducts needs dealt Beaver triples,
// which only the simulator can provide (the overload taking
// beaver_triples); without them it returns Unimplemented.

#ifndef DASH_TRANSPORT_PARTY_RUNNER_H_
#define DASH_TRANSPORT_PARTY_RUNNER_H_

#include <cstdint>
#include <functional>
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
#include "util/thread_pool.h"

namespace dash {

// One party's reusable Phase-1 state: everything the scan derives from
// the PERMANENT covariates alone, independent of which variants are
// tested. Repeat scans on the same cohort (same rows, same C, same
// preprocessing) skip the sample-count exchange, the QR combination,
// and the local Q_p rebuild — the per-variant Phase-2 aggregation is
// all that remains on the wire.
//
// Secrecy: Q_p's rows are derived from the party's private data, so the
// cached copy stays Secret<Matrix>; RunPartyFrame reads it back
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

// The secure workloads. Each one's secure sums run in their own mask
// domain; the association scan's is 0, the historical seed chain.
enum class SecureWorkload : uint32_t {
  kAssociationScan = 0,
  kMultiPhenotypeScan = 1,
  kGroupedScan = 2,
  kMeanImputation = 3,
  kCompressedStudy = 4,
};

// A workload's Phase 2, run by RunPartyFrame between Phase 1 and the
// commit round.
struct Phase2Body {
  SecureWorkload workload = SecureWorkload::kAssociationScan;
  // This party's private summand from its rows Q_p (N_p x K) of the
  // pooled basis; `pool` is the frame's (null = serial).
  std::function<Result<Vector>(const Matrix& q_p, ThreadPool* pool)> summand;
  // Finalizes the revealed total with the pooled sample count (it may
  // run further rounds: the Beaver projection opens its dot products
  // here) and returns the checksum every party commits to.
  std::function<Result<uint64_t>(const Vector& total, int64_t pooled_samples)>
      finalize;
};

// Runs `body` as party transport->local_party() holding the permanent
// covariates `c` of its N_p = c.rows() samples. `phase1` (may be null =
// uncached) is read AND written: when every party arrives with matching
// valid state — agreed in one extra kPhase1Probe round of a single
// public have-bit each — Phases 0–1 are skipped and
// metrics.phase1_cache_hit is set; otherwise they run and `phase1` is
// refilled. All-or-nothing: one stale party forces the full Phase 1 at
// every party, so the transcript stays identical at all of them.
// Metrics cover this party's sends only.
Result<SecureScanMetrics> RunPartyFrame(Transport* transport, const Matrix& c,
                                        const SecureScanOptions& options,
                                        const Phase2Body& body,
                                        Phase1State* phase1 = nullptr);

// The association scan as party transport->local_party() holding rows
// `party`, optionally through the Phase-1 cache. Blocks until the
// protocol completes; every party returns the identical revealed
// result.
Result<SecureScanOutput> RunPartySecureScan(Transport* transport,
                                            const PartyData& party,
                                            const SecureScanOptions& options,
                                            Phase1State* phase1 = nullptr);

// Simulator variant for ProjectionSecurity::kBeaverDotProducts:
// `beaver_triples` are this party's shares of the
// ProjectionTripleCount(K, M) triples a dealer handed out
// (mpc/secure_projection.h).
Result<SecureScanOutput> RunPartySecureScan(
    Transport* transport, const PartyData& party,
    const SecureScanOptions& options,
    const std::vector<Secret<BeaverTripleShare>>& beaver_triples);

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
