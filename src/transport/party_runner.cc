#include "transport/party_runner.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/distributed_qr.h"
#include "core/party_local.h"
#include "core/scan_checkpoint.h"
#include "core/streaming_stats.h"
#include "core/suff_stats.h"
#include "linalg/qr.h"
#include "mpc/secrecy.h"
#include "mpc/secure_projection.h"
#include "mpc/secure_sum.h"
#include "net/abort.h"
#include "net/round_annotations.h"
#include "net/serialization.h"
#include "util/fnv1a.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace dash {
namespace {

constexpr const char* kWorkloadNames[] = {
    "association scan", "multi-phenotype scan", "grouped scan",
    "mean imputation", "compressed study"};

// Local-only digest of everything Phase 1 depends on: the party's
// (preprocessed) covariate slab, its sample count, and the Phase-1
// options that change the pooled R. FNV-1a over the raw double bits —
// bit-exact equality is the right notion, because the cached Q_p must
// reproduce the original transcript bit for bit. The digest never
// leaves the process; the kPhase1Probe round only carries a
// have/have-not bit.
uint64_t Phase1Fingerprint(const Matrix& c, const SecureScanOptions& options) {
  const uint64_t header[] = {static_cast<uint64_t>(c.rows()),
                             static_cast<uint64_t>(c.cols()),
                             static_cast<uint64_t>(options.r_combine)};
  const uint64_t h = Fnv1aBytes(header, sizeof(header));
  return Fnv1aBytes(c.data(), static_cast<size_t>(c.size()) * sizeof(double),
                    h);
}

// The one derivation of a workload's secure-sum options. The mask
// domain keeps pairwise mask keys apart across concurrent sessions over
// one mesh (the session id; PROTOCOL.md's session-layer note) and
// across workloads run with one seed (the workload, above the session
// id's 32 bits). A sessionless association scan keeps domain 0 — the
// exact historical chain.
SecureSumOptions SumOptionsFor(const SecureScanOptions& options,
                               uint32_t session_id, SecureWorkload workload) {
  SecureSumOptions sum_options;
  sum_options.mode = options.aggregation;
  sum_options.frac_bits = options.frac_bits;
  sum_options.seed = options.seed;
  sum_options.mask_domain =
      (static_cast<uint64_t>(workload) << 32) | session_id;
  return sum_options;
}

// Phase 0: broadcasts this party's public sample count and returns the
// pooled N (no traffic when P = 1).
Result<int64_t> PooledSampleCount(Transport* transport,
                                  int64_t local_samples) {
  const int local = transport->local_party();
  const int num_parties = transport->num_parties();
  if (num_parties == 1) return local_samples;
  transport->BeginRound();
  ByteWriter w;
  w.PutI64(local_samples);
  DASH_ROUND(phase0_samplecount, kSampleCount);
  DASH_RETURN_IF_ERROR(
      transport->Broadcast(local, MessageTag::kSampleCount, w.Take()));
  int64_t total = 0;
  for (int q = 0; q < num_parties; ++q) {
    if (q == local) {
      total += local_samples;
      continue;
    }
    DASH_ROUND(phase0_samplecount, kSampleCount);
    DASH_ASSIGN_OR_RETURN(
        Message msg, transport->Receive(local, q, MessageTag::kSampleCount));
    ByteReader r(msg.payload);
    DASH_ASSIGN_OR_RETURN(int64_t n_q, r.GetI64());
    total += n_q;
  }
  return total;
}

// Phase 1: this party's rows Q_p = C_p R⁻¹ of the pooled basis (no
// traffic when K = 0).
Result<Matrix> PartyBasisRows(Transport* transport, const Matrix& c,
                              RCombineMode mode) {
  if (c.cols() == 0) return Matrix(c.rows(), 0);
  DASH_ASSIGN_OR_RETURN(Matrix local_r, QrRFactor(c));
  DASH_ASSIGN_OR_RETURN(Matrix r, PartyCombineRFactors(transport, local_r, mode));
  DASH_ASSIGN_OR_RETURN(Matrix r_inverse, InvertUpperTriangular(r));
  return MatMul(c, r_inverse);
}

// The frame's rounds; RunPartyFrame wraps them with the abort notice.
Result<SecureScanMetrics> RunFrameProtocol(Transport* transport,
                                           const Matrix& c,
                                           const SecureScanOptions& options,
                                           const Phase2Body& body,
                                           Phase1State* phase1) {
  const int local = transport->local_party();
  const int num_parties = transport->num_parties();
  if (options.trace != nullptr) transport->AttachTrace(options.trace);
  // The transport may have carried earlier workloads; this frame
  // reports only its own traffic.
  TrafficMetrics start(num_parties);
  start.MergeFrom(transport->metrics());

  // Phase-1 cache probe (one optional round): each party broadcasts ONE
  // public bit — "I hold valid Phase-1 state for this cohort" — and the
  // cache is used iff every party says yes. All-or-nothing keeps the
  // transcript identical at every party: a single stale peer forces the
  // full Phase 1 everywhere. The fingerprint itself never leaves the
  // process.
  uint64_t fingerprint = 0;
  bool cache_hit = false;
  if (phase1 != nullptr) {
    fingerprint = Phase1Fingerprint(c, options);
    const bool have =
        phase1->valid && phase1->local_fingerprint == fingerprint;
    if (num_parties > 1) {
      transport->BeginRound();
      ByteWriter w;
      w.PutU32(have ? 1u : 0u);
      DASH_ROUND(phase1_probe, kPhase1Probe);
      DASH_RETURN_IF_ERROR(
          transport->Broadcast(local, MessageTag::kPhase1Probe, w.Take()));
      bool all_have = have;
      for (int q = 0; q < num_parties; ++q) {
        if (q == local) continue;
        DASH_ROUND(phase1_probe, kPhase1Probe);
        DASH_ASSIGN_OR_RETURN(
            Message msg,
            transport->Receive(local, q, MessageTag::kPhase1Probe));
        ByteReader r(msg.payload);
        DASH_ASSIGN_OR_RETURN(uint32_t peer_have, r.GetU32());
        all_have = all_have && (peer_have == 1);
      }
      cache_hit = all_have;
    } else {
      cache_hit = have;
    }
  }

  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.num_threads);
  }

  int64_t total_samples = 0;
  Matrix q_p(0, 0);
  if (cache_hit) {
    // Phases 0–1 replaced by the cache: N is a public protocol reveal,
    // and Q_p is this party's own private material coming back from its
    // own cache — the declassified bytes feed the same local statistics
    // kernel the fresh path feeds and never reach the wire.
    total_samples = phase1->total_samples;
    q_p = DASH_DECLASSIFY(
        phase1->q_p,
        "phase1-cache: this party's own cached Q_p rows, reused in-process");
  } else {
    DASH_ASSIGN_OR_RETURN(total_samples,
                          PooledSampleCount(transport, c.rows()));
    DASH_ASSIGN_OR_RETURN(q_p,
                          PartyBasisRows(transport, c, options.r_combine));
    if (phase1 != nullptr) {
      phase1->valid = true;
      phase1->local_fingerprint = fingerprint;
      phase1->total_samples = total_samples;
      phase1->q_p = Secret<Matrix>(q_p);
    }
  }

  // Phase 2: the workload's summand, one secure sum, its finalizer.
  DASH_ASSIGN_OR_RETURN(Vector summand, body.summand(q_p, pool.get()));
  PartySecureVectorSum secure_sum(
      transport,
      SumOptionsFor(options, transport->session_id(), body.workload));
  DASH_ASSIGN_OR_RETURN(Vector total,
                        secure_sum.Run(Secret<Vector>(std::move(summand))));
  DASH_ASSIGN_OR_RETURN(const uint64_t checksum,
                        body.finalize(total, total_samples));

  // Commit round: broadcast the checksum of the result we are about to
  // reveal and require every peer's to match. This is the last line of
  // defense against faults no other layer can see (e.g. a same-tag
  // same-length reorder): instead of parties walking away with
  // different numbers, the workload fails with DataLoss at every party.
  if (options.commit_round && num_parties > 1) {
    transport->BeginRound();
    ByteWriter w;
    w.PutU64(checksum);
    DASH_ROUND(phase4_commit, kCommit);
    DASH_RETURN_IF_ERROR(
        transport->Broadcast(local, MessageTag::kCommit, w.Take()));
    for (int q = 0; q < num_parties; ++q) {
      if (q == local) continue;
      DASH_ROUND(phase4_commit, kCommit);
      DASH_ASSIGN_OR_RETURN(Message msg,
                            transport->Receive(local, q, MessageTag::kCommit));
      ByteReader r(msg.payload);
      DASH_ASSIGN_OR_RETURN(uint64_t peer_sum, r.GetU64());
      if (peer_sum != checksum) {
        return DataLossError("result divergence: party " + std::to_string(q) +
                             " committed checksum " +
                             std::to_string(peer_sum) + ", party " +
                             std::to_string(local) + " computed " +
                             std::to_string(checksum));
      }
    }
  }

  SecureScanMetrics metrics = MetricsFromTraffic(transport->metrics(), start);
  metrics.phase1_cache_hit = cache_hit;
  DASH_LOG(Info) << "party " << local << "/" << num_parties << " secure "
                 << kWorkloadNames[static_cast<size_t>(body.workload)]
                 << ": N=" << total_samples << " K=" << c.cols()
                 << " mode=" << AggregationModeName(options.aggregation)
                 << " sent_bytes=" << metrics.total_bytes;
  return metrics;
}

// The association scan through the frame. `stream` non-null switches
// Phase 2 to the out-of-core path (X from a PanelSource,
// checkpoint/resume); `beaver_triples` non-null carries this party's
// dealt triple shares for the Beaver projection.
Result<SecureScanOutput> RunScan(
    Transport* transport, const PartyData& input_party,
    const SecureScanOptions& options, Phase1State* phase1,
    const StreamingPartyScan* stream,
    const std::vector<Secret<BeaverTripleShare>>* beaver_triples) {
  DASH_CHECK(transport != nullptr);
  const int local = transport->local_party();
  const bool beaver =
      options.projection == ProjectionSecurity::kBeaverDotProducts;
  if (beaver && beaver_triples == nullptr) {
    return UnimplementedError(
        "the Beaver-triple projection needs a trusted triple dealer, which "
        "only the in-process simulator provides; use "
        "ProjectionSecurity::kRevealProjectedSums");
  }
  if (stream != nullptr) {
    if (stream->source == nullptr) {
      return InvalidArgumentError("streamed scan: no PanelSource supplied");
    }
    if (options.center_per_party) {
      return InvalidArgumentError(
          "streamed scan: center_per_party mutates X, which is immutable "
          "on disk — center before packing (dash_pack)");
    }
    if (beaver) {
      return InvalidArgumentError(
          "streamed scan: the Beaver projection needs X in memory; "
          "stream with kRevealProjectedSums");
    }
    if (stream->source->num_samples() != input_party.num_samples()) {
      return InvalidArgumentError(
          "streamed scan: study has " +
          std::to_string(stream->source->num_samples()) +
          " samples but y/C carry " +
          std::to_string(input_party.num_samples()));
    }
  }
  DASH_RETURN_IF_ERROR(ValidateParties({&input_party, 1}));

  // Per-party preprocessing: centering is a within-party operation.
  const PartyData* party = &input_party;
  std::vector<PartyData> centered;
  // Model parameters the preprocessing absorbed: both finalizers use
  // dof = N − K − 1 − absorbed_params.
  int64_t absorbed_params = 0;
  if (options.center_per_party) {
    for (int64_t j = 0; j < input_party.c.cols(); ++j) {
      bool constant = input_party.c.rows() > 0;
      for (int64_t i = 1; i < input_party.c.rows() && constant; ++i) {
        constant = (input_party.c(i, j) == input_party.c(0, j));
      }
      if (constant && input_party.c.rows() > 0) {
        return InvalidArgumentError(
            "center_per_party absorbs the intercept; remove constant "
            "column " + std::to_string(j) + " from C");
      }
    }
    centered.push_back(input_party);
    CenterPerParty(&centered);
    party = &centered[0];
    absorbed_params = transport->num_parties();
  }

  const int64_t m =
      stream != nullptr ? stream->source->num_variants() : party->x.cols();
  const int64_t k = party->c.cols();
  if (beaver &&
      static_cast<int64_t>(beaver_triples->size()) !=
          (k > 0 ? ProjectionTripleCount(k, m) : 0)) {
    return InvalidArgumentError("Beaver triple count does not match K, M");
  }

  SecureScanOutput out;
  StreamingStatsResult streamed;
  // The Beaver variant's projected K-vectors, which never leave the
  // party: only their dot products are opened.
  Vector qty;
  Matrix qtx(0, 0);
  Phase2Body body;
  body.workload = SecureWorkload::kAssociationScan;
  body.summand = [&](const Matrix& q_p, ThreadPool* pool) -> Result<Vector> {
    if (stream != nullptr) {
      // Out-of-core: stream X's panels into the wire-order summand,
      // checkpointing as configured. Bit-identical to the in-memory
      // arena (core/streaming_stats.h).
      StreamingStatsOptions stream_opts = stream->options;
      stream_opts.pool = pool;
      DASH_ASSIGN_OR_RETURN(streamed,
                            ComputeLocalStatsStreamed(stream->source, party->y,
                                                      q_p, stream_opts));
      if (streamed.resumed_from_panel > 0) {
        DASH_LOG(Info) << "party " << local << " resumed from checkpoint at "
                       << "panel " << streamed.resumed_from_panel << "/"
                       << stream->source->num_panels();
      }
      return std::move(streamed.flat);
    }
    // Our summand, computed directly into a wire-order arena.
    Vector arena = PartyLocalStatsFlat(*party, q_p, pool);
    if (!beaver) return arena;
    // Beaver: the orthogonal statistics [yy | xy | xx] are summed as
    // usual (xy and xx sit contiguously in the arena); Qᵀy and QᵀX stay.
    const StatsWireLayout layout{m, k};
    Vector plain;
    plain.reserve(static_cast<size_t>(1 + 2 * m));
    plain.push_back(arena[static_cast<size_t>(layout.yy_offset())]);
    plain.insert(plain.end(), arena.begin() + layout.xy_offset(),
                 arena.begin() + layout.qtx_offset());
    qty.assign(arena.begin() + layout.qty_offset(),
               arena.begin() + layout.xy_offset());
    qtx = Matrix(k, m);
    std::copy(arena.begin() + layout.qtx_offset(), arena.end(), qtx.data());
    return plain;
  };
  body.finalize = [&](const Vector& total,
                      int64_t pooled_samples) -> Result<uint64_t> {
    // Lemma 2.1 finalization (local, public).
    if (beaver) {
      DASH_ASSIGN_OR_RETURN(
          ProjectedStats projected,
          PartySecureProjection(transport, Secret<Vector>(std::move(qty)),
                                Secret<Matrix>(std::move(qtx)),
                                *beaver_triples, options.projection_frac_bits));
      // A view into total = [yy | xy | xx] and the opened dot products.
      const std::span<const double> plain_view(total);
      ProjectedSufficientStats totals;
      totals.num_samples = pooled_samples - absorbed_params;
      totals.num_covariates = k;
      totals.yy = plain_view[0];
      totals.xy = plain_view.subspan(1, static_cast<size_t>(m));
      totals.xx = plain_view.subspan(static_cast<size_t>(1 + m));
      totals.qty_qty = projected.qty_qty;
      totals.qtx_qty = projected.qtx_qty;
      totals.qtx_qtx = projected.qtx_qtx;
      DASH_ASSIGN_OR_RETURN(out.result, FinalizeScanProjected(totals));
    } else {
      DASH_ASSIGN_OR_RETURN(ScanSufficientStats totals,
                            UnflattenStats(total, m, k));
      totals.num_samples = pooled_samples - absorbed_params;
      DASH_ASSIGN_OR_RETURN(out.result, FinalizeScan(totals));
    }
    return ScanResultChecksum(out.result);
  };
  DASH_ASSIGN_OR_RETURN(out.metrics, RunPartyFrame(transport, party->c,
                                                   options, body, phase1));
  if (stream != nullptr) {
    out.metrics.streamed = true;
    out.metrics.resumed_from_panel = streamed.resumed_from_panel;
    out.metrics.panels_streamed = streamed.panels_streamed;
    out.metrics.checkpoints_written = streamed.checkpoints_written;
    // The revealed (and, when enabled, commit-verified) result is in
    // hand: the checkpoint has served its purpose. A crash before this
    // point keeps the snapshot for the next run.
    if (!stream->options.checkpoint_path.empty()) {
      RemoveScanCheckpoint(stream->options.checkpoint_path);
    }
  }
  return out;
}

}  // namespace

Result<SecureScanMetrics> RunPartyFrame(Transport* transport, const Matrix& c,
                                        const SecureScanOptions& options,
                                        const Phase2Body& body,
                                        Phase1State* phase1) {
  DASH_CHECK(transport != nullptr);
  const int local = transport->local_party();
  Result<SecureScanMetrics> out =
      RunFrameProtocol(transport, c, options, body, phase1);
  if (out.ok()) return out;
  const Status cause = out.status();
  const int round = transport->metrics().rounds();

  // Abort propagation (PROTOCOL.md "Failure modes"): the first party to
  // observe a mid-protocol failure best-effort notifies every peer, so
  // peers stuck in Receive fail with the ORIGINATOR's status code
  // instead of waiting out their own timeouts. Aborts received from a
  // peer are not re-broadcast (no abort storms), and failures before
  // round 1 concern only this process.
  if (round > 0 && !IsAbortStatus(cause)) {
    AbortInfo info;
    info.origin = local;
    info.round = round;
    info.code = cause.code();
    info.message = cause.message();
    const std::vector<uint8_t> payload = EncodeAbortPayload(info);
    for (int q = 0; q < transport->num_parties(); ++q) {
      if (q == local) continue;
      // Best effort: a link that is itself down must not mask `cause`.
      DASH_ROUND(abort_notify, kAbort);
      const Status notify =
          transport->Send(local, q, MessageTag::kAbort, payload);
      (void)notify;
    }
  }
  if (IsAbortStatus(cause)) return cause;
  return Status(cause.code(),
                "round " + std::to_string(round) + ": " + cause.message());
}

Result<SecureScanOutput> RunPartySecureScan(Transport* transport,
                                            const PartyData& input_party,
                                            const SecureScanOptions& options,
                                            Phase1State* phase1) {
  return RunScan(transport, input_party, options, phase1, /*stream=*/nullptr,
                 /*beaver_triples=*/nullptr);
}

Result<SecureScanOutput> RunPartySecureScan(
    Transport* transport, const PartyData& input_party,
    const SecureScanOptions& options,
    const std::vector<Secret<BeaverTripleShare>>& beaver_triples) {
  return RunScan(transport, input_party, options, /*phase1=*/nullptr,
                 /*stream=*/nullptr, &beaver_triples);
}

Result<SecureScanOutput> RunPartySecureScanStreamed(
    Transport* transport, const Vector& y, const Matrix& c,
    const StreamingPartyScan& stream, const SecureScanOptions& options,
    Phase1State* phase1) {
  // Phases 0–1 consume only y and C; a zero-column X satisfies the
  // party validation while Phase 2 reads the real X from the source.
  PartyData party;
  party.x = Matrix(static_cast<int64_t>(y.size()), 0);
  party.y = y;
  party.c = c;
  return RunScan(transport, party, options, phase1, &stream,
                 /*beaver_triples=*/nullptr);
}

}  // namespace dash
