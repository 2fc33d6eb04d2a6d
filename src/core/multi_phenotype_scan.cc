#include "core/multi_phenotype_scan.h"

#include <memory>
#include <span>
#include <string>
#include <utility>

#include "linalg/qr.h"
#include "transport/party_runner.h"
#include "util/thread_pool.h"

namespace dash {
namespace {

// One block's summand: [per t: yy_t | Qᵀy_t(K) | X.y_t(M)] ++ [xx(M) |
// QᵀX(K*M)]. The X-side tail is shared by every phenotype; it is the
// [xx | qtx] tail of a summand arena against a zero phenotype.
Vector MultiSummand(const Matrix& x, const Matrix& ys, const Matrix& q,
                    ThreadPool* pool) {
  const int64_t t_count = ys.cols();
  const int64_t k = q.cols();
  const int64_t m = x.cols();
  const Matrix qty = TransposeMatMul(q, ys);  // K x T
  const Matrix xy = TransposeMatMul(x, ys);   // M x T
  const Vector x_arena = ComputeLocalStatsFlat(
      x, Vector(static_cast<size_t>(x.rows()), 0.0), q, pool);
  Vector flat;
  flat.reserve(static_cast<size_t>(t_count * (1 + k + m) + m + k * m));
  for (int64_t t = 0; t < t_count; ++t) {
    double yy = 0.0;
    for (int64_t i = 0; i < ys.rows(); ++i) yy += ys(i, t) * ys(i, t);
    flat.push_back(yy);
    for (int64_t kk = 0; kk < k; ++kk) flat.push_back(qty(kk, t));
    for (int64_t j = 0; j < m; ++j) flat.push_back(xy(j, t));
  }
  flat.insert(flat.end(), x_arena.begin() + StatsWireLayout{m, k}.xx_offset(),
              x_arena.end());
  return flat;
}

// One party's shapes against the study's M, K and T.
Status ValidateMultiParty(const MultiPhenotypePartyData& pd, size_t p,
                          int64_t m, int64_t k, int64_t t_count) {
  if (t_count < 1) return InvalidArgumentError("need at least one phenotype");
  if (pd.x.cols() != m || pd.c.cols() != k || pd.ys.cols() != t_count ||
      pd.ys.rows() != pd.x.rows() || pd.c.rows() != pd.x.rows()) {
    return InvalidArgumentError("party " + std::to_string(p) +
                                " has inconsistent shapes");
  }
  if (pd.x.rows() < k) {
    return InvalidArgumentError("party " + std::to_string(p) +
                                " has fewer samples than covariates");
  }
  return Status::Ok();
}

// T views into one total: phenotype t's [yy | qty | xy] block, and the
// shared X-side [xx | qtx] tail.
Result<std::vector<ScanResult>> FinalizeAll(const Vector& flat, int64_t n,
                                            int64_t m, int64_t k,
                                            int64_t t_count) {
  const int64_t expected = t_count * (1 + k + m) + m + k * m;
  if (static_cast<int64_t>(flat.size()) != expected) {
    return InternalError("multi-phenotype aggregate has wrong length");
  }
  const std::span<const double> total(flat);
  const auto block = [&total](int64_t offset, int64_t len) {
    return total.subspan(static_cast<size_t>(offset),
                         static_cast<size_t>(len));
  };
  const int64_t x_side = t_count * (1 + k + m);
  std::vector<ScanResult> results;
  results.reserve(static_cast<size_t>(t_count));
  for (int64_t t = 0; t < t_count; ++t) {
    const int64_t pos = t * (1 + k + m);
    ScanSufficientStats s;
    s.num_samples = n;
    s.yy = total[static_cast<size_t>(pos)];
    s.qty = block(pos + 1, k);
    s.xy = block(pos + 1 + k, m);
    s.xx = block(x_side, m);
    s.qtx = block(x_side + m, k * m);
    DASH_ASSIGN_OR_RETURN(ScanResult r, FinalizeScan(s));
    results.push_back(std::move(r));
  }
  return results;
}

}  // namespace

Result<std::vector<ScanResult>> MultiPhenotypeScan(const Matrix& x,
                                                   const Matrix& ys,
                                                   const Matrix& c,
                                                   const ScanOptions& options) {
  if (x.rows() != ys.rows() || c.rows() != x.rows()) {
    return InvalidArgumentError("x, ys, c disagree on sample count");
  }
  if (x.rows() <= c.cols() + 1) {
    return InvalidArgumentError("need N > K + 1 samples");
  }
  Matrix q(x.rows(), 0);
  if (c.cols() > 0) {
    DASH_ASSIGN_OR_RETURN(QrDecomposition qr, ThinQr(c));
    q = std::move(qr.q);
  }
  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.num_threads);
  }
  return FinalizeAll(MultiSummand(x, ys, q, pool.get()), x.rows(), x.cols(),
                     c.cols(), ys.cols());
}

Result<SecureMultiPhenotypeOutput> PartyMultiPhenotypeScan(
    Transport* transport, const MultiPhenotypePartyData& party,
    const SecureScanOptions& options) {
  const int64_t m = party.x.cols();
  const int64_t k = party.c.cols();
  const int64_t t_count = party.ys.cols();
  DASH_RETURN_IF_ERROR(ValidateMultiParty(
      party, static_cast<size_t>(transport->local_party()), m, k, t_count));
  SecureMultiPhenotypeOutput out;
  Phase2Body body;
  body.workload = SecureWorkload::kMultiPhenotypeScan;
  body.summand = [&](const Matrix& q_p, ThreadPool* pool) -> Result<Vector> {
    return MultiSummand(party.x, party.ys, q_p, pool);
  };
  body.finalize = [&](const Vector& total, int64_t n) -> Result<uint64_t> {
    DASH_ASSIGN_OR_RETURN(out.results, FinalizeAll(total, n, m, k, t_count));
    return WireChecksum(total);
  };
  DASH_ASSIGN_OR_RETURN(out.metrics,
                        RunPartyFrame(transport, party.c, options, body));
  return out;
}

Result<SecureMultiPhenotypeOutput> SecureMultiPhenotypeScan(
    const std::vector<MultiPhenotypePartyData>& parties,
    const SecureScanOptions& options) {
  if (parties.empty()) return InvalidArgumentError("no parties given");
  for (size_t p = 0; p < parties.size(); ++p) {
    DASH_RETURN_IF_ERROR(ValidateMultiParty(parties[p], p, parties[0].x.cols(),
                                            parties[0].c.cols(),
                                            parties[0].ys.cols()));
  }
  return SimulateWorkload(
      static_cast<int>(parties.size()), [&](int i, Transport* t) {
        return PartyMultiPhenotypeScan(t, parties[static_cast<size_t>(i)],
                                       options);
      });
}

}  // namespace dash
