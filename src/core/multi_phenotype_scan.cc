#include "core/multi_phenotype_scan.h"

#include <memory>
#include <span>
#include <string>
#include <utility>

#include "linalg/qr.h"
#include "mpc/secure_sum.h"
#include "transport/inprocess_mesh.h"
#include "transport/party_runner.h"
#include "util/thread_pool.h"

namespace dash {
namespace {

// Phenotype-side statistics for one block: for each phenotype t, the
// scalar y_t.y_t, the K-vector Qᵀy_t, and the M-vector X.y_t. The
// X-side statistics (X.X, QᵀX) come from one summand arena and are
// shared across phenotypes.
struct PhenotypeSideStats {
  Vector yy;    // length T
  Matrix qty;   // K x T
  Matrix xy;    // M x T
};

PhenotypeSideStats ComputePhenotypeSide(const Matrix& x, const Matrix& ys,
                                        const Matrix& q) {
  PhenotypeSideStats s;
  const int64_t t_count = ys.cols();
  s.yy.assign(static_cast<size_t>(t_count), 0.0);
  for (int64_t t = 0; t < t_count; ++t) {
    double acc = 0.0;
    for (int64_t i = 0; i < ys.rows(); ++i) acc += ys(i, t) * ys(i, t);
    s.yy[static_cast<size_t>(t)] = acc;
  }
  s.qty = TransposeMatMul(q, ys);   // K x T
  s.xy = TransposeMatMul(x, ys);    // M x T
  return s;
}

// A summand arena against a zero phenotype: only its X-side blocks
// (xx, qtx) carry information.
Vector XSideArena(const Matrix& x, const Matrix& q, ThreadPool* pool) {
  const Vector zero_y(static_cast<size_t>(x.rows()), 0.0);
  return ComputeLocalStatsFlat(x, zero_y, q, pool);
}

// Flat layout: [T, then per t: yy | qty(K) | xy(M)] ++ [xx(M) | qtx(K*M)],
// the X-side block being the contiguous [xx | qtx] tail of `x_arena`.
Vector FlattenMulti(const PhenotypeSideStats& ps, const Vector& x_arena) {
  const int64_t t_count = static_cast<int64_t>(ps.yy.size());
  const int64_t k = ps.qty.rows();
  const int64_t m = ps.xy.rows();
  Vector flat;
  flat.reserve(static_cast<size_t>(t_count * (1 + k + m) + m + k * m));
  for (int64_t t = 0; t < t_count; ++t) {
    flat.push_back(ps.yy[static_cast<size_t>(t)]);
    for (int64_t kk = 0; kk < k; ++kk) flat.push_back(ps.qty(kk, t));
    for (int64_t j = 0; j < m; ++j) flat.push_back(ps.xy(j, t));
  }
  const StatsWireLayout layout{m, k};
  flat.insert(flat.end(), x_arena.begin() + layout.xx_offset(),
              x_arena.end());
  return flat;
}

Status ValidateMultiParties(
    const std::vector<MultiPhenotypePartyData>& parties) {
  if (parties.empty()) return InvalidArgumentError("no parties given");
  const int64_t m = parties[0].x.cols();
  const int64_t k = parties[0].c.cols();
  const int64_t t_count = parties[0].ys.cols();
  if (t_count < 1) return InvalidArgumentError("need at least one phenotype");
  for (size_t p = 0; p < parties.size(); ++p) {
    const auto& pd = parties[p];
    if (pd.x.cols() != m || pd.c.cols() != k || pd.ys.cols() != t_count ||
        pd.ys.rows() != pd.x.rows() || pd.c.rows() != pd.x.rows()) {
      return InvalidArgumentError("party " + std::to_string(p) +
                                  " has inconsistent shapes");
    }
    if (pd.x.rows() < k) {
      return InvalidArgumentError("party " + std::to_string(p) +
                                  " has fewer samples than covariates");
    }
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

// One party's side of the secure scan: Phases 0-1, then one secure-sum
// aggregation covering every phenotype.
Result<std::vector<ScanResult>> PartyMultiPhenotypeScan(
    Transport* transport, const MultiPhenotypePartyData& party,
    const SecureScanOptions& options) {
  DASH_ASSIGN_OR_RETURN(PartyBasis basis,
                        RunPartyPhase1(transport, party.c, options.r_combine));
  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.num_threads);
  }
  const Vector x_arena = XSideArena(party.x, basis.q_p, pool.get());
  const PhenotypeSideStats ps = ComputePhenotypeSide(party.x, party.ys,
                                                     basis.q_p);
  SecureSumOptions sum_options;
  sum_options.mode = options.aggregation;
  sum_options.frac_bits = options.frac_bits;
  sum_options.seed = options.seed;
  PartySecureVectorSum secure_sum(transport, sum_options);
  DASH_ASSIGN_OR_RETURN(Vector flat_totals,
                        secure_sum.Run(Secret<Vector>(
                            FlattenMulti(ps, x_arena))));
  return FinalizeAll(flat_totals, basis.total_samples, party.x.cols(),
                     party.c.cols(), party.ys.cols());
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
  const PhenotypeSideStats ps = ComputePhenotypeSide(x, ys, q);
  const Vector flat = FlattenMulti(ps, XSideArena(x, q, pool.get()));
  return FinalizeAll(flat, x.rows(), x.cols(), c.cols(), ys.cols());
}

Result<SecureMultiPhenotypeOutput> SecureMultiPhenotypeScan(
    const std::vector<MultiPhenotypePartyData>& parties,
    const SecureScanOptions& options) {
  DASH_RETURN_IF_ERROR(ValidateMultiParties(parties));
  InProcessMesh mesh(static_cast<int>(parties.size()));
  SecureMultiPhenotypeOutput out;
  DASH_ASSIGN_OR_RETURN(
      out.results, SimulateParties(&mesh, [&](int i, Transport* t) {
        return PartyMultiPhenotypeScan(t, parties[static_cast<size_t>(i)],
                                       options);
      }));
  out.metrics = MetricsFromTraffic(mesh.metrics());
  return out;
}

}  // namespace dash
