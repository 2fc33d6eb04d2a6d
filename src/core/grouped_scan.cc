#include "core/grouped_scan.h"

#include <cmath>
#include <limits>
#include <string>

#include "linalg/cholesky.h"
#include "linalg/qr.h"
#include "stats/distributions.h"
#include "transport/party_runner.h"

namespace dash {
namespace {

// Flat layout of the grouped sufficient statistics:
//   [yy | qty(K) | per group: Xgᵀy(T) | XgᵀXg(T*T) | QᵀXg(K*T)]
int64_t FlatLength(int64_t groups, int64_t t, int64_t k) {
  return 1 + k + groups * (t + t * t + k * t);
}

// One block's (party's) contribution, written into `flat`.
Vector ComputeGroupedFlat(const Matrix& x, int64_t t, const Vector& y,
                          const Matrix& q) {
  const int64_t n = x.rows();
  const int64_t k = q.cols();
  const int64_t groups = x.cols() / t;
  Vector flat(static_cast<size_t>(FlatLength(groups, t, k)), 0.0);
  flat[0] = SquaredNorm(y);
  const Vector qty = TransposeMatVec(q, y);
  for (int64_t kk = 0; kk < k; ++kk) flat[static_cast<size_t>(1 + kk)] = qty[static_cast<size_t>(kk)];

  const int64_t per_group = t + t * t + k * t;
  for (int64_t g = 0; g < groups; ++g) {
    const size_t base = static_cast<size_t>(1 + k + g * per_group);
    for (int64_t i = 0; i < n; ++i) {
      const double* xi = x.row_data(i) + g * t;
      const double yi = y[static_cast<size_t>(i)];
      const double* qi = q.row_data(i);
      for (int64_t a = 0; a < t; ++a) {
        const double va = xi[a];
        if (va == 0.0) continue;
        flat[base + static_cast<size_t>(a)] += va * yi;
        for (int64_t b = 0; b < t; ++b) {
          flat[base + static_cast<size_t>(t + a * t + b)] += va * xi[b];
        }
        for (int64_t kk = 0; kk < k; ++kk) {
          flat[base + static_cast<size_t>(t + t * t + kk * t + a)] +=
              va * qi[kk];
        }
      }
    }
  }
  return flat;
}

// Lemma-2.1-style finalization of the aggregated grouped statistics.
Result<GroupedScanResult> FinalizeGrouped(const Vector& flat, int64_t n,
                                          int64_t groups, int64_t t,
                                          int64_t k) {
  if (static_cast<int64_t>(flat.size()) != FlatLength(groups, t, k)) {
    return InternalError("grouped statistics have unexpected length");
  }
  const int64_t dof2 = n - k - t;
  if (dof2 <= 0) {
    return InvalidArgumentError("need N > K + T samples for the grouped scan");
  }

  Vector qty(static_cast<size_t>(k));
  for (int64_t kk = 0; kk < k; ++kk) qty[static_cast<size_t>(kk)] = flat[static_cast<size_t>(1 + kk)];
  const double yyq = flat[0] - SquaredNorm(qty);

  GroupedScanResult out;
  out.dof1 = t;
  out.dof2 = dof2;
  out.beta = Matrix(t, groups);
  out.se = Matrix(t, groups);
  out.fstat.assign(static_cast<size_t>(groups), 0.0);
  out.pval.assign(static_cast<size_t>(groups), 0.0);

  const double nan = std::nan("");
  const int64_t per_group = t + t * t + k * t;
  for (int64_t g = 0; g < groups; ++g) {
    const size_t base = static_cast<size_t>(1 + k + g * per_group);
    // Residualized right-hand side and Gram block.
    Vector b(static_cast<size_t>(t));
    Matrix gram(t, t);
    for (int64_t a = 0; a < t; ++a) {
      double qdot = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) {
        qdot += flat[base + static_cast<size_t>(t + t * t + kk * t + a)] *
                qty[static_cast<size_t>(kk)];
      }
      b[static_cast<size_t>(a)] = flat[base + static_cast<size_t>(a)] - qdot;
      for (int64_t c = 0; c < t; ++c) {
        double qq = 0.0;
        for (int64_t kk = 0; kk < k; ++kk) {
          qq += flat[base + static_cast<size_t>(t + t * t + kk * t + a)] *
                flat[base + static_cast<size_t>(t + t * t + kk * t + c)];
        }
        gram(a, c) = flat[base + static_cast<size_t>(t + a * t + c)] - qq;
      }
    }

    const auto mark_untestable = [&] {
      for (int64_t a = 0; a < t; ++a) {
        out.beta(a, g) = nan;
        out.se(a, g) = nan;
      }
      out.fstat[static_cast<size_t>(g)] = nan;
      out.pval[static_cast<size_t>(g)] = nan;
      ++out.num_untestable;
    };

    const auto chol = Cholesky(gram);
    if (!chol.ok()) {
      mark_untestable();
      continue;
    }
    const Matrix& l = chol.value();
    // B = G⁻¹ b via the factor; explained SS = bᵀB.
    const auto z = SolveLowerTriangular(l, b);
    if (!z.ok()) {
      mark_untestable();
      continue;
    }
    const auto beta_g = SolveUpperTriangular(Transpose(l), z.value());
    if (!beta_g.ok()) {
      mark_untestable();
      continue;
    }
    const double explained = Dot(b, beta_g.value());
    double rss = yyq - explained;
    if (rss < 0.0) rss = 0.0;
    const double sigma2 = rss / static_cast<double>(dof2);

    // diag(G⁻¹) from the inverse factor: (G⁻¹)_aa = Σ_r (L⁻¹)_{r a}².
    Matrix linv(t, t);
    bool ok = true;
    for (int64_t col = 0; col < t; ++col) {
      Vector e(static_cast<size_t>(t), 0.0);
      e[static_cast<size_t>(col)] = 1.0;
      const auto sol = SolveLowerTriangular(l, e);
      if (!sol.ok()) {
        ok = false;
        break;
      }
      for (int64_t r = 0; r < t; ++r) linv(r, col) = sol.value()[static_cast<size_t>(r)];
    }
    if (!ok) {
      mark_untestable();
      continue;
    }
    for (int64_t a = 0; a < t; ++a) {
      double inv_diag = 0.0;
      for (int64_t r = 0; r < t; ++r) inv_diag += linv(r, a) * linv(r, a);
      out.beta(a, g) = beta_g.value()[static_cast<size_t>(a)];
      out.se(a, g) = std::sqrt(sigma2 * inv_diag);
    }
    const double f =
        (sigma2 > 0.0)
            ? (explained / static_cast<double>(t)) / sigma2
            : std::numeric_limits<double>::infinity();
    out.fstat[static_cast<size_t>(g)] = f;
    out.pval[static_cast<size_t>(g)] =
        FSf(f, static_cast<double>(t), static_cast<double>(dof2));
  }
  return out;
}

Status ValidateGroupShape(int64_t cols, int64_t group_size) {
  if (group_size < 1) return InvalidArgumentError("group_size must be >= 1");
  if (cols == 0 || cols % group_size != 0) {
    return InvalidArgumentError(
        "x.cols()=" + std::to_string(cols) +
        " is not a positive multiple of group_size=" +
        std::to_string(group_size));
  }
  return Status::Ok();
}

}  // namespace

Result<GroupedScanResult> GroupedScan(const Matrix& x, int64_t group_size,
                                      const Vector& y, const Matrix& c,
                                      const ScanOptions& /*options*/) {
  DASH_RETURN_IF_ERROR(ValidateGroupShape(x.cols(), group_size));
  if (x.rows() != static_cast<int64_t>(y.size()) || c.rows() != x.rows()) {
    return InvalidArgumentError("x, y, c disagree on sample count");
  }
  Matrix q(x.rows(), 0);
  if (c.cols() > 0) {
    DASH_ASSIGN_OR_RETURN(QrDecomposition qr, ThinQr(c));
    q = std::move(qr.q);
  }
  const Vector flat = ComputeGroupedFlat(x, group_size, y, q);
  return FinalizeGrouped(flat, x.rows(), x.cols() / group_size, group_size,
                         c.cols());
}

Result<SecureGroupedScanOutput> PartyGroupedScan(
    Transport* transport, const PartyData& party, int64_t group_size,
    const SecureScanOptions& options) {
  DASH_RETURN_IF_ERROR(ValidateParties({&party, 1}));
  DASH_RETURN_IF_ERROR(ValidateGroupShape(party.x.cols(), group_size));
  SecureGroupedScanOutput out;
  Phase2Body body;
  body.workload = SecureWorkload::kGroupedScan;
  body.summand = [&](const Matrix& q_p, ThreadPool*) -> Result<Vector> {
    return ComputeGroupedFlat(party.x, group_size, party.y, q_p);
  };
  body.finalize = [&](const Vector& total, int64_t n) -> Result<uint64_t> {
    DASH_ASSIGN_OR_RETURN(out.result,
                          FinalizeGrouped(total, n, party.x.cols() / group_size,
                                          group_size, party.c.cols()));
    return WireChecksum(total);
  };
  DASH_ASSIGN_OR_RETURN(out.metrics,
                        RunPartyFrame(transport, party.c, options, body));
  return out;
}

Result<SecureGroupedScanOutput> SecureGroupedScan(
    const std::vector<PartyData>& parties, int64_t group_size,
    const SecureScanOptions& options) {
  DASH_RETURN_IF_ERROR(ValidateParties(parties));
  DASH_RETURN_IF_ERROR(ValidateGroupShape(parties[0].x.cols(), group_size));
  return SimulateWorkload(
      static_cast<int>(parties.size()), [&](int i, Transport* t) {
        return PartyGroupedScan(t, parties[static_cast<size_t>(i)], group_size,
                                options);
      });
}

Result<Matrix> WithInteractionTerms(const Matrix& x, const Vector& e) {
  if (static_cast<int64_t>(e.size()) != x.rows()) {
    return InvalidArgumentError("environment vector must match sample count");
  }
  Matrix out(x.rows(), 2 * x.cols());
  for (int64_t i = 0; i < x.rows(); ++i) {
    const double ei = e[static_cast<size_t>(i)];
    for (int64_t j = 0; j < x.cols(); ++j) {
      out(i, 2 * j) = x(i, j);
      out(i, 2 * j + 1) = x(i, j) * ei;
    }
  }
  return out;
}

}  // namespace dash
