#include "core/compressed_study.h"

#include <algorithm>
#include <string>
#include <utility>

#include "linalg/cholesky.h"
#include "linalg/qr.h"
#include "transport/party_runner.h"

namespace dash {

CompressedStudy CompressedStudy::FromBlock(const Matrix& x, const Matrix& ys,
                                           const Matrix& c) {
  CompressedStudy s;
  s.n_ = x.rows();
  s.m_ = x.cols();
  s.k_ = c.cols();
  s.t_ = ys.cols();
  s.yty_ = TransposeMatMul(ys, ys);
  s.cty_ = TransposeMatMul(c, ys);
  s.ctc_ = TransposeMatMul(c, c);
  s.xty_ = TransposeMatMul(x, ys);
  s.xx_ = Matrix(s.m_, 1);
  for (int64_t i = 0; i < x.rows(); ++i) {
    const double* row = x.row_data(i);
    for (int64_t j = 0; j < s.m_; ++j) s.xx_.data()[j] += row[j] * row[j];
  }
  s.ctx_ = TransposeMatMul(c, x);
  return s;
}

Result<CompressedStudy> CompressedStudy::Compress(const Matrix& x,
                                                  const Matrix& ys,
                                                  const Matrix& c) {
  if (x.rows() != ys.rows() || c.rows() != x.rows()) {
    return InvalidArgumentError("x, ys, c disagree on sample count");
  }
  if (ys.cols() < 1) return InvalidArgumentError("need at least one phenotype");
  return FromBlock(x, ys, c);
}

Result<CompressedStudy::SecureOutput> CompressedStudy::SecureCompress(
    const std::vector<MultiPhenotypePartyData>& parties,
    const SecureScanOptions& options) {
  if (parties.empty()) return InvalidArgumentError("no parties given");
  const int64_t m = parties[0].x.cols();
  const int64_t k = parties[0].c.cols();
  const int64_t t = parties[0].ys.cols();
  std::vector<CompressedStudy> locals;
  for (size_t p = 0; p < parties.size(); ++p) {
    const auto& pd = parties[p];
    if (pd.x.cols() != m || pd.c.cols() != k || pd.ys.cols() != t ||
        pd.ys.rows() != pd.x.rows() || pd.c.rows() != pd.x.rows()) {
      return InvalidArgumentError("party " + std::to_string(p) +
                                  " has inconsistent shapes");
    }
    locals.push_back(FromBlock(pd.x, pd.ys, pd.c));
  }
  return SecureAggregate(locals, options);
}

Result<CompressedStudy::SecureOutput> CompressedStudy::SecureAggregate(
    const std::vector<CompressedStudy>& locals,
    const SecureScanOptions& options) {
  if (locals.empty()) return InvalidArgumentError("no parties given");
  const int64_t m = locals[0].m_;
  const int64_t k = locals[0].k_;
  const int64_t t = locals[0].t_;
  for (size_t p = 0; p < locals.size(); ++p) {
    if (locals[p].m_ != m || locals[p].k_ != k || locals[p].t_ != t) {
      return InvalidArgumentError("party " + std::to_string(p) +
                                  " accumulator has inconsistent shape");
    }
  }
  return SimulateWorkload(
      static_cast<int>(locals.size()), [&](int i, Transport* transport) {
        return PartySecureAggregate(transport, locals[static_cast<size_t>(i)],
                                    options);
      });
}

Result<CompressedStudy::SecureOutput> CompressedStudy::PartySecureAggregate(
    Transport* transport, const CompressedStudy& local,
    const SecureScanOptions& options) {
  SecureOutput out;
  Phase2Body body;
  body.workload = SecureWorkload::kCompressedStudy;
  body.summand = [&](const Matrix&, ThreadPool*) -> Result<Vector> {
    Vector flat;
    for (const Matrix* b : Blocks(local)) {
      flat.insert(flat.end(), b->data(), b->data() + b->size());
    }
    return flat;
  };
  body.finalize = [&](const Vector& total, int64_t n) -> Result<uint64_t> {
    // The pooled study has the local accumulator's shapes.
    out.study = local;
    out.study.n_ = n;
    int64_t pos = 0;
    for (Matrix* b : Blocks(out.study)) {
      if (pos + b->size() > static_cast<int64_t>(total.size())) {
        return InternalError("compressed statistics have unexpected length");
      }
      std::copy_n(total.begin() + pos, b->size(), b->data());
      pos += b->size();
    }
    return WireChecksum(total);
  };
  // No permanent covariates: the frame runs Phase 0 only.
  DASH_ASSIGN_OR_RETURN(
      out.metrics,
      RunPartyFrame(transport, Matrix(local.n_, 0), options, body));
  return out;
}

Result<ScanResult> CompressedStudy::Scan(
    int64_t phenotype, const std::vector<int64_t>& covariate_subset) const {
  if (phenotype < 0 || phenotype >= t_) {
    return OutOfRangeError("phenotype index out of range");
  }
  std::vector<int64_t> subset = covariate_subset;
  std::sort(subset.begin(), subset.end());
  for (size_t i = 0; i < subset.size(); ++i) {
    if (subset[i] < 0 || subset[i] >= k_) {
      return OutOfRangeError("covariate index " + std::to_string(subset[i]) +
                             " out of range");
    }
    if (i > 0 && subset[i] == subset[i - 1]) {
      return InvalidArgumentError("duplicate covariate index");
    }
  }
  const int64_t ks = static_cast<int64_t>(subset.size());

  // X.y for this phenotype is a strided column of XᵀY, so it is
  // gathered; X.X is read in place.
  Vector xy(static_cast<size_t>(m_));
  for (int64_t j = 0; j < m_; ++j) xy[static_cast<size_t>(j)] = xty_(j, phenotype);
  Vector qtx_qty(static_cast<size_t>(m_), 0.0);
  Vector qtx_qtx(static_cast<size_t>(m_), 0.0);
  ProjectedSufficientStats stats;
  stats.num_samples = n_;
  stats.num_covariates = ks;
  stats.yy = yty_(phenotype, phenotype);
  stats.xy = xy;
  stats.xx = std::span<const double>(xx_.data(), static_cast<size_t>(m_));
  stats.qtx_qty = qtx_qty;
  stats.qtx_qtx = qtx_qtx;
  if (ks == 0) return FinalizeScanProjected(stats);

  // Selected Gram block and cross-products.
  Matrix gram(ks, ks);
  Vector cy(static_cast<size_t>(ks));
  Matrix cx(ks, m_);
  for (int64_t a = 0; a < ks; ++a) {
    const int64_t sa = subset[static_cast<size_t>(a)];
    cy[static_cast<size_t>(a)] = cty_(sa, phenotype);
    for (int64_t b = 0; b < ks; ++b) {
      gram(a, b) = ctc_(sa, subset[static_cast<size_t>(b)]);
    }
    for (int64_t j = 0; j < m_; ++j) cx(a, j) = ctx_(sa, j);
  }
  DASH_ASSIGN_OR_RETURN(Matrix l, Cholesky(gram));
  // Qᵀ· = L⁻¹ Cᵀ· over the selected block.
  DASH_ASSIGN_OR_RETURN(Vector qty, SolveLowerTriangular(l, cy));
  stats.qty_qty = SquaredNorm(qty);
  Vector col(static_cast<size_t>(ks));
  for (int64_t j = 0; j < m_; ++j) {
    for (int64_t a = 0; a < ks; ++a) col[static_cast<size_t>(a)] = cx(a, j);
    DASH_ASSIGN_OR_RETURN(Vector q, SolveLowerTriangular(l, col));
    qtx_qty[static_cast<size_t>(j)] = Dot(q, qty);
    qtx_qtx[static_cast<size_t>(j)] = SquaredNorm(q);
  }
  return FinalizeScanProjected(stats);
}

Result<ScanResult> CompressedStudy::ScanAllCovariates(int64_t phenotype) const {
  std::vector<int64_t> all(static_cast<size_t>(k_));
  for (int64_t i = 0; i < k_; ++i) all[static_cast<size_t>(i)] = i;
  return Scan(phenotype, all);
}

Status CompressedStudy::Merge(const CompressedStudy& other) {
  if (other.m_ != m_ || other.k_ != k_ || other.t_ != t_) {
    return InvalidArgumentError("cannot merge studies with different shapes");
  }
  n_ += other.n_;
  const auto mine = Blocks(*this);
  const auto theirs = Blocks(other);
  for (size_t b = 0; b < mine.size(); ++b) {
    *mine[b] = MatAdd(*mine[b], *theirs[b]);
  }
  return Status::Ok();
}

}  // namespace dash
