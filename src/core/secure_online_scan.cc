#include "core/secure_online_scan.h"

#include <string>
#include <utility>

#include "util/check.h"

namespace dash {

SecureOnlineScan::SecureOnlineScan(int num_parties, int64_t num_variants,
                                   int64_t num_covariates,
                                   const SecureScanOptions& options)
    : num_variants_(num_variants), num_covariates_(num_covariates),
      options_(options),
      has_data_(static_cast<size_t>(num_parties), false) {
  DASH_CHECK_GE(num_parties, 1);
  DASH_CHECK_GE(num_variants, 1);
  DASH_CHECK_GE(num_covariates, 0);
  // Seed each accumulator with an empty block of the right shape.
  const Matrix empty_x(0, num_variants);
  const Matrix empty_y(0, 1);
  const Matrix empty_c(0, num_covariates);
  for (int p = 0; p < num_parties; ++p) {
    accumulators_.push_back(
        CompressedStudy::Compress(empty_x, empty_y, empty_c).value());
  }
}

Status SecureOnlineScan::AddBatch(int party, const Matrix& x, const Vector& y,
                                  const Matrix& c) {
  if (party < 0 || party >= num_parties()) {
    return InvalidArgumentError("party index out of range");
  }
  if (x.rows() != static_cast<int64_t>(y.size()) || c.rows() != x.rows()) {
    return InvalidArgumentError("batch x, y, c disagree on sample count");
  }
  if (x.cols() != num_variants_ || c.cols() != num_covariates_) {
    return InvalidArgumentError(
        "batch shape (M=" + std::to_string(x.cols()) + ", K=" +
        std::to_string(c.cols()) + ") does not match the study (M=" +
        std::to_string(num_variants_) + ", K=" +
        std::to_string(num_covariates_) + ")");
  }
  DASH_ASSIGN_OR_RETURN(
      CompressedStudy block,
      CompressedStudy::Compress(x, Matrix::ColumnVector(y), c));
  DASH_RETURN_IF_ERROR(
      accumulators_[static_cast<size_t>(party)].Merge(block));
  has_data_[static_cast<size_t>(party)] = true;
  ++batches_;
  return Status::Ok();
}

int64_t SecureOnlineScan::samples_seen() const {
  int64_t n = 0;
  for (const auto& acc : accumulators_) n += acc.num_samples();
  return n;
}

Result<SecureScanOutput> SecureOnlineScan::Finalize() const {
  if (samples_seen() <= num_covariates_ + 1) {
    return FailedPreconditionError(
        "need N > K + 1 accumulated samples before finalizing (have " +
        std::to_string(samples_seen()) + ")");
  }
  DASH_ASSIGN_OR_RETURN(
      CompressedStudy::SecureOutput aggregated,
      CompressedStudy::SecureAggregate(accumulators_, options_));
  SecureScanOutput out;
  DASH_ASSIGN_OR_RETURN(out.result, aggregated.study.ScanAllCovariates(0));
  out.metrics = aggregated.metrics;
  return out;
}

}  // namespace dash
