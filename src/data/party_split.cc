#include "data/party_split.h"

#include <string>

namespace dash {

Status ValidateParties(std::span<const PartyData> parties) {
  if (parties.empty()) return InvalidArgumentError("no parties given");
  const int64_t m = parties[0].x.cols();
  // K = 0 is permitted: the per-party-centering mode absorbs the
  // intercept(s) into preprocessing, leaving no explicit covariates.
  const int64_t k = parties[0].c.cols();
  for (size_t p = 0; p < parties.size(); ++p) {
    const PartyData& pd = parties[p];
    const std::string who = "party " + std::to_string(p);
    if (pd.x.cols() != m) {
      return InvalidArgumentError(who + " has " + std::to_string(pd.x.cols()) +
                                  " transient covariates; expected " +
                                  std::to_string(m));
    }
    if (pd.c.cols() != k) {
      return InvalidArgumentError(who + " has " + std::to_string(pd.c.cols()) +
                                  " permanent covariates; expected " +
                                  std::to_string(k));
    }
    const int64_t n = pd.num_samples();
    if (pd.x.rows() != n || pd.c.rows() != n) {
      return InvalidArgumentError(who + " has inconsistent row counts");
    }
    if (n < k) {
      return InvalidArgumentError(
          who + " has fewer samples (" + std::to_string(n) +
          ") than permanent covariates (" + std::to_string(k) +
          "); its local QR would be rank deficient");
    }
  }
  return Status::Ok();
}

Result<std::vector<PartyData>> SplitRows(const Matrix& x, const Vector& y,
                                         const Matrix& c,
                                         const std::vector<int64_t>& counts) {
  const int64_t n = x.rows();
  if (static_cast<int64_t>(y.size()) != n || c.rows() != n) {
    return InvalidArgumentError("x, y, c disagree on sample count");
  }
  int64_t total = 0;
  for (const int64_t cnt : counts) {
    if (cnt < 0) return InvalidArgumentError("negative party size");
    total += cnt;
  }
  if (total != n) {
    return InvalidArgumentError("party sizes sum to " + std::to_string(total) +
                                " but there are " + std::to_string(n) +
                                " samples");
  }
  std::vector<PartyData> parties;
  parties.reserve(counts.size());
  int64_t row = 0;
  for (const int64_t cnt : counts) {
    PartyData pd;
    pd.x = SliceRows(x, row, row + cnt);
    pd.c = SliceRows(c, row, row + cnt);
    pd.y.assign(y.begin() + row, y.begin() + row + cnt);
    parties.push_back(std::move(pd));
    row += cnt;
  }
  return parties;
}

Result<PooledData> PoolParties(const std::vector<PartyData>& parties) {
  DASH_RETURN_IF_ERROR(ValidateParties(parties));
  std::vector<Matrix> xs;
  std::vector<Matrix> cs;
  PooledData pooled;
  for (const auto& p : parties) {
    xs.push_back(p.x);
    cs.push_back(p.c);
    pooled.y.insert(pooled.y.end(), p.y.begin(), p.y.end());
  }
  pooled.x = VStack(xs);
  pooled.c = VStack(cs);
  return pooled;
}

void CenterPerParty(std::vector<PartyData>* parties) {
  for (auto& p : *parties) {
    CenterInPlace(&p.y);
    CenterColumnsInPlace(&p.c);
    CenterColumnsInPlace(&p.x);
  }
}

}  // namespace dash
