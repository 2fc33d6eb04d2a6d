#include "core/distributed_qr.h"

#include <gtest/gtest.h>

#include "core/party_local.h"
#include "data/genotype_generator.h"
#include "linalg/qr.h"
#include "transport/inprocess_mesh.h"
#include "util/random.h"

namespace dash {
namespace {

std::vector<PartyData> MakeParties(const std::vector<int64_t>& sizes,
                                   int64_t k, uint64_t seed) {
  Rng rng(seed);
  std::vector<PartyData> parties;
  for (const int64_t n : sizes) {
    PartyData pd;
    pd.c = GaussianMatrix(n, k, &rng);
    pd.x = Matrix(n, 1);
    pd.y = Vector(static_cast<size_t>(n), 0.0);
    parties.push_back(std::move(pd));
  }
  return parties;
}

class DistributedQrModeTest : public testing::TestWithParam<RCombineMode> {};

TEST_P(DistributedQrModeTest, MatchesPooledFactorization) {
  const auto parties = MakeParties({12, 20, 9, 15}, 3, 1);
  std::vector<Matrix> local_r;
  std::vector<Matrix> blocks;
  for (const auto& p : parties) {
    local_r.push_back(PartyLocalRFactor(p).value());
    blocks.push_back(p.c);
  }
  InProcessMesh net(4);
  const DistributedQrResult result =
      CombineRFactorsOverNetwork(&net, local_r, GetParam()).value();
  const Matrix pooled_r = QrRFactor(VStack(blocks)).value();
  EXPECT_LT(MaxAbsDiff(result.r, pooled_r), 1e-11);
  EXPECT_LT(MaxAbsDiff(MatMul(result.r, result.r_inverse),
                       Matrix::Identity(3)),
            1e-11);
}

TEST_P(DistributedQrModeTest, PartyLocalQsAssembleGlobalBasis) {
  const auto parties = MakeParties({8, 30, 14}, 2, 2);
  std::vector<Matrix> local_r;
  for (const auto& p : parties) local_r.push_back(PartyLocalRFactor(p).value());
  InProcessMesh net(3);
  const DistributedQrResult result =
      CombineRFactorsOverNetwork(&net, local_r, GetParam()).value();
  std::vector<Matrix> qs;
  for (const auto& p : parties) qs.push_back(PartyLocalQ(p, result.r_inverse));
  const Matrix q = VStack(qs);
  EXPECT_LT(MaxAbsDiff(TransposeMatMul(q, q), Matrix::Identity(2)), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Modes, DistributedQrModeTest,
                         testing::Values(RCombineMode::kBroadcastStack,
                                         RCombineMode::kBinaryTree));

TEST(DistributedQrTest, TreeUsesLogRounds) {
  for (const int p : {2, 3, 4, 8, 13}) {
    std::vector<int64_t> sizes(static_cast<size_t>(p), 10);
    const auto parties = MakeParties(sizes, 2, 50 + static_cast<uint64_t>(p));
    std::vector<Matrix> local_r;
    for (const auto& pd : parties) {
      local_r.push_back(PartyLocalRFactor(pd).value());
    }
    InProcessMesh net(p);
    const DistributedQrResult result =
        CombineRFactorsOverNetwork(&net, local_r, RCombineMode::kBinaryTree)
            .value();
    int expected = 0;
    int cover = 1;
    while (cover < p) {
      cover *= 2;
      ++expected;
    }
    EXPECT_EQ(result.rounds, expected + 1) << "P=" << p;  // +1 final broadcast
  }
}

TEST(DistributedQrTest, TreeMovesFewerBytesThanBroadcastForManyParties) {
  const int p = 16;
  std::vector<int64_t> sizes(p, 8);
  const auto parties = MakeParties(sizes, 4, 3);
  std::vector<Matrix> local_r;
  for (const auto& pd : parties) local_r.push_back(PartyLocalRFactor(pd).value());

  InProcessMesh broadcast_net(p);
  (void)CombineRFactorsOverNetwork(&broadcast_net, local_r,
                                   RCombineMode::kBroadcastStack)
      .value();
  InProcessMesh tree_net(p);
  (void)CombineRFactorsOverNetwork(&tree_net, local_r,
                                   RCombineMode::kBinaryTree)
      .value();
  // Broadcast: P(P-1) R messages; tree: (P-1) merges + (P-1) broadcast.
  EXPECT_LT(tree_net.metrics().total_bytes(),
            broadcast_net.metrics().total_bytes());
}

TEST(DistributedQrTest, RBytesAreIndependentOfSampleCounts) {
  const auto small = MakeParties({5, 6, 7}, 3, 4);
  const auto large = MakeParties({500, 600, 700}, 3, 5);
  int64_t bytes_small = 0;
  int64_t bytes_large = 0;
  {
    std::vector<Matrix> rs;
    for (const auto& pd : small) rs.push_back(PartyLocalRFactor(pd).value());
    InProcessMesh net(3);
    (void)CombineRFactorsOverNetwork(&net, rs, RCombineMode::kBroadcastStack)
        .value();
    bytes_small = net.metrics().total_bytes();
  }
  {
    std::vector<Matrix> rs;
    for (const auto& pd : large) rs.push_back(PartyLocalRFactor(pd).value());
    InProcessMesh net(3);
    (void)CombineRFactorsOverNetwork(&net, rs, RCombineMode::kBroadcastStack)
        .value();
    bytes_large = net.metrics().total_bytes();
  }
  EXPECT_EQ(bytes_small, bytes_large);
}

TEST(DistributedQrTest, SinglePartySkipsTheNetwork) {
  const auto parties = MakeParties({25}, 3, 6);
  InProcessMesh net(1);
  const DistributedQrResult result =
      CombineRFactorsOverNetwork(&net, {PartyLocalRFactor(parties[0]).value()},
                                 RCombineMode::kBroadcastStack)
          .value();
  EXPECT_EQ(net.metrics().total_bytes(), 0);
  EXPECT_LT(MaxAbsDiff(result.r, QrRFactor(parties[0].c).value()), 1e-13);
}

TEST(DistributedQrTest, Validation) {
  InProcessMesh net(2);
  EXPECT_FALSE(
      CombineRFactorsOverNetwork(&net, {Matrix(2, 2)},
                                 RCombineMode::kBroadcastStack)
          .ok());  // one factor for two parties
  EXPECT_FALSE(CombineRFactorsOverNetwork(&net, {Matrix(2, 2), Matrix(3, 3)},
                                          RCombineMode::kBinaryTree)
                   .ok());
}

TEST(DistributedQrTest, RFactorDisclosureIsTiny) {
  // The paper's point: R_p is K x K regardless of N_p.
  const auto parties = MakeParties({100000 / 100, 7}, 4, 7);
  const Matrix r_big = PartyLocalRFactor(parties[0]).value();
  const Matrix r_small = PartyLocalRFactor(parties[1]).value();
  EXPECT_EQ(r_big.rows(), 4);
  EXPECT_EQ(r_big.cols(), 4);
  EXPECT_EQ(r_small.rows(), 4);
}

}  // namespace
}  // namespace dash
