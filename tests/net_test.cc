#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "net/abort.h"
#include "net/message.h"
#include "net/serialization.h"
#include "transport/inprocess_mesh.h"

namespace dash {
namespace {

TEST(SerializationTest, ScalarRoundTrips) {
  ByteWriter w;
  w.PutU32(0xdeadbeefu);
  w.PutU64(0x0123456789abcdefULL);
  w.PutI64(-42);
  w.PutDouble(3.25);
  const auto bytes = w.Take();
  EXPECT_EQ(bytes.size(), 4u + 8u + 8u + 8u);

  ByteReader r(bytes);
  EXPECT_EQ(r.GetU32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.GetU64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.GetI64().value(), -42);
  EXPECT_DOUBLE_EQ(r.GetDouble().value(), 3.25);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializationTest, VectorsRoundTrip) {
  ByteWriter w;
  w.PutU64Vector({1, 2, 3});
  w.PutDoubleVector({-1.5, 2.5});
  const auto bytes = w.Take();
  ByteReader r(bytes);
  EXPECT_EQ(r.GetU64Vector().value(), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(r.GetDoubleVector().value(), (Vector{-1.5, 2.5}));
}

// The vector forms' wire bytes, pinned: a little-endian u64 count, then
// each element's little-endian 8 bytes (a double's IEEE-754 bits).
TEST(SerializationTest, VectorWireBytesArePinned) {
  ByteWriter w;
  w.PutU64Vector({0x0102030405060708ull, 0xFFFFFFFFFFFFFFFEull});
  w.PutDoubleVector({1.0, -2.5});
  w.PutMatrix(Matrix{{0.5}});
  const std::vector<uint8_t> expected = {
      2,    0,    0,    0,    0,    0,    0,    0,     // count 2
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  //
      0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  //
      2,    0,    0,    0,    0,    0,    0,    0,     // count 2
      0,    0,    0,    0,    0,    0,    0xF0, 0x3F,  // 1.0
      0,    0,    0,    0,    0,    0,    0x04, 0xC0,  // -2.5
      1,    0,    0,    0,    0,    0,    0,    0,     // rows 1
      1,    0,    0,    0,    0,    0,    0,    0,     // cols 1
      0,    0,    0,    0,    0,    0,    0xE0, 0x3F,  // 0.5
  };
  const std::vector<uint8_t> bytes = w.Take();
  EXPECT_EQ(bytes, expected);

  ByteReader r(expected);
  EXPECT_EQ(r.GetU64Vector().value(),
            (std::vector<uint64_t>{0x0102030405060708ull,
                                   0xFFFFFFFFFFFFFFFEull}));
  EXPECT_EQ(r.GetDoubleVector().value(), (Vector{1.0, -2.5}));
  const Matrix m = r.GetMatrix().value();
  EXPECT_EQ(m.rows(), 1);
  EXPECT_EQ(m.cols(), 1);
  EXPECT_EQ(m(0, 0), 0.5);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializationTest, MatrixRoundTrips) {
  const Matrix m = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  ByteWriter w;
  w.PutMatrix(m);
  const auto bytes = w.Take();
  ByteReader r(bytes);
  EXPECT_TRUE(r.GetMatrix().value() == m);
}

TEST(SerializationTest, SpecialDoublesSurvive) {
  ByteWriter w;
  w.PutDouble(-0.0);
  w.PutDouble(std::numeric_limits<double>::infinity());
  w.PutDouble(std::numeric_limits<double>::denorm_min());
  const auto bytes = w.Take();
  ByteReader r(bytes);
  EXPECT_EQ(std::signbit(r.GetDouble().value()), true);
  EXPECT_TRUE(std::isinf(r.GetDouble().value()));
  EXPECT_DOUBLE_EQ(r.GetDouble().value(),
                   std::numeric_limits<double>::denorm_min());
}

TEST(SerializationTest, TruncationIsAnError) {
  ByteWriter w;
  w.PutU64(7);
  auto bytes = w.Take();
  bytes.pop_back();
  ByteReader r(bytes);
  EXPECT_EQ(r.GetU64().status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializationTest, TruncatedVectorIsAnError) {
  ByteWriter w;
  w.PutU64(1000);  // claims 1000 elements, provides none
  const auto bytes = w.Take();
  ByteReader r(bytes);
  EXPECT_FALSE(r.GetU64Vector().ok());
  ByteWriter w2;
  w2.PutI64(1 << 20);
  w2.PutI64(1 << 20);  // absurd matrix shape
  const auto bytes2 = w2.Take();
  ByteReader r2(bytes2);
  EXPECT_FALSE(r2.GetMatrix().ok());
}

TEST(InProcessMeshTest, SendReceiveFifoOrder) {
  InProcessMesh mesh(3);
  Transport* p0 = mesh.endpoint(0);
  Transport* p1 = mesh.endpoint(1);
  EXPECT_EQ(p0->local_party(), 0);
  EXPECT_EQ(p1->local_party(), 1);
  ASSERT_TRUE(p0->Send(0, 1, MessageTag::kPlainStats, {1}).ok());
  ASSERT_TRUE(p0->Send(0, 1, MessageTag::kPlainStats, {2}).ok());
  const Message first = p1->Receive(1, 0, MessageTag::kPlainStats).value();
  const Message second = p1->Receive(1, 0, MessageTag::kPlainStats).value();
  EXPECT_EQ(first.payload[0], 1);
  EXPECT_EQ(second.payload[0], 2);
  EXPECT_EQ(first.from, 0);
  EXPECT_EQ(first.to, 1);
}

TEST(InProcessMeshTest, ReceiveBlocksUntilThePeerSends) {
  InProcessMesh mesh(2);
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(
        mesh.endpoint(0)->Send(0, 1, MessageTag::kPlainStats, {7}).ok());
  });
  const auto got = mesh.endpoint(1)->Receive(1, 0, MessageTag::kPlainStats);
  sender.join();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->payload[0], 7);
}

TEST(InProcessMeshTest, DepartedPeerIsUnavailableButItsMessagesArrive) {
  InProcessMesh mesh(2);
  ASSERT_TRUE(mesh.endpoint(1)->Send(1, 0, MessageTag::kPlainStats, {3}).ok());
  mesh.Leave(1);
  // Sent before leaving: still delivered (a closed socket's last bytes).
  EXPECT_TRUE(mesh.endpoint(0)->Receive(0, 1, MessageTag::kPlainStats).ok());
  EXPECT_EQ(mesh.endpoint(0)->Receive(0, 1, MessageTag::kPlainStats)
                .status()
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(
      mesh.endpoint(0)->Send(0, 1, MessageTag::kPlainStats, {}).code(),
      StatusCode::kUnavailable);
}

TEST(InProcessMeshTest, PeerAbortIsLatchedWithTheOriginatorsCode) {
  InProcessMesh mesh(3);
  AbortInfo info;
  info.origin = 2;
  info.round = 4;
  info.code = StatusCode::kDataLoss;
  info.message = "frame CRC mismatch";
  ASSERT_TRUE(mesh.endpoint(2)
                  ->Send(2, 0, MessageTag::kAbort, EncodeAbortPayload(info))
                  .ok());
  // Party 0 waits on party 1, but the abort from party 2 wins.
  const auto got = mesh.endpoint(0)->Receive(0, 1, MessageTag::kPlainStats);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(IsAbortStatus(got.status()));
}

TEST(InProcessMeshTest, TagMismatchIsProtocolDesync) {
  InProcessMesh mesh(2);
  ASSERT_TRUE(mesh.endpoint(0)->Send(0, 1, MessageTag::kRFactor, {}).ok());
  const auto r = mesh.endpoint(1)->Receive(1, 0, MessageTag::kPlainStats);
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(InProcessMeshTest, EndpointsArePartyBound) {
  InProcessMesh mesh(2);
  Transport* p0 = mesh.endpoint(0);
  EXPECT_FALSE(p0->Send(0, 0, MessageTag::kPlainStats, {}).ok());
  EXPECT_FALSE(p0->Send(0, 5, MessageTag::kPlainStats, {}).ok());
  EXPECT_FALSE(p0->Send(1, 0, MessageTag::kPlainStats, {}).ok());
  EXPECT_FALSE(p0->Receive(1, 0, MessageTag::kPlainStats).ok());
  EXPECT_FALSE(p0->Receive(0, 9, MessageTag::kPlainStats).ok());
}

TEST(InProcessMeshTest, BroadcastReachesEveryoneElse) {
  InProcessMesh mesh(4);
  ASSERT_TRUE(mesh.endpoint(2)->Broadcast(2, MessageTag::kAggregate, {9}).ok());
  for (int to = 0; to < 4; ++to) {
    Transport* t = mesh.endpoint(to);
    if (to == 2) {
      EXPECT_FALSE(t->HasPending(to, 2));
    } else {
      ASSERT_TRUE(t->HasPending(to, 2));
      EXPECT_EQ(t->Receive(to, 2, MessageTag::kAggregate).value().payload[0],
                9);
    }
  }
}

TEST(InProcessMeshTest, MetricsAreTheUnionOfSenderLedgers) {
  InProcessMesh mesh(3);
  const std::vector<uint8_t> payload(100, 0);
  ASSERT_TRUE(
      mesh.endpoint(0)->Send(0, 1, MessageTag::kPlainStats, payload).ok());
  const int64_t per_msg = 100 + static_cast<int64_t>(Message::kHeaderBytes);
  EXPECT_EQ(mesh.endpoint(0)->metrics().total_bytes(), per_msg);
  EXPECT_EQ(mesh.metrics().total_bytes(), per_msg);
  EXPECT_EQ(mesh.metrics().total_messages(), 1);
  EXPECT_EQ(mesh.metrics().LinkBytes(0, 1), per_msg);
  EXPECT_EQ(mesh.metrics().LinkBytes(1, 0), 0);

  ASSERT_TRUE(
      mesh.endpoint(1)->Broadcast(1, MessageTag::kPlainStats, payload).ok());
  EXPECT_EQ(mesh.endpoint(1)->metrics().total_messages(), 2);
  EXPECT_EQ(mesh.metrics().total_messages(), 3);
  EXPECT_EQ(mesh.metrics().BytesSentBy(1), 2 * per_msg);
  EXPECT_EQ(mesh.metrics().MaxLinkBytes(), per_msg);

  // Parties share a round schedule: the union keeps the run's count.
  for (int p = 0; p < 3; ++p) mesh.endpoint(p)->BeginRound();
  EXPECT_EQ(mesh.metrics().rounds(), 1);
  mesh.endpoint(0)->metrics().Reset();
  EXPECT_EQ(mesh.metrics().total_bytes(), 2 * per_msg);
}

TEST(InProcessMeshTest, RunPerPartyRunsEveryPartyConcurrently) {
  InProcessMesh mesh(4);
  // Every party broadcasts, then sums what it received: a pattern that
  // deadlocks unless all parties run at once.
  const auto sums = RunPerParty(&mesh, [](int i, Transport* t) -> int {
    if (!t->Broadcast(i, MessageTag::kAggregate,
                      {static_cast<uint8_t>(i + 1)})
             .ok()) {
      return -1;
    }
    int sum = i + 1;
    for (int q = 0; q < t->num_parties(); ++q) {
      if (q == i) continue;
      const auto msg = t->Receive(i, q, MessageTag::kAggregate);
      if (!msg.ok()) return -1;
      sum += msg->payload[0];
    }
    return sum;
  });
  ASSERT_EQ(sums.size(), 4u);
  for (const int s : sums) EXPECT_EQ(s, 1 + 2 + 3 + 4);
}

TEST(InProcessMeshTest, CostModelCombinesRoundsAndBytes) {
  InProcessMesh mesh(2);
  ASSERT_TRUE(mesh.endpoint(0)
                  ->Send(0, 1, MessageTag::kPlainStats,
                         std::vector<uint8_t>(84, 0))
                  .ok());  // 100 wire bytes
  mesh.endpoint(0)->BeginRound();
  mesh.endpoint(0)->BeginRound();
  LinkCostModel model;
  model.latency_seconds = 0.05;
  model.bandwidth_bytes_per_second = 1000.0;
  EXPECT_NEAR(model.EstimateSeconds(mesh.metrics()), 2 * 0.05 + 0.1, 1e-12);
}

TEST(MessageTest, TagNamesAreStable) {
  EXPECT_STREQ(MessageTagName(MessageTag::kRFactor), "RFactor");
  EXPECT_STREQ(MessageTagName(MessageTag::kShamirShare), "ShamirShare");
}

}  // namespace
}  // namespace dash
