#include "transport/tcp_transport.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "mpc/secure_sum.h"
#include "net/serialization.h"
#include "transport/cluster_config.h"
#include "transport/frame.h"
#include "util/fnv1a.h"

namespace dash {
namespace {

// Asks the kernel for free ephemeral ports. The sockets are closed
// before the transports bind, so a parallel process could in principle
// steal one, but loopback CI contention makes that vanishingly rare.
std::vector<uint16_t> FreePorts(int count) {
  std::vector<uint16_t> ports;
  std::vector<int> fds;
  for (int i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr),
                            &len),
              0);
    ports.push_back(ntohs(addr.sin_port));
    fds.push_back(fd);
  }
  for (const int fd : fds) ::close(fd);
  return ports;
}

ClusterConfig MakeCluster(const std::vector<uint16_t>& ports) {
  ClusterConfig cluster;
  for (const uint16_t port : ports) {
    cluster.endpoints.push_back({"127.0.0.1", port});
  }
  return cluster;
}

using TransportOrError = Result<std::unique_ptr<TcpTransport>>;

TEST(TcpTransportTest, TwoPartyRoundTrip) {
  const ClusterConfig cluster = MakeCluster(FreePorts(2));
  TcpTransportOptions options;
  options.connect_timeout_ms = 5000;

  std::unique_ptr<TcpTransport> t1;
  std::thread peer([&] {
    auto r = TcpTransport::Connect(cluster, 1, options);
    ASSERT_TRUE(r.ok()) << r.status();
    t1 = std::move(r).value();
  });
  auto r0 = TcpTransport::Connect(cluster, 0, options);
  peer.join();
  ASSERT_TRUE(r0.ok()) << r0.status();
  std::unique_ptr<TcpTransport> t0 = std::move(r0).value();

  EXPECT_EQ(t0->local_party(), 0);
  EXPECT_EQ(t1->local_party(), 1);

  ASSERT_TRUE(t0->Send(0, 1, MessageTag::kPlainStats, {1, 2, 3}).ok());
  ASSERT_TRUE(t1->Send(1, 0, MessageTag::kMaskedValue, {9}).ok());

  auto m1 = t1->Receive(1, 0, MessageTag::kPlainStats);
  ASSERT_TRUE(m1.ok()) << m1.status();
  EXPECT_EQ(m1->payload, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(m1->from, 0);
  EXPECT_EQ(m1->to, 1);

  auto m0 = t0->Receive(0, 1, MessageTag::kMaskedValue);
  ASSERT_TRUE(m0.ok()) << m0.status();
  EXPECT_EQ(m0->payload, (std::vector<uint8_t>{9}));

  // Logical metrics count WireSize at the sender, like the in-process
  // backend; physical counters include the 24-byte frame headers.
  EXPECT_EQ(t0->metrics().total_messages(), 1);
  EXPECT_EQ(t0->metrics().total_bytes(),
            static_cast<int64_t>(3 + Message::kHeaderBytes));
  EXPECT_EQ(t0->wire_stats().bytes_sent,
            static_cast<int64_t>(3 + kFrameHeaderBytes));
  EXPECT_EQ(t0->wire_stats().frames_sent, 1);
  EXPECT_EQ(t0->wire_stats().frames_received, 1);
}

TEST(TcpTransportTest, LargePayloadSurvivesFraming) {
  const ClusterConfig cluster = MakeCluster(FreePorts(2));
  TcpTransportOptions options;
  options.connect_timeout_ms = 5000;

  std::unique_ptr<TcpTransport> t1;
  std::thread peer([&] {
    auto r = TcpTransport::Connect(cluster, 1, options);
    ASSERT_TRUE(r.ok()) << r.status();
    t1 = std::move(r).value();
  });
  auto r0 = TcpTransport::Connect(cluster, 0, options);
  peer.join();
  ASSERT_TRUE(r0.ok()) << r0.status();
  std::unique_ptr<TcpTransport> t0 = std::move(r0).value();

  // > 1 MiB, larger than any kernel socket buffer default, so the send
  // is forced through the partial-write/drain path.
  std::vector<uint64_t> values(200'000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = 0x0123456789ABCDEFull ^ (static_cast<uint64_t>(i) * 0x9E37u);
  }
  ByteWriter w;
  w.PutU64Vector(values);
  const std::vector<uint8_t> payload = w.Take();
  ASSERT_GT(payload.size(), static_cast<size_t>(1) << 20);

  std::thread sender([&] {
    ASSERT_TRUE(t0->Send(0, 1, MessageTag::kAdditiveShare, payload).ok());
  });
  auto msg = t1->Receive(1, 0, MessageTag::kAdditiveShare);
  sender.join();
  ASSERT_TRUE(msg.ok()) << msg.status();
  ByteReader r(msg->payload);
  auto decoded = r.GetU64Vector();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), values);
}

TEST(TcpTransportTest, ToleratesAnyStartOrder) {
  const ClusterConfig cluster = MakeCluster(FreePorts(3));
  TcpTransportOptions options;
  options.connect_timeout_ms = 10000;
  options.backoff_initial_ms = 10;

  // Parties 1 and 2 dial party 0 long before it exists: their connects
  // fail and must retry with backoff until party 0's listener appears.
  std::vector<std::unique_ptr<TcpTransport>> transports(3);
  std::thread p1([&] {
    auto r = TcpTransport::Connect(cluster, 1, options);
    ASSERT_TRUE(r.ok()) << r.status();
    transports[1] = std::move(r).value();
  });
  std::thread p2([&] {
    auto r = TcpTransport::Connect(cluster, 2, options);
    ASSERT_TRUE(r.ok()) << r.status();
    transports[2] = std::move(r).value();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  auto r0 = TcpTransport::Connect(cluster, 0, options);
  p1.join();
  p2.join();
  ASSERT_TRUE(r0.ok()) << r0.status();
  transports[0] = std::move(r0).value();

  // Full-mesh sanity: everyone messages everyone.
  for (int from = 0; from < 3; ++from) {
    for (int to = 0; to < 3; ++to) {
      if (to == from) continue;
      ASSERT_TRUE(transports[static_cast<size_t>(from)]
                      ->Send(from, to, MessageTag::kPlainStats,
                             {static_cast<uint8_t>(from)})
                      .ok());
    }
  }
  for (int to = 0; to < 3; ++to) {
    for (int from = 0; from < 3; ++from) {
      if (to == from) continue;
      auto msg = transports[static_cast<size_t>(to)]->Receive(
          to, from, MessageTag::kPlainStats);
      ASSERT_TRUE(msg.ok()) << msg.status();
      EXPECT_EQ(msg->payload[0], static_cast<uint8_t>(from));
    }
  }
}

TEST(TcpTransportTest, AbsentPeerYieldsDeadlineExceeded) {
  const ClusterConfig cluster = MakeCluster(FreePorts(2));
  TcpTransportOptions options;
  options.connect_timeout_ms = 300;
  options.backoff_initial_ms = 10;

  // Party 1 dials party 0, which never starts.
  const auto dialer = TcpTransport::Connect(cluster, 1, options);
  ASSERT_FALSE(dialer.ok());
  EXPECT_EQ(dialer.status().code(), StatusCode::kDeadlineExceeded)
      << dialer.status();

  // Party 0 awaits party 1, which never dials.
  const auto acceptor = TcpTransport::Connect(cluster, 0, options);
  ASSERT_FALSE(acceptor.ok());
  EXPECT_EQ(acceptor.status().code(), StatusCode::kDeadlineExceeded)
      << acceptor.status();
}

TEST(TcpTransportTest, SurvivesPeerKilledMidHandshake) {
  const ClusterConfig cluster = MakeCluster(FreePorts(2));
  TcpTransportOptions options;
  options.connect_timeout_ms = 10000;
  options.backoff_initial_ms = 10;

  std::unique_ptr<TcpTransport> t0;
  std::thread acceptor([&] {
    auto r = TcpTransport::Connect(cluster, 0, options);
    ASSERT_TRUE(r.ok()) << r.status();
    t0 = std::move(r).value();
  });

  // A "party" that connects and dies before sending its hello — exactly
  // what a kill -9 mid-handshake looks like to the acceptor.
  {
    int stale = -1;
    for (int attempt = 0; attempt < 200 && stale < 0; ++attempt) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      struct sockaddr_in addr = {};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(cluster.endpoints[0].port);
      if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        stale = fd;
      } else {
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    ASSERT_GE(stale, 0) << "could not reach party 0's listener";
    ::close(stale);  // die without a hello
  }

  // The restarted real party 1 must still be admitted.
  auto r1 = TcpTransport::Connect(cluster, 1, options);
  acceptor.join();
  ASSERT_TRUE(r1.ok()) << r1.status();
  std::unique_ptr<TcpTransport> t1 = std::move(r1).value();

  ASSERT_TRUE(t1->Send(1, 0, MessageTag::kPlainStats, {7}).ok());
  auto msg = t0->Receive(0, 1, MessageTag::kPlainStats);
  ASSERT_TRUE(msg.ok()) << msg.status();
  EXPECT_EQ(msg->payload, (std::vector<uint8_t>{7}));
}

TEST(TcpTransportTest, ReceiveTimesOutCleanly) {
  const ClusterConfig cluster = MakeCluster(FreePorts(2));
  TcpTransportOptions options;
  options.connect_timeout_ms = 5000;
  options.receive_timeout_ms = 200;

  std::unique_ptr<TcpTransport> t1;
  std::thread peer([&] {
    auto r = TcpTransport::Connect(cluster, 1, options);
    ASSERT_TRUE(r.ok()) << r.status();
    t1 = std::move(r).value();
  });
  auto r0 = TcpTransport::Connect(cluster, 0, options);
  peer.join();
  ASSERT_TRUE(r0.ok()) << r0.status();

  const auto msg = r0.value()->Receive(0, 1, MessageTag::kPlainStats);
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kDeadlineExceeded)
      << msg.status();
}

TEST(TcpTransportTest, TagMismatchIsFailedPrecondition) {
  const ClusterConfig cluster = MakeCluster(FreePorts(2));
  TcpTransportOptions options;
  options.connect_timeout_ms = 5000;

  std::unique_ptr<TcpTransport> t1;
  std::thread peer([&] {
    auto r = TcpTransport::Connect(cluster, 1, options);
    ASSERT_TRUE(r.ok()) << r.status();
    t1 = std::move(r).value();
  });
  auto r0 = TcpTransport::Connect(cluster, 0, options);
  peer.join();
  ASSERT_TRUE(r0.ok()) << r0.status();

  ASSERT_TRUE(t1->Send(1, 0, MessageTag::kTreeR, {1}).ok());
  const auto msg = r0.value()->Receive(0, 1, MessageTag::kRFactor);
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TcpTransportTest, EnforcesPartyBinding) {
  const ClusterConfig cluster = MakeCluster(FreePorts(2));
  TcpTransportOptions options;
  options.connect_timeout_ms = 5000;
  options.receive_timeout_ms = 200;

  std::unique_ptr<TcpTransport> t1;
  std::thread peer([&] {
    auto r = TcpTransport::Connect(cluster, 1, options);
    ASSERT_TRUE(r.ok()) << r.status();
    t1 = std::move(r).value();
  });
  auto r0 = TcpTransport::Connect(cluster, 0, options);
  peer.join();
  ASSERT_TRUE(r0.ok()) << r0.status();
  std::unique_ptr<TcpTransport> t0 = std::move(r0).value();

  // A TCP endpoint can only speak and listen as itself.
  EXPECT_EQ(t0->Send(1, 0, MessageTag::kPlainStats, {1}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t0->Send(0, 0, MessageTag::kPlainStats, {1}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t0->Receive(1, 0, MessageTag::kPlainStats).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(t0->HasPending(1, 0));

  ASSERT_TRUE(t1->Send(1, 0, MessageTag::kPlainStats, {1}).ok());
  // Poll until the frame lands in party 0's inbox.
  bool pending = false;
  for (int i = 0; i < 100 && !pending; ++i) {
    pending = t0->HasPending(0, 1);
    if (!pending) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(pending);
}

TEST(TcpTransportTest, RejectsMismatchedClusterSizes) {
  const std::vector<uint16_t> ports = FreePorts(3);
  const ClusterConfig two = MakeCluster({ports[0], ports[1]});
  ClusterConfig three = MakeCluster(ports);
  TcpTransportOptions options;
  options.connect_timeout_ms = 2000;
  options.backoff_initial_ms = 10;

  // Party 1 believes the cluster has 3 parties; party 0 believes 2. The
  // hello exchange detects the disagreement instead of desyncing later.
  TransportOrError r1 = InvalidArgumentError("unset");
  std::thread peer([&] { r1 = TcpTransport::Connect(three, 1, options); });
  const auto r0 = TcpTransport::Connect(two, 0, options);
  peer.join();
  EXPECT_FALSE(r0.ok());
  EXPECT_FALSE(r1.ok());
}

TEST(TcpTransportTest, ConnectValidatesArguments) {
  const ClusterConfig cluster = MakeCluster(FreePorts(2));
  EXPECT_EQ(TcpTransport::Connect(cluster, -1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TcpTransport::Connect(cluster, 2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TcpTransport::Connect(ClusterConfig{}, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TcpTransportTest, SinglePartyClusterNeedsNoNetwork) {
  ClusterConfig cluster;
  cluster.endpoints.push_back({"127.0.0.1", 1});  // never dialed
  auto r = TcpTransport::Connect(cluster, 0);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value()->num_parties(), 1);
}

// FNV-1a of one received frame as it crossed the wire: the 24-byte
// header (its CRC recomputed over the payload, which the receiver has
// already verified against the transmitted one) followed by the payload.
uint64_t FrameDigest(const Message& msg) {
  FrameHeader header;
  header.session = msg.session;
  header.tag = static_cast<uint32_t>(msg.tag);
  header.from = msg.from;
  header.to = msg.to;
  header.payload_len = static_cast<uint32_t>(msg.payload.size());
  header.crc32 = Crc32(msg.payload.data(), msg.payload.size());
  std::vector<uint8_t> head;
  EncodeFrameHeader(header, &head);
  return Fnv1aBytes(msg.payload.data(), msg.payload.size(),
                    Fnv1aBytes(head.data(), head.size()));
}

// Forwards every call to a TcpTransport and digests each frame it
// receives, in receive order.
class DigestingTransport : public Transport {
 public:
  explicit DigestingTransport(TcpTransport* inner)
      : Transport(inner->num_parties()), inner_(inner) {}

  int local_party() const override { return inner_->local_party(); }
  Status Send(int from, int to, MessageTag tag,
              std::vector<uint8_t> payload) override {
    return inner_->Send(from, to, tag, std::move(payload));
  }
  Status Broadcast(int from, MessageTag tag,
                   const std::vector<uint8_t>& payload) override {
    return inner_->Broadcast(from, tag, payload);
  }
  Result<Message> Receive(int to, int from, MessageTag expected_tag) override {
    Result<Message> msg = inner_->Receive(to, from, expected_tag);
    if (msg.ok()) digests_.push_back(FrameDigest(msg.value()));
    return msg;
  }
  bool HasPending(int to, int from) override {
    return inner_->HasPending(to, from);
  }
  void BeginRound() override {
    Transport::BeginRound();
    inner_->BeginRound();
  }

  const std::vector<uint64_t>& digests() const { return digests_; }

 private:
  TcpTransport* const inner_;
  std::vector<uint64_t> digests_;
};

// The masked secure sum's wire transcript is pinned: three parties on
// loopback sum a fixed 10k-element vector with a fixed seed, and every
// frame each party receives (two key-agreement frames, then two masked
// vectors) hashes to the recorded constant, with the recorded physical
// byte counts. Any change to framing, CRC, serialization, fixed-point
// encoding or the mask stream fails here.
TEST(TcpTransportTest, MaskedSumTranscriptIsPinned) {
  constexpr int kParties = 3;
  constexpr size_t kLength = 10'000;
  const std::array<std::array<uint64_t, 4>, kParties> kDigests = {{
      {13320502520685976180ull, 12735918205324295763ull,
       17036068579023023717ull, 6007101253554389218ull},
      {12205811633743208556ull, 4637893820078191542ull,
       11273009938862401821ull, 17938164863706211267ull},
      {1839804214364384467ull, 7195730136512969574ull,
       7799406246619948478ull, 13673249664707409723ull},
  }};
  // Two key-agreement frames (24 + 8 bytes) and two masked vectors
  // (24 + 8 + 8 * 10000 bytes) each way.
  const int64_t kBytesSent = 160128;
  const int64_t kBytesReceived = 160128;

  const ClusterConfig cluster = MakeCluster(FreePorts(kParties));
  TcpTransportOptions options;
  options.connect_timeout_ms = 10000;
  SecureSumOptions sum_options;
  sum_options.mode = AggregationMode::kMasked;
  sum_options.seed = 0x7a11;

  std::vector<std::vector<uint64_t>> digests(kParties);
  std::vector<TcpWireStats> stats(kParties);
  std::vector<Vector> totals(kParties);
  std::vector<std::thread> threads;
  for (int i = 0; i < kParties; ++i) {
    threads.emplace_back([&, i] {
      const size_t me = static_cast<size_t>(i);
      auto tcp = TcpTransport::Connect(cluster, i, options);
      ASSERT_TRUE(tcp.ok()) << tcp.status();
      DigestingTransport t(tcp.value().get());
      Vector input(kLength);
      for (size_t e = 0; e < kLength; ++e) {
        input[e] = static_cast<double>(static_cast<int>(e % 97) - 48) * 0.125 +
                   static_cast<double>(i) * 1.5;
      }
      PartySecureVectorSum sum(&t, sum_options);
      auto total = sum.Run(Secret<Vector>(std::move(input)));
      ASSERT_TRUE(total.ok()) << total.status();
      totals[me] = std::move(total).value();
      digests[me] = t.digests();
      stats[me] = tcp.value()->wire_stats();
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kParties; ++i) {
    const size_t me = static_cast<size_t>(i);
    ASSERT_EQ(totals[me].size(), kLength);
    for (size_t e = 0; e < kLength; e += 1237) {
      EXPECT_EQ(totals[me][e],
                static_cast<double>(static_cast<int>(e % 97) - 48) * 0.375 +
                    4.5);
    }
    ASSERT_EQ(digests[me].size(), 4u) << "party " << i;
    for (size_t f = 0; f < 4; ++f) {
      EXPECT_EQ(digests[me][f], kDigests[me][f])
          << "party " << i << " frame " << f;
    }
    EXPECT_EQ(stats[me].bytes_sent, kBytesSent) << "party " << i;
    EXPECT_EQ(stats[me].bytes_received, kBytesReceived) << "party " << i;
    EXPECT_EQ(stats[me].frames_sent, 4) << "party " << i;
    EXPECT_EQ(stats[me].frames_received, 4) << "party " << i;
  }
}

}  // namespace
}  // namespace dash
