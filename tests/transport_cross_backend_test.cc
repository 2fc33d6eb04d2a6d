// The load-bearing guarantee of the transport subsystem: running the
// scan as P separate TCP endpoints (one thread each here; one process
// each in deployment) produces the SAME bits as the in-process
// simulation — results, per-link traffic, and trace.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "core/compressed_study.h"
#include "core/grouped_scan.h"
#include "core/imputation.h"
#include "core/multi_phenotype_scan.h"
#include "core/secure_scan.h"
#include "data/workloads.h"
#include "transport/inprocess_mesh.h"
#include "net/trace.h"
#include "transport/cluster_config.h"
#include "transport/party_runner.h"
#include "transport/tcp_transport.h"

namespace dash {
namespace {

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

ScanWorkload SmallWorkload() {
  GwasWorkloadOptions options;
  options.party_sizes = {40, 60, 50};
  options.num_variants = 25;
  options.num_covariates = 3;
  options.num_causal = 2;
  options.seed = 7;
  auto workload = MakeGwasWorkload(options);
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload).value();
}

// Bitwise vector equality: NaN == NaN, -0.0 != 0.0. Anything weaker
// would hide order-dependent floating-point drift between the backends.
void ExpectBitIdentical(const Vector& a, const Vector& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t bits_a, bits_b;
    std::memcpy(&bits_a, &a[i], sizeof(bits_a));
    std::memcpy(&bits_b, &b[i], sizeof(bits_b));
    EXPECT_EQ(bits_a, bits_b) << what << "[" << i << "]: " << a[i]
                              << " vs " << b[i];
  }
}

// (round, from, to, tag, wire_bytes) — the sequence number is dropped
// because per-party traces interleave differently than the global one.
using EventKey = std::tuple<int, int, int, uint32_t, int64_t>;

std::vector<EventKey> EventMultiset(const std::vector<TraceEvent>& events) {
  std::vector<EventKey> keys;
  keys.reserve(events.size());
  for (const auto& e : events) {
    keys.emplace_back(e.round, e.from, e.to, static_cast<uint32_t>(e.tag),
                      e.wire_bytes);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

struct PartyRun {
  Result<SecureScanOutput> output = InvalidArgumentError("did not run");
  ProtocolTrace trace;
  int64_t sent_bytes = 0;
};

void RunBothBackends(const SecureScanOptions& base_options) {
  ScanWorkload workload = SmallWorkload();
  if (base_options.center_per_party) {
    // Centering absorbs the intercept; drop the workload's intercept
    // column (column 0 of C) as a real deployment would.
    for (auto& party : workload.parties) {
      Matrix c(party.c.rows(), party.c.cols() - 1);
      for (int64_t r = 0; r < c.rows(); ++r) {
        for (int64_t j = 0; j < c.cols(); ++j) c(r, j) = party.c(r, j + 1);
      }
      party.c = std::move(c);
    }
  }
  const int p = static_cast<int>(workload.parties.size());

  // In-process reference, with a trace on the shared transport.
  ProtocolTrace global_trace;
  SecureScanOptions inproc_options = base_options;
  inproc_options.trace = &global_trace;
  const auto reference =
      SecureAssociationScan(inproc_options).Run(workload.parties);
  ASSERT_TRUE(reference.ok()) << reference.status();

  // TCP deployment: one endpoint per thread, each tracing its own sends.
  ClusterConfig cluster;
  for (const uint16_t port : FreePorts(p)) {
    cluster.endpoints.push_back({"127.0.0.1", port});
  }
  TcpTransportOptions tcp_options;
  tcp_options.connect_timeout_ms = 10000;
  std::vector<PartyRun> runs(static_cast<size_t>(p));
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < p; ++i) {
      threads.emplace_back([&, i] {
        auto transport = TcpTransport::Connect(cluster, i, tcp_options);
        if (!transport.ok()) {
          runs[static_cast<size_t>(i)].output = transport.status();
          return;
        }
        SecureScanOptions options = base_options;
        options.trace = &runs[static_cast<size_t>(i)].trace;
        runs[static_cast<size_t>(i)].output = RunPartySecureScan(
            transport.value().get(),
            workload.parties[static_cast<size_t>(i)], options);
        runs[static_cast<size_t>(i)].sent_bytes =
            transport.value()->metrics().total_bytes();
      });
    }
    for (auto& t : threads) t.join();
  }

  const ScanResult& expected = reference->result;
  for (int i = 0; i < p; ++i) {
    const PartyRun& run = runs[static_cast<size_t>(i)];
    ASSERT_TRUE(run.output.ok()) << "party " << i << ": "
                                 << run.output.status();
    const ScanResult& got = run.output->result;
    ExpectBitIdentical(got.beta, expected.beta, "beta");
    ExpectBitIdentical(got.se, expected.se, "se");
    ExpectBitIdentical(got.tstat, expected.tstat, "tstat");
    ExpectBitIdentical(got.pval, expected.pval, "pval");
    EXPECT_EQ(got.dof, expected.dof);
    EXPECT_EQ(got.num_untestable, expected.num_untestable);

    // Every party walks the same round schedule as the simulator.
    EXPECT_EQ(run.output->metrics.rounds, reference->metrics.rounds)
        << "party " << i;
  }

  // The union of the per-party traces is exactly the in-process trace.
  std::vector<TraceEvent> merged;
  int64_t tcp_total_bytes = 0;
  for (const auto& run : runs) {
    merged.insert(merged.end(), run.trace.events().begin(),
                  run.trace.events().end());
    tcp_total_bytes += run.output->metrics.total_bytes;
  }
  EXPECT_EQ(EventMultiset(merged), EventMultiset(global_trace.events()));
  EXPECT_EQ(tcp_total_bytes, reference->metrics.total_bytes);
}

TEST(CrossBackendTest, PublicShareBroadcastStack) {
  SecureScanOptions options;
  options.aggregation = AggregationMode::kPublicShare;
  options.r_combine = RCombineMode::kBroadcastStack;
  RunBothBackends(options);
}

TEST(CrossBackendTest, AdditiveBroadcastStack) {
  SecureScanOptions options;
  options.aggregation = AggregationMode::kAdditive;
  options.r_combine = RCombineMode::kBroadcastStack;
  RunBothBackends(options);
}

TEST(CrossBackendTest, MaskedBroadcastStack) {
  SecureScanOptions options;
  options.aggregation = AggregationMode::kMasked;
  options.r_combine = RCombineMode::kBroadcastStack;
  RunBothBackends(options);
}

TEST(CrossBackendTest, MaskedBinaryTree) {
  SecureScanOptions options;
  options.aggregation = AggregationMode::kMasked;
  options.r_combine = RCombineMode::kBinaryTree;
  RunBothBackends(options);
}

TEST(CrossBackendTest, ShamirBroadcastStack) {
  SecureScanOptions options;
  options.aggregation = AggregationMode::kShamir;
  options.r_combine = RCombineMode::kBroadcastStack;
  RunBothBackends(options);
}

TEST(CrossBackendTest, CenteredAdditiveBinaryTree) {
  SecureScanOptions options;
  options.aggregation = AggregationMode::kAdditive;
  options.r_combine = RCombineMode::kBinaryTree;
  options.center_per_party = true;
  RunBothBackends(options);
}

TEST(CrossBackendTest, PerPartyMetricsMatchInProcessLedger) {
  const ScanWorkload workload = SmallWorkload();
  const int p = static_cast<int>(workload.parties.size());
  SecureScanOptions options;
  options.aggregation = AggregationMode::kMasked;

  // In-process per-sender ledger.
  InProcessMesh reference_net(p);
  const auto reference =
      SecureAssociationScan(options).Run(workload.parties, &reference_net);
  ASSERT_TRUE(reference.ok()) << reference.status();

  ClusterConfig cluster;
  for (const uint16_t port : FreePorts(p)) {
    cluster.endpoints.push_back({"127.0.0.1", port});
  }
  TcpTransportOptions tcp_options;
  tcp_options.connect_timeout_ms = 10000;
  std::vector<int64_t> sent(static_cast<size_t>(p), -1);
  std::vector<std::thread> threads;
  for (int i = 0; i < p; ++i) {
    threads.emplace_back([&, i] {
      auto transport = TcpTransport::Connect(cluster, i, tcp_options);
      ASSERT_TRUE(transport.ok()) << transport.status();
      const auto out = RunPartySecureScan(
          transport.value().get(), workload.parties[static_cast<size_t>(i)],
          options);
      ASSERT_TRUE(out.ok()) << out.status();
      sent[static_cast<size_t>(i)] = transport.value()->metrics().total_bytes();
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < p; ++i) {
    EXPECT_EQ(sent[static_cast<size_t>(i)],
              reference_net.metrics().BytesSentBy(i))
        << "party " << i;
  }
}

// The §5 workloads' per-party entry points run over any Transport: one
// after another over one TCP mesh, they reveal the simulators' results
// bit for bit, and each reports only its own traffic: every party walks
// its simulator's round count, and the parties' bytes and messages add
// up to the simulator's whole-run ledger.
TEST(CrossBackendTest, SectionFiveWorkloadsOverTcpMatchTheSimulators) {
  const ScanWorkload workload = SmallWorkload();
  const int p = static_cast<int>(workload.parties.size());
  SecureScanOptions options;
  options.aggregation = AggregationMode::kMasked;
  std::vector<MultiPhenotypePartyData> multi;
  std::vector<CompressedStudy> compressed;
  for (const PartyData& party : workload.parties) {
    Matrix ys(party.x.rows(), 2);
    for (int64_t i = 0; i < ys.rows(); ++i) {
      ys(i, 0) = party.y[static_cast<size_t>(i)];
      ys(i, 1) = 0.5 * party.y[static_cast<size_t>(i)] + party.x(i, 0);
    }
    multi.push_back({party.x, ys, party.c});
    compressed.push_back(CompressedStudy::Compress(party.x, ys, party.c).value());
  }
  const auto grouped_ref = SecureGroupedScan(workload.parties, 5, options);
  const auto multi_ref = SecureMultiPhenotypeScan(multi, options);
  std::vector<PartyData> imputed = workload.parties;
  const auto impute_ref = SecureMeanImpute(&imputed, options);
  const auto compressed_ref = CompressedStudy::SecureAggregate(compressed,
                                                               options);
  ASSERT_TRUE(grouped_ref.ok()) << grouped_ref.status();
  ASSERT_TRUE(multi_ref.ok()) << multi_ref.status();
  ASSERT_TRUE(impute_ref.ok()) << impute_ref.status();
  ASSERT_TRUE(compressed_ref.ok()) << compressed_ref.status();

  ClusterConfig cluster;
  for (const uint16_t port : FreePorts(p)) {
    cluster.endpoints.push_back({"127.0.0.1", port});
  }
  TcpTransportOptions tcp_options;
  tcp_options.connect_timeout_ms = 10000;
  // metrics[w][i]: party i's report for workload w, in run order.
  constexpr size_t kWorkloads = 4;
  std::vector<std::vector<SecureScanMetrics>> metrics(
      kWorkloads, std::vector<SecureScanMetrics>(static_cast<size_t>(p)));
  std::vector<std::thread> threads;
  for (int i = 0; i < p; ++i) {
    threads.emplace_back([&, i] {
      const size_t me = static_cast<size_t>(i);
      auto transport = TcpTransport::Connect(cluster, i, tcp_options);
      ASSERT_TRUE(transport.ok()) << transport.status();
      Transport* t = transport.value().get();

      const auto grouped = PartyGroupedScan(t, workload.parties[me], 5, options);
      ASSERT_TRUE(grouped.ok()) << grouped.status();
      metrics[0][me] = grouped->metrics;
      ExpectBitIdentical(grouped->result.fstat, grouped_ref->result.fstat,
                         "grouped fstat");
      ExpectBitIdentical(grouped->result.pval, grouped_ref->result.pval,
                         "grouped pval");

      const auto phenotypes = PartyMultiPhenotypeScan(t, multi[me], options);
      ASSERT_TRUE(phenotypes.ok()) << phenotypes.status();
      metrics[1][me] = phenotypes->metrics;
      ASSERT_EQ(phenotypes->results.size(), 2u);
      for (size_t k = 0; k < 2; ++k) {
        EXPECT_EQ(ScanResultChecksum(phenotypes->results[k]),
                  ScanResultChecksum(multi_ref->results[k]))
            << "phenotype " << k;
      }

      PartyData mine = workload.parties[me];
      const auto impute = PartyMeanImpute(t, &mine, options);
      ASSERT_TRUE(impute.ok()) << impute.status();
      metrics[2][me] = impute->metrics;
      ExpectBitIdentical(impute->means, impute_ref->means, "means");
      ExpectBitIdentical(impute->call_rates, impute_ref->call_rates,
                         "call rates");

      const auto study =
          CompressedStudy::PartySecureAggregate(t, compressed[me], options);
      ASSERT_TRUE(study.ok()) << study.status();
      metrics[3][me] = study->metrics;
      EXPECT_EQ(ScanResultChecksum(study->study.ScanAllCovariates(1).value()),
                ScanResultChecksum(
                    compressed_ref->study.ScanAllCovariates(1).value()));
    });
  }
  for (auto& t : threads) t.join();

  const std::array<const SecureScanMetrics*, kWorkloads> simulated = {
      &grouped_ref->metrics, &multi_ref->metrics, &impute_ref->metrics,
      &compressed_ref->metrics};
  const std::array<const char*, kWorkloads> names = {
      "grouped", "multi-phenotype", "imputation", "compressed study"};
  for (size_t w = 0; w < kWorkloads; ++w) {
    int64_t bytes = 0;
    int64_t messages = 0;
    for (int i = 0; i < p; ++i) {
      const SecureScanMetrics& m = metrics[w][static_cast<size_t>(i)];
      EXPECT_EQ(m.rounds, simulated[w]->rounds)
          << names[w] << ", party " << i;
      bytes += m.total_bytes;
      messages += m.total_messages;
    }
    EXPECT_GT(bytes, 0) << names[w];
    EXPECT_EQ(bytes, simulated[w]->total_bytes) << names[w];
    EXPECT_EQ(messages, simulated[w]->total_messages) << names[w];
  }
}

// The Beaver projection needs dealt triples: the simulator deals them,
// a bare per-party run (no dealer, as over TCP) refuses before any
// traffic.
TEST(CrossBackendTest, PartyRunnerRejectsBeaverWithoutDealer) {
  InProcessMesh mesh(1);
  const ScanWorkload workload = SmallWorkload();
  SecureScanOptions options;
  options.projection = ProjectionSecurity::kBeaverDotProducts;
  const auto out =
      RunPartySecureScan(mesh.endpoint(0), workload.parties[0], options);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnimplemented);
}

TEST(CrossBackendTest, SimulatorRejectsMeshOfTheWrongSize) {
  InProcessMesh mesh(2);
  const ScanWorkload workload = SmallWorkload();
  const auto out = SecureAssociationScan().Run(workload.parties, &mesh);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dash
