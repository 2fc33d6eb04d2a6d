// Protocol transcript recording.

#include "net/trace.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "core/secure_scan.h"
#include "data/workloads.h"
#include "mpc/secure_sum.h"
#include "transport/inprocess_mesh.h"
#include "util/csv.h"

namespace dash {
namespace {

TEST(ProtocolTraceTest, RecordsMessageMetadata) {
  InProcessMesh net(3);
  ProtocolTrace trace;
  net.AttachTrace(&trace);
  net.endpoint(0)->BeginRound();
  ASSERT_TRUE(net.endpoint(0)->Send(0, 1, MessageTag::kRFactor, {1, 2, 3}).ok());
  net.endpoint(1)->BeginRound();
  net.endpoint(1)->BeginRound();
  ASSERT_TRUE(net.endpoint(1)->Broadcast(1, MessageTag::kPartialSum, {9}).ok());

  ASSERT_EQ(trace.size(), 3);
  const TraceEvent& first = trace.events()[0];
  EXPECT_EQ(first.sequence, 0);
  EXPECT_EQ(first.round, 1);
  EXPECT_EQ(first.from, 0);
  EXPECT_EQ(first.to, 1);
  EXPECT_EQ(first.tag, MessageTag::kRFactor);
  EXPECT_EQ(first.wire_bytes,
            3 + static_cast<int64_t>(Message::kHeaderBytes));
  EXPECT_EQ(trace.events()[1].round, 2);
  EXPECT_EQ(trace.CountTag(MessageTag::kPartialSum), 2);
  EXPECT_EQ(trace.CountTag(MessageTag::kShamirShare), 0);
}

TEST(ProtocolTraceTest, DetachAndClear) {
  InProcessMesh net(2);
  ProtocolTrace trace;
  net.AttachTrace(&trace);
  ASSERT_TRUE(net.endpoint(0)->Send(0, 1, MessageTag::kPlainStats, {}).ok());
  net.AttachTrace(nullptr);
  ASSERT_TRUE(net.endpoint(0)->Send(0, 1, MessageTag::kPlainStats, {}).ok());
  EXPECT_EQ(trace.size(), 1);
  trace.Clear();
  EXPECT_EQ(trace.size(), 0);
}

TEST(ProtocolTraceTest, CapturesWholeSecureSumTranscript) {
  InProcessMesh net(3);
  ProtocolTrace trace;
  net.AttachTrace(&trace);
  SecureSumOptions opts;
  opts.mode = AggregationMode::kAdditive;
  SecureVectorSum sum(&net, opts);
  (void)sum.Run(ToSecretInputs({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}})).value();
  // Additive: 6 share messages + 6 partial broadcasts.
  EXPECT_EQ(trace.CountTag(MessageTag::kAdditiveShare), 6);
  EXPECT_EQ(trace.CountTag(MessageTag::kPartialSum), 6);
  EXPECT_EQ(trace.size(), 12);
  // Transcript totals agree with the network's own accounting.
  int64_t traced_bytes = 0;
  for (const auto& e : trace.events()) traced_bytes += e.wire_bytes;
  EXPECT_EQ(traced_bytes, net.metrics().total_bytes());

  const std::string summary = trace.Summary();
  EXPECT_NE(summary.find("AdditiveShare"), std::string::npos);
  EXPECT_NE(summary.find("PartialSum"), std::string::npos);
}

TEST(ProtocolTraceTest, WritesParsableCsv) {
  InProcessMesh net(2);
  ProtocolTrace trace;
  net.AttachTrace(&trace);
  ASSERT_TRUE(net.endpoint(0)->Send(0, 1, MessageTag::kMaskedValue, {1, 2}).ok());
  const std::string path = testing::TempDir() + "/trace.csv";
  ASSERT_TRUE(trace.WriteCsv(path).ok());
  const CsvTable table = CsvTable::ReadFile(path).value();
  ASSERT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.rows()[0][4], "MaskedValue");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dash
