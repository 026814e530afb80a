// Unit tests for the prof module: timeline recording, summaries,
// chrome-trace export, bottleneck analysis, utilization.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "prof/bottleneck.hpp"
#include "prof/chrome_trace.hpp"
#include "prof/report.hpp"
#include "prof/trace.hpp"

namespace prof = sagesim::prof;

namespace {

prof::TraceEvent kernel_event(const std::string& name, double start,
                              double dur, double flops, double bytes,
                              int device = 0) {
  prof::TraceEvent e;
  e.name = name;
  e.kind = prof::EventKind::kKernel;
  e.start_s = start;
  e.duration_s = dur;
  e.device = device;
  e.counters["flops"] = flops;
  e.counters["bytes"] = bytes;
  return e;
}

}  // namespace

TEST(Timeline, StartsEmpty) {
  prof::Timeline tl;
  EXPECT_TRUE(tl.empty());
  EXPECT_EQ(tl.size(), 0u);
  EXPECT_DOUBLE_EQ(tl.span_end_s(), 0.0);
}

TEST(Timeline, RecordsAndSnapshots) {
  prof::Timeline tl;
  tl.record(kernel_event("k1", 0.0, 1.0, 100, 10));
  tl.record(kernel_event("k2", 1.0, 2.0, 200, 20));
  EXPECT_EQ(tl.size(), 2u);
  const auto snap = tl.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "k1");
  EXPECT_DOUBLE_EQ(snap[1].end_s(), 3.0);
}

TEST(Timeline, FiltersByKind) {
  prof::Timeline tl;
  tl.record(kernel_event("k", 0, 1, 0, 0));
  tl.marker("m", 0.5);
  EXPECT_EQ(tl.snapshot(prof::EventKind::kKernel).size(), 1u);
  EXPECT_EQ(tl.snapshot(prof::EventKind::kMarker).size(), 1u);
  EXPECT_EQ(tl.snapshot(prof::EventKind::kMemcpyH2D).size(), 0u);
}

TEST(Timeline, TotalTimeSumsPerKind) {
  prof::Timeline tl;
  tl.record(kernel_event("a", 0, 1.5, 0, 0));
  tl.record(kernel_event("b", 2, 0.5, 0, 0));
  EXPECT_DOUBLE_EQ(tl.total_time(prof::EventKind::kKernel), 2.0);
  EXPECT_DOUBLE_EQ(tl.total_time(prof::EventKind::kApi), 0.0);
}

TEST(Timeline, SummarizeAggregatesByName) {
  prof::Timeline tl;
  tl.record(kernel_event("gemm", 0, 1.0, 100, 10));
  tl.record(kernel_event("gemm", 1, 3.0, 300, 30));
  tl.record(kernel_event("copy", 4, 0.5, 0, 5));
  const auto summary = tl.summarize();
  ASSERT_EQ(summary.size(), 2u);
  EXPECT_EQ(summary[0].name, "gemm");  // sorted by total time desc
  EXPECT_EQ(summary[0].count, 2u);
  EXPECT_DOUBLE_EQ(summary[0].total_s, 4.0);
  EXPECT_DOUBLE_EQ(summary[0].min_s, 1.0);
  EXPECT_DOUBLE_EQ(summary[0].max_s, 3.0);
  EXPECT_DOUBLE_EQ(summary[0].total_flops, 400.0);
  EXPECT_DOUBLE_EQ(summary[0].total_bytes, 40.0);
}

TEST(Timeline, SpanEndIsLatestEvent) {
  prof::Timeline tl;
  tl.record(kernel_event("a", 0, 1, 0, 0));
  tl.record(kernel_event("b", 0.2, 5, 0, 0));
  EXPECT_DOUBLE_EQ(tl.span_end_s(), 5.2);
}

TEST(Timeline, ClearEmpties) {
  prof::Timeline tl;
  tl.record(kernel_event("a", 0, 1, 0, 0));
  tl.clear();
  EXPECT_TRUE(tl.empty());
}

TEST(Timeline, ConcurrentRecordingIsSafe) {
  prof::Timeline tl;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&tl, t] {
      for (int i = 0; i < 250; ++i)
        tl.record(kernel_event("t" + std::to_string(t), i, 0.001, 1, 1));
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(tl.size(), 1000u);
}

TEST(ChromeTrace, ProducesValidishJson) {
  prof::Timeline tl;
  tl.record(kernel_event("my \"kernel\"", 0.001, 0.002, 10, 5));
  tl.marker("start", 0.0);
  std::ostringstream os;
  prof::write_chrome_trace(tl, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\\\"kernel\\\""), std::string::npos);  // escaped
  EXPECT_EQ(json.front(), '[');
}

TEST(ChromeTrace, JsonEscapeHandlesControls) {
  EXPECT_EQ(prof::json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(prof::json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(prof::json_escape("quote\""), "quote\\\"");
  EXPECT_EQ(prof::json_escape("back\\slash"), "back\\\\slash");
}

TEST(Bottleneck, EmptyTimelineDiagnosis) {
  prof::Timeline tl;
  const auto report = prof::analyze(tl);
  EXPECT_EQ(report.diagnosis, "no device activity recorded");
}

TEST(Bottleneck, TransferBoundDetected) {
  prof::Timeline tl;
  tl.record(kernel_event("k", 0, 0.1, 1e9, 1e6));
  prof::TraceEvent h2d;
  h2d.name = "memcpy_h2d";
  h2d.kind = prof::EventKind::kMemcpyH2D;
  h2d.start_s = 0.1;
  h2d.duration_s = 0.9;
  tl.record(h2d);
  const auto report = prof::analyze(tl);
  EXPECT_GT(report.transfer_ratio, 0.5);
  EXPECT_NE(report.diagnosis.find("transfer-bound"), std::string::npos);
}

TEST(Bottleneck, MemoryBoundKernelClassified) {
  prof::Timeline tl;
  // AI = 1 flop/byte, well under a balance of 10.
  tl.record(kernel_event("memk", 0, 0.1, 1e6, 1e6));
  const auto report = prof::analyze(tl, 10.0);
  ASSERT_EQ(report.kernels.size(), 1u);
  EXPECT_EQ(report.kernels[0].bound, prof::KernelBound::kMemory);
}

TEST(Bottleneck, ComputeBoundKernelClassified) {
  prof::Timeline tl;
  tl.record(kernel_event("fmak", 0, 0.1, 1e9, 1e6));  // AI = 1000
  const auto report = prof::analyze(tl, 10.0);
  ASSERT_EQ(report.kernels.size(), 1u);
  EXPECT_EQ(report.kernels[0].bound, prof::KernelBound::kCompute);
}

TEST(Bottleneck, LatencyBoundForTinyKernels) {
  prof::Timeline tl;
  tl.record(kernel_event("tiny", 0, 5e-6, 1e9, 1e3));
  const auto report = prof::analyze(tl);
  ASSERT_EQ(report.kernels.size(), 1u);
  EXPECT_EQ(report.kernels[0].bound, prof::KernelBound::kLatency);
}

TEST(Bottleneck, TextReportContainsKernelRows) {
  prof::Timeline tl;
  tl.record(kernel_event("gemm_tiled", 0, 0.1, 1e9, 1e6));
  const auto text = prof::to_text(prof::analyze(tl));
  EXPECT_NE(text.find("gemm_tiled"), std::string::npos);
  EXPECT_NE(text.find("diagnosis"), std::string::npos);
}

TEST(Report, UtilizationMergesOverlaps) {
  prof::Timeline tl;
  tl.record(kernel_event("a", 0.0, 1.0, 0, 0, 0));
  tl.record(kernel_event("b", 0.5, 1.0, 0, 0, 0));  // overlaps a
  // span = 1.5, merged busy = 1.5 -> utilization 1.0
  EXPECT_NEAR(prof::kernel_utilization(tl, 0), 1.0, 1e-12);
}

TEST(Report, UtilizationRespectsGaps) {
  prof::Timeline tl;
  tl.record(kernel_event("a", 0.0, 1.0, 0, 0, 0));
  tl.record(kernel_event("b", 3.0, 1.0, 0, 0, 0));
  EXPECT_NEAR(prof::kernel_utilization(tl, 0), 2.0 / 4.0, 1e-12);
}

TEST(Report, UtilizationZeroForUnknownDevice) {
  prof::Timeline tl;
  tl.record(kernel_event("a", 0.0, 1.0, 0, 0, 0));
  EXPECT_DOUBLE_EQ(prof::kernel_utilization(tl, 5), 0.0);
}

TEST(Report, SummaryTableHasDerivedRates) {
  prof::Timeline tl;
  tl.record(kernel_event("k", 0, 1.0, 2e9, 1e9));
  const auto text = prof::summary_table(tl);
  EXPECT_NE(text.find("k"), std::string::npos);
  EXPECT_NE(text.find("GFLOP/s"), std::string::npos);
}

TEST(EventKind, NamesAreStable) {
  EXPECT_STREQ(prof::to_string(prof::EventKind::kKernel), "kernel");
  EXPECT_STREQ(prof::to_string(prof::EventKind::kMemcpyH2D), "memcpy_h2d");
  EXPECT_STREQ(prof::to_string(prof::EventKind::kScheduler), "scheduler");
}
