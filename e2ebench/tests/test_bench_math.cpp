// Tests for the benchmark's own arithmetic (src/bench_math.h).

#include "bench_math.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace {

TEST(SamplesBeyond, CountsSamplesAboveTheInterpolatedRank) {
  // rank of p90 at n = 100 is 89.1: samples 90..99 lie beyond it.
  EXPECT_EQ(e2e::samples_beyond(100, 90.0), 10u);
  EXPECT_EQ(e2e::samples_beyond(99, 90.0), 10u);  // rank 88.2
  EXPECT_EQ(e2e::samples_beyond(91, 90.0), 9u);   // rank 81
  EXPECT_EQ(e2e::samples_beyond(200, 95.0), 10u);  // rank 189.05
  EXPECT_EQ(e2e::samples_beyond(1, 50.0), 0u);
  EXPECT_EQ(e2e::samples_beyond(0, 50.0), 0u);
  EXPECT_EQ(e2e::samples_beyond(10, 100.0), 0u);
}

TEST(SamplesBeyond, HighestSupportedPercentileNeedsTenBeyond) {
  EXPECT_EQ(e2e::highest_supported_percentile(15), 0.0);
  EXPECT_EQ(e2e::highest_supported_percentile(21), 50.0);
  EXPECT_EQ(e2e::highest_supported_percentile(99), 90.0);
  EXPECT_EQ(e2e::highest_supported_percentile(100), 90.0);
  EXPECT_EQ(e2e::highest_supported_percentile(181), 90.0);
  EXPECT_EQ(e2e::highest_supported_percentile(182), 95.0);  // rank 171.95
  EXPECT_EQ(e2e::highest_supported_percentile(200), 95.0);  // main's kMinOps
  EXPECT_EQ(e2e::highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(e2e::highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(e2e::highest_supported_percentile(100, 11), 50.0);
}

TEST(SummarizeOps, MediansPercentilesAndRate) {
  std::vector<double> s;
  for (int i = 1; i <= 100; ++i) s.push_back(1e-3 * i);  // 1..100 ms
  const e2e::OpSummary sum = e2e::summarize_ops(s);
  EXPECT_EQ(sum.ops, 100u);
  EXPECT_NEAR(sum.busy_s, 5.05, 1e-12);
  EXPECT_NEAR(sum.ops_per_s, 100.0 / 5.05, 1e-9);
  EXPECT_NEAR(sum.p50_ms, 50.5, 1e-9);
  EXPECT_NEAR(sum.p95_ms, 95.05, 1e-9);  // 95 + 0.05 * (96 - 95)
  EXPECT_EQ(sum.p95_beyond, 5u);
  EXPECT_THROW((void)e2e::summarize_ops({}), std::invalid_argument);
}

TEST(Median, OddAndEven) {
  const std::vector<double> odd{3.0, 1.0, 2.0};
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_EQ(e2e::median(odd), 2.0);
  EXPECT_EQ(e2e::median(even), 2.5);
}

TEST(PeakRss, ParsesVmHwmInKib) {
  const char* status =
      "Name:\tlbmv_e2e\nVmPeak:\t  200000 kB\nVmHWM:\t   10240 kB\n"
      "VmRSS:\t    9000 kB\n";
  EXPECT_DOUBLE_EQ(e2e::parse_peak_rss_mib(status), 10.0);
  EXPECT_DOUBLE_EQ(e2e::parse_peak_rss_mib("VmHWM: 1536 kB"), 1.5);
  EXPECT_THROW((void)e2e::parse_peak_rss_mib("VmRSS: 10 kB\n"),
               std::runtime_error);
  EXPECT_THROW((void)e2e::parse_peak_rss_mib("VmHWM: lots\n"),
               std::runtime_error);
  EXPECT_THROW((void)e2e::parse_peak_rss_mib("VmHWM: 10 MB\n"),
               std::runtime_error);
}

TEST(PeakRss, ReadsThisProcess) {
  const double before = e2e::peak_rss_mib();
  EXPECT_GT(before, 0.0);
  std::vector<char> block(64 << 20, 1);  // touch 64 MiB
  volatile char sink = block[block.size() / 2];
  (void)sink;
  EXPECT_GE(e2e::peak_rss_mib(), before + 60.0);
}

TEST(TraceRatios, CoverageAndOverhead) {
  const std::vector<double> layers{0.5, 0.25, 0.125};
  EXPECT_DOUBLE_EQ(e2e::coverage(layers, 1.0), 0.875);
  EXPECT_DOUBLE_EQ(e2e::coverage(layers, 0.875), 1.0);
  EXPECT_DOUBLE_EQ(e2e::coverage({}, 2.0), 0.0);
  EXPECT_THROW((void)e2e::coverage(layers, 0.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(e2e::overhead_frac(1.1, 1.0), 1.1 - 1.0);
  EXPECT_DOUBLE_EQ(e2e::overhead_frac(0.5, 1.0), -0.5);
  EXPECT_THROW((void)e2e::overhead_frac(1.0, 0.0), std::invalid_argument);
}

}  // namespace
