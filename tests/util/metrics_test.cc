#include "util/metrics.h"

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace geolic {
namespace {

TEST(LatencyHistogramTest, QuantilesOnCleanSnapshot) {
  LatencyHistogram histogram;
  for (int i = 0; i < 100; ++i) {
    histogram.Record(10);  // Bucket 3: [8, 16).
  }
  histogram.Record(1000);  // Bucket 9: [512, 1024).
  const LatencyHistogram::Snapshot snap = histogram.Snap();
  EXPECT_EQ(snap.QuantileUpperBoundNanos(0.0), int64_t{1} << 4);
  EXPECT_EQ(snap.QuantileUpperBoundNanos(0.5), int64_t{1} << 4);
  EXPECT_EQ(snap.QuantileUpperBoundNanos(1.0), int64_t{1} << 10);
}

TEST(LatencyHistogramTest, EmptySnapshotQuantileIsZero) {
  const LatencyHistogram::Snapshot snap = LatencyHistogram().Snap();
  EXPECT_EQ(snap.QuantileUpperBoundNanos(0.5), 0);
  EXPECT_EQ(snap.QuantileUpperBoundNanos(0.99), 0);
}

// Regression: Record is two relaxed RMWs (bucket, then total_count), so a
// concurrent Snap can observe total_count ahead of the bucket sum. The old
// quantile code ranked against total_count and ran off the end of the
// bucket array, reporting a spurious 2^40 ns p99 under load. The rank must
// come from the snapshotted bucket sum itself.
TEST(LatencyHistogramTest, QuantileRankUsesBucketSumNotTotalCount) {
  LatencyHistogram::Snapshot snap;
  snap.counts[3] = 10;   // All real observations in [8, 16).
  snap.total_count = 15; // Skewed ahead, as a racy Snap() can see.
  snap.total_nanos = 100;
  // p99 rank over the 10 visible observations is index 9 — still bucket 3.
  EXPECT_EQ(snap.QuantileUpperBoundNanos(0.99), int64_t{1} << 4);
  EXPECT_EQ(snap.QuantileUpperBoundNanos(1.0), int64_t{1} << 4);
  // Never the saturated tail bound the bug produced.
  EXPECT_LT(snap.QuantileUpperBoundNanos(0.99), int64_t{1} << 40);
}

TEST(LatencyHistogramTest, ConcurrentSnapshotsNeverSaturateQuantile) {
  LatencyHistogram histogram;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&histogram, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        histogram.Record(100);  // Bucket 6: [64, 128).
      }
    });
  }
  // Snapshot under write load: whatever skew Snap observes, the quantile
  // must stay inside the only populated bucket (or 0 if nothing landed).
  for (int i = 0; i < 2000; ++i) {
    const LatencyHistogram::Snapshot snap = histogram.Snap();
    const int64_t p99 = snap.QuantileUpperBoundNanos(0.99);
    EXPECT_TRUE(p99 == 0 || p99 == (int64_t{1} << 7)) << p99;
  }
  stop.store(true);
  for (std::thread& writer : writers) {
    writer.join();
  }
}

// Regression: negative latencies (cross-thread timestamp math can go
// backwards) were cast straight to uint64_t, landing in the 2^40 ns top
// bucket and wrecking the mean. They must be clamped into bucket 0, still
// counted, and surfaced through the clamped_negative counter.
TEST(LatencyHistogramTest, NegativeNanosClampToBucketZeroAndAreCounted) {
  LatencyHistogram histogram;
  histogram.Record(-1);
  histogram.Record(std::numeric_limits<int64_t>::min());
  histogram.Record(10);  // Bucket 3: [8, 16).
  const LatencyHistogram::Snapshot snap = histogram.Snap();
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.total_count, 3u);
  EXPECT_EQ(snap.total_nanos, 10u);  // Clamped observations contribute 0.
  EXPECT_EQ(snap.clamped_negative, 2u);
  // The clamped observations keep the quantiles in range.
  EXPECT_EQ(snap.QuantileUpperBoundNanos(0.5), int64_t{1} << 1);
  EXPECT_EQ(snap.QuantileUpperBoundNanos(1.0), int64_t{1} << 4);
  // Clamping is observable in the log line, and only when it happened.
  EXPECT_NE(snap.ToString().find("clamped_negative=2"), std::string::npos);
  EXPECT_EQ(LatencyHistogram().Snap().ToString().find("clamped_negative"),
            std::string::npos);
}

// Regression: ToString used a fixed 256-byte buffer; six 20-digit counters
// plus the latency line overflowed it and truncated the output.
TEST(IssuanceMetricsTest, ToStringSurvivesMaxMagnitudeCounters) {
  IssuanceMetrics::Snapshot snap;
  const uint64_t max = std::numeric_limits<uint64_t>::max();
  snap.accepted = max;
  snap.rejected_instance = max;
  snap.rejected_aggregate = max;
  snap.equations_checked = max;
  snap.batches = max;
  snap.batched_requests = max;
  snap.latency.counts[39] = max;
  snap.latency.total_count = max;
  snap.latency.total_nanos = max;
  const std::string text = snap.ToString();
  // Every counter appears in full — nothing cut off mid-number.
  EXPECT_NE(text.find("accepted=18446744073709551615"), std::string::npos)
      << text;
  EXPECT_NE(text.find("(18446744073709551615 reqs)"), std::string::npos)
      << text;
  // The latency one-liner made it in after all six counters.
  EXPECT_NE(text.find("count=18446744073709551615"), std::string::npos)
      << text;
  EXPECT_NE(text.find("p99"), std::string::npos) << text;
}

TEST(IssuanceMetricsTest, ReconfigurationCountersAccumulate) {
  IssuanceMetrics metrics;
  metrics.RecordReconfiguration(120, 0);
  metrics.RecordReconfiguration(0, 3);
  const IssuanceMetrics::Snapshot snap = metrics.Snap();
  EXPECT_EQ(snap.reconfig_records_migrated, 120u);
  EXPECT_EQ(snap.reconfig_shards_carried, 3u);
  EXPECT_EQ(snap.total_requests(), 0u);  // Not a request outcome.
}

TEST(IssuanceMetricsTest, CountersAccumulate) {
  IssuanceMetrics metrics;
  metrics.RecordAccepted(3, 50);
  metrics.RecordAccepted(2, 70);
  metrics.RecordRejectedInstance(10);
  metrics.RecordRejectedAggregate(4, 90);
  metrics.RecordBatch(5);
  const IssuanceMetrics::Snapshot snap = metrics.Snap();
  EXPECT_EQ(snap.accepted, 2u);
  EXPECT_EQ(snap.rejected_instance, 1u);
  EXPECT_EQ(snap.rejected_aggregate, 1u);
  EXPECT_EQ(snap.equations_checked, 9u);
  EXPECT_EQ(snap.batches, 1u);
  EXPECT_EQ(snap.batched_requests, 5u);
  EXPECT_EQ(snap.total_requests(), 4u);
  EXPECT_EQ(snap.latency.total_count, 4u);
}

}  // namespace
}  // namespace geolic
