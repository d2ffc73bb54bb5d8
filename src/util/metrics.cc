#include "util/metrics.h"

#include <bit>
#include <cstdio>

namespace geolic {

void LatencyHistogram::Record(int64_t nanos) {
  if (nanos < 0) {
    clamped_negative_.fetch_add(1, std::memory_order_relaxed);
    nanos = 0;
  }
  const uint64_t value = static_cast<uint64_t>(nanos);
  int bucket = value == 0 ? 0 : 63 - std::countl_zero(value);
  if (bucket >= kBuckets) {
    bucket = kBuckets - 1;
  }
  buckets_[static_cast<size_t>(bucket)].fetch_add(1,
                                                  std::memory_order_relaxed);
  total_count_.fetch_add(1, std::memory_order_relaxed);
  total_nanos_.fetch_add(value, std::memory_order_relaxed);
}

LatencyHistogram::Snapshot LatencyHistogram::Snap() const {
  Snapshot snapshot;
  for (int i = 0; i < kBuckets; ++i) {
    snapshot.counts[static_cast<size_t>(i)] =
        buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }
  snapshot.total_count = total_count_.load(std::memory_order_relaxed);
  snapshot.total_nanos = total_nanos_.load(std::memory_order_relaxed);
  snapshot.clamped_negative = clamped_negative_.load(std::memory_order_relaxed);
  return snapshot;
}

double LatencyHistogram::Snapshot::MeanNanos() const {
  if (total_count == 0) {
    return 0.0;
  }
  return static_cast<double>(total_nanos) / static_cast<double>(total_count);
}

int64_t LatencyHistogram::Snapshot::QuantileUpperBoundNanos(double p) const {
  // Rank against the snapshotted bucket sum, not total_count: Record bumps
  // the bucket and total_count in separate relaxed RMWs, so a concurrent
  // Snap can observe sum(counts) < total_count. A rank derived from the
  // larger total would fall off the end of the scan and report the 2^40 ns
  // top bucket for an otherwise microsecond-scale histogram.
  uint64_t bucket_total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    bucket_total += counts[static_cast<size_t>(i)];
  }
  if (bucket_total == 0) {
    return 0;
  }
  if (p < 0.0) {
    p = 0.0;
  }
  if (p > 1.0) {
    p = 1.0;
  }
  const uint64_t rank = static_cast<uint64_t>(
      p * static_cast<double>(bucket_total - 1));
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += counts[static_cast<size_t>(i)];
    if (seen > rank) {
      return int64_t{1} << (i + 1);
    }
  }
  return int64_t{1} << kBuckets;  // Unreachable: rank < bucket_total.
}

std::string LatencyHistogram::Snapshot::ToString() const {
  char mean[32];
  std::snprintf(mean, sizeof(mean), "%.0f", MeanNanos());
  std::string out = "count=" + std::to_string(total_count);
  out += ", mean=";
  out += mean;
  out += "ns, p50<=" + std::to_string(QuantileUpperBoundNanos(0.5));
  out += "ns, p99<=" + std::to_string(QuantileUpperBoundNanos(0.99));
  out += "ns";
  if (clamped_negative != 0) {
    out += ", clamped_negative=" + std::to_string(clamped_negative);
  }
  return out;
}

void IssuanceMetrics::RecordAccepted(uint64_t equations, int64_t nanos) {
  accepted_.fetch_add(1, std::memory_order_relaxed);
  equations_checked_.fetch_add(equations, std::memory_order_relaxed);
  latency_.Record(nanos);
}

void IssuanceMetrics::RecordRejectedInstance(int64_t nanos) {
  rejected_instance_.fetch_add(1, std::memory_order_relaxed);
  latency_.Record(nanos);
}

void IssuanceMetrics::RecordRejectedAggregate(uint64_t equations,
                                              int64_t nanos) {
  rejected_aggregate_.fetch_add(1, std::memory_order_relaxed);
  equations_checked_.fetch_add(equations, std::memory_order_relaxed);
  latency_.Record(nanos);
}

void IssuanceMetrics::RecordBatch(uint64_t size) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_requests_.fetch_add(size, std::memory_order_relaxed);
}

void IssuanceMetrics::RecordReconfiguration(uint64_t records_migrated,
                                            uint64_t shards_carried) {
  reconfig_records_migrated_.fetch_add(records_migrated,
                                       std::memory_order_relaxed);
  reconfig_shards_carried_.fetch_add(shards_carried,
                                     std::memory_order_relaxed);
}

IssuanceMetrics::Snapshot IssuanceMetrics::Snap() const {
  Snapshot snapshot;
  snapshot.accepted = accepted_.load(std::memory_order_relaxed);
  snapshot.rejected_instance =
      rejected_instance_.load(std::memory_order_relaxed);
  snapshot.rejected_aggregate =
      rejected_aggregate_.load(std::memory_order_relaxed);
  snapshot.equations_checked =
      equations_checked_.load(std::memory_order_relaxed);
  snapshot.batches = batches_.load(std::memory_order_relaxed);
  snapshot.batched_requests =
      batched_requests_.load(std::memory_order_relaxed);
  snapshot.reconfig_records_migrated =
      reconfig_records_migrated_.load(std::memory_order_relaxed);
  snapshot.reconfig_shards_carried =
      reconfig_shards_carried_.load(std::memory_order_relaxed);
  snapshot.latency = latency_.Snap();
  return snapshot;
}

std::string IssuanceMetrics::Snapshot::ToString() const {
  // Built by string append, not a fixed buffer: six 20-digit counters plus
  // the embedded latency line overflow any reasonable snprintf buffer and
  // would silently truncate the tail of the log line.
  std::string out = "accepted=" + std::to_string(accepted);
  out += ", rejected_instance=" + std::to_string(rejected_instance);
  out += ", rejected_aggregate=" + std::to_string(rejected_aggregate);
  out += ", equations=" + std::to_string(equations_checked);
  out += ", batches=" + std::to_string(batches);
  out += " (" + std::to_string(batched_requests) + " reqs)";
  out += ", latency: " + latency.ToString();
  return out;
}

}  // namespace geolic
