// Arithmetic the benchmark reports with: percentiles, quartiles, open-loop
// due times, and the classification of catalog calls by counter deltas.
// Header-only and free of program dependencies so that selftest.cc can
// check it on synthetic inputs.
#ifndef GEOBENCH_BENCH_MATH_H_
#define GEOBENCH_BENCH_MATH_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace geobench {

// Nearest-rank percentile of `sorted` (ascending), q in (0, 1]: the
// smallest value with at least q·n samples at or below it. 0 when empty.
inline double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

// Samples strictly above the nearest-rank q-percentile of n samples.
inline size_t SamplesBeyond(size_t n, double q) {
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return rank >= n ? 0 : n - rank;
}

// A percentile is reported only when at least ten samples lie beyond it.
inline bool Reportable(size_t n, double q) { return SamplesBeyond(n, q) >= 10; }

inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// The median of the q-percentiles of `segments`, each a run of equal
// length: a figure that a stall in a few segments cannot swing. Sets
// *reportable to whether every segment has ten samples beyond its
// percentile.
inline double SegmentedPercentile(std::vector<std::vector<double>> segments,
                                  double q, bool* reportable) {
  *reportable = true;
  std::vector<double> percentiles;
  for (std::vector<double>& segment : segments) {
    std::sort(segment.begin(), segment.end());
    *reportable = *reportable && Reportable(segment.size(), q);
    percentiles.push_back(Percentile(segment, q));
  }
  return Median(percentiles);
}

struct QuartileSet {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

// Quartiles as Python's statistics.quantiles(values, n=4) gives them (the
// default "exclusive" method). Needs at least two values.
inline QuartileSet Quartiles(std::vector<double> values) {
  if (values.size() < 2) {
    throw std::invalid_argument("quartiles need at least two values");
  }
  std::sort(values.begin(), values.end());
  const long n = static_cast<long>(values.size());
  const long m = n + 1;
  double cut[3];
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp<long>(i * m / 4, 1, n - 1);
    const long delta = i * m - j * 4;
    const double lo = values[static_cast<size_t>(j - 1)];
    const double hi = values[static_cast<size_t>(j)];
    cut[i - 1] = lo + static_cast<double>(delta) * (hi - lo) / 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

// Open-loop schedule: request i of a phase that starts at `start_ns` with
// `rate` requests per second is due at start + i/rate.
inline uint64_t DueNanos(uint64_t start_ns, uint64_t index, double rate) {
  return start_ns +
         static_cast<uint64_t>(std::llround(static_cast<double>(index) * 1e9 /
                                            rate));
}

// Open-loop latency counts from the due time, so a stalled generator
// charges its delay to every request it held back.
inline uint64_t LatencyFromDue(uint64_t due_ns, uint64_t done_ns) {
  return done_ns > due_ns ? done_ns - due_ns : 0;
}

// How late the generator sent a request.
inline uint64_t Lateness(uint64_t due_ns, uint64_t sent_ns) {
  return sent_ns > due_ns ? sent_ns - due_ns : 0;
}

// Catalog counters read around one CatalogService::TryIssue call.
struct CatalogCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t compiles = 0;
  uint64_t loads = 0;
  uint64_t evictions = 0;
};

enum class CallKind { kHit, kCompile, kLoad, kEvict };

struct CallSample {
  CallKind kind;
  double nanos;
};

// Classifies one catalog call by the counter change across it. A call that
// evicted k tenants yields k eviction samples, each 1/k of its duration;
// otherwise it is a compile, a spill load or a hit, in that order.
inline std::vector<CallSample> ClassifyCall(const CatalogCounters& before,
                                            const CatalogCounters& after,
                                            double nanos) {
  const uint64_t evicted = after.evictions - before.evictions;
  if (evicted > 0) {
    return std::vector<CallSample>(
        evicted, CallSample{CallKind::kEvict,
                            nanos / static_cast<double>(evicted)});
  }
  if (after.compiles > before.compiles) {
    return {CallSample{CallKind::kCompile, nanos}};
  }
  if (after.loads > before.loads) {
    return {CallSample{CallKind::kLoad, nanos}};
  }
  return {CallSample{CallKind::kHit, nanos}};
}

}  // namespace geobench

#endif  // GEOBENCH_BENCH_MATH_H_
