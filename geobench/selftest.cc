// Checks the benchmark's own arithmetic on synthetic inputs: percentiles
// under the "at least ten samples beyond" rule, quartiles as Python's
// statistics.quantiles gives them, open-loop due-time latency and
// lateness, and the classification of catalog calls by counter deltas.
// Exits nonzero on the first failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_math.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Range(int n) {
  std::vector<double> values;
  for (int i = 1; i <= n; ++i) {
    values.push_back(i);
  }
  return values;
}

void TestPercentiles() {
  using geobench::Percentile;
  using geobench::Reportable;
  using geobench::SamplesBeyond;
  const std::vector<double> hundred = Range(100);
  Expect(Near(Percentile(hundred, 0.5), 50), "p50 of 1..100 is 50");
  Expect(Near(Percentile(hundred, 0.99), 99), "p99 of 1..100 is 99");
  Expect(Near(Percentile(hundred, 1.0), 100), "p100 is the maximum");
  Expect(Near(Percentile({7.0}, 0.99), 7), "one sample is every percentile");
  Expect(Near(Percentile({}, 0.5), 0), "empty percentile is 0");
  Expect(SamplesBeyond(100, 0.99) == 1, "1 sample beyond p99 of 100");
  Expect(SamplesBeyond(1000, 0.99) == 10, "10 samples beyond p99 of 1000");
  Expect(!Reportable(999, 0.99), "p99 of 999 samples is not reportable");
  Expect(Reportable(1000, 0.99), "p99 of 1000 samples is reportable");
  Expect(Reportable(100, 0.90), "p90 of 100 samples is reportable");
  Expect(!Reportable(99, 0.90), "p90 of 99 samples is not reportable");
  // Five segments of 1000 samples; one segment holds a stall.
  std::vector<std::vector<double>> segments(5);
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 1000; ++i) {
      segments[w].push_back(w == 2 ? 1000.0 * i : i + 10.0 * w);
    }
  }
  bool reportable = false;
  const double tail = geobench::SegmentedPercentile(segments, 0.99, &reportable);
  Expect(reportable && Near(tail, 1020),
         "segmented p99 is the median segment p99, whatever one stall does");
  Expect(Near(geobench::SegmentedPercentile(segments, 0.5, &reportable), 530),
         "segmented p50 is the median segment p50");
  segments[4].pop_back();
  geobench::SegmentedPercentile(segments, 0.99, &reportable);
  Expect(!reportable, "a segment of 999 samples makes p99 unreportable");
  Expect(Near(geobench::Median({3, 1, 2}), 2), "odd median");
  Expect(Near(geobench::Median({4, 1, 2, 3}), 2.5), "even median");
}

void TestQuartiles() {
  // Reference values from Python: statistics.quantiles(data, n=4).
  geobench::QuartileSet q = geobench::Quartiles(Range(10));
  Expect(Near(q.q1, 2.75) && Near(q.median, 5.5) && Near(q.q3, 8.25),
         "quartiles of 1..10 are 2.75, 5.5, 8.25");
  q = geobench::Quartiles({1, 2});
  Expect(Near(q.q1, 0.75) && Near(q.median, 1.5) && Near(q.q3, 2.25),
         "quartiles of [1, 2] extrapolate as Python does");
  q = geobench::Quartiles({5, 1, 4, 2, 3});
  Expect(Near(q.q1, 1.5) && Near(q.median, 3) && Near(q.q3, 4.5),
         "quartiles of 1..5 (unsorted input) are 1.5, 3, 4.5");
  q = geobench::Quartiles({10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110});
  Expect(Near(q.q1, 30) && Near(q.median, 60) && Near(q.q3, 90),
         "quartiles of 11 values hit exact ranks");
}

void TestOpenLoopTiming() {
  using geobench::DueNanos;
  Expect(DueNanos(1000, 0, 1000.0) == 1000, "request 0 is due at start");
  Expect(DueNanos(0, 3, 1000.0) == 3'000'000, "1000 req/s: 1 ms apart");
  Expect(DueNanos(0, 1, 3.0) == 333'333'333, "due times round to ns");
  // A generator stall of 5 ms delays request 3 (due at 3 ms, sent at 8 ms,
  // answered at 8.1 ms): its latency counts the stall, from the due time.
  const uint64_t due = DueNanos(0, 3, 1000.0);
  Expect(geobench::LatencyFromDue(due, 8'100'000) == 5'100'000,
         "latency counts from the due time, not the send time");
  Expect(geobench::Lateness(due, 8'000'000) == 5'000'000,
         "lateness is send time minus due time");
  Expect(geobench::Lateness(due, 2'000'000) == 0,
         "an early send is not late");
}

void TestCallClassification() {
  using geobench::CallKind;
  using geobench::CatalogCounters;
  using geobench::ClassifyCall;
  const CatalogCounters base{100, 10, 5, 5, 3};
  CatalogCounters hit = base;
  hit.hits += 1;
  auto samples = ClassifyCall(base, hit, 900);
  Expect(samples.size() == 1 && samples[0].kind == CallKind::kHit &&
             Near(samples[0].nanos, 900),
         "a hit-only delta is a hit");
  CatalogCounters compile = base;
  compile.misses += 1;
  compile.compiles += 1;
  samples = ClassifyCall(base, compile, 50000);
  Expect(samples.size() == 1 && samples[0].kind == CallKind::kCompile,
         "a compile delta is a compile");
  CatalogCounters load = base;
  load.misses += 1;
  load.loads += 1;
  samples = ClassifyCall(base, load, 40000);
  Expect(samples.size() == 1 && samples[0].kind == CallKind::kLoad,
         "a load delta is a load");
  CatalogCounters evicting = load;
  evicting.evictions += 2;
  samples = ClassifyCall(base, evicting, 3000);
  Expect(samples.size() == 2 && samples[0].kind == CallKind::kEvict &&
             samples[1].kind == CallKind::kEvict &&
             Near(samples[0].nanos, 1500) && Near(samples[1].nanos, 1500),
         "a call that evicted twice splits into two eviction samples");
}

}  // namespace

int main() {
  TestPercentiles();
  TestQuartiles();
  TestOpenLoopTiming();
  TestCallClassification();
  if (failures != 0) {
    std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("selftest: ok\n");
  return 0;
}
