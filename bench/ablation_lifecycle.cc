// Ablation: admission latency while the catalog is reconfiguring.
//
// The epoch/RCU shard-map swap promises that AcquireLicense / RevokeLicense
// never stop issuance: admissions pin an epoch lock-free, and one that
// loses the race to a reconfiguration retries against the new shard map.
// This bench measures per-request admission latency in two phases — a
// quiescent catalog, then a reconfiguration storm (a bridge license
// acquired and revoked in a tight loop, merging and re-splitting two
// shards each round) — and self-checks that the storm-phase p99 stays
// within 5x of the quiescent p99. The storm is timed from the first
// published reconfiguration on, and each storm rep must see at least
// kMinStormReconfigs of them inside its timed window, so the bar is never
// met by a storm that had not started. Machine-readable:
// --json_out=<path>.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "licensing/constraint_schema.h"
#include "licensing/license.h"
#include "licensing/license_catalog.h"
#include "service/issuance_service.h"
#include "util/stopwatch.h"

namespace {

using namespace geolic;  // NOLINT

// Reconfigurations a storm rep must publish while its admissions are
// being timed.
constexpr uint64_t kMinStormReconfigs = 10;

// `groups` disjoint clusters of two overlapping licenses, 1000 apart.
LicenseCatalog MakeGroupedSet(const ConstraintSchema& schema, int groups) {
  LicenseCatalog licenses(&schema);
  for (int g = 0; g < groups; ++g) {
    const int64_t base = 1000 * g;
    for (int member = 0; member < 2; ++member) {
      LicenseBuilder builder(&schema);
      builder.SetId("L" + std::to_string(2 * g + member))
          .SetContentKey("K")
          .SetType(LicenseType::kRedistribution)
          .SetPermission(Permission::kPlay)
          .SetAggregateCount(int64_t{1} << 40)
          .SetInterval("C1", base + 10 * member, base + 20 + 10 * member);
      GEOLIC_CHECK(licenses.Add(*builder.Build()).ok());
    }
  }
  return licenses;
}

std::vector<License> MakeRequests(const ConstraintSchema& schema, int groups,
                                  int count) {
  std::vector<License> requests;
  requests.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int64_t base = 1000 * (i % groups);
    LicenseBuilder builder(&schema);
    builder.SetId("U" + std::to_string(i))
        .SetContentKey("K")
        .SetType(LicenseType::kUsage)
        .SetPermission(Permission::kPlay)
        .SetAggregateCount(1)
        .SetInterval("C1", base + 12, base + 18);
    requests.push_back(*builder.Build());
  }
  return requests;
}

// The storm license: spans clusters 0 and 1, so each acquisition merges
// their shards and each revocation splits them again (figure 6, live).
License BridgeLicense(const ConstraintSchema& schema, int round) {
  LicenseBuilder builder(&schema);
  builder.SetId("X" + std::to_string(round))
      .SetContentKey("K")
      .SetType(LicenseType::kRedistribution)
      .SetPermission(Permission::kPlay)
      .SetAggregateCount(int64_t{1} << 40)
      .SetInterval("C1", 15, 1015);
  return *builder.Build();
}

int64_t Percentile(std::vector<int64_t>* nanos, double p) {
  GEOLIC_CHECK(!nanos->empty());
  const size_t rank = std::min(
      nanos->size() - 1,
      static_cast<size_t>(p * static_cast<double>(nanos->size() - 1)));
  std::nth_element(nanos->begin(),
                   nanos->begin() + static_cast<ptrdiff_t>(rank),
                   nanos->end());
  return (*nanos)[rank];
}

struct PhaseResult {
  int64_t p50_ns = 0;
  int64_t p99_ns = 0;
  uint64_t reconfigs = 0;  // Published while the admissions were timed.
};

// Times every admission in `requests`; when `storm` is set, a background
// thread acquires and revokes the bridge license continuously, and timing
// starts once its first reconfiguration is published.
PhaseResult RunPhase(const LicenseCatalog& licenses,
                     const std::vector<License>& requests, bool storm) {
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  GEOLIC_CHECK(service.ok());
  IssuanceService* s = service->get();

  std::atomic<bool> stop{false};
  std::thread reconfigurer;
  if (storm) {
    reconfigurer = std::thread([s, &stop, &licenses] {
      int round = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const License bridge = BridgeLicense(licenses.schema(), round++);
        GEOLIC_CHECK(s->AcquireLicense(bridge).ok());
        GEOLIC_CHECK(s->RevokeLicenseById(bridge.id()).ok());
      }
    });
  }

  while (storm && s->catalog_epoch() == 0) {
    std::this_thread::yield();
  }
  const uint64_t first_epoch = s->catalog_epoch();
  std::vector<int64_t> nanos;
  nanos.reserve(requests.size());
  for (const License& request : requests) {
    Stopwatch timer;
    const Result<OnlineDecision> decision = s->TryIssue(request);
    nanos.push_back(timer.ElapsedNanos());
    GEOLIC_CHECK(decision.ok());
    GEOLIC_CHECK(decision->accepted());
  }

  PhaseResult result;
  if (storm) {
    result.reconfigs = s->catalog_epoch() - first_epoch;
    stop.store(true, std::memory_order_release);
    reconfigurer.join();
    // Every transient bridge was revoked again: the stable accepted set
    // must survive all the merges and splits intact.
    GEOLIC_CHECK(s->licenses().size() == licenses.size());
    GEOLIC_CHECK(s->CollectLog().TotalCount() ==
                 static_cast<int64_t>(requests.size()));
  }
  result.p50_ns = Percentile(&nanos, 0.50);
  result.p99_ns = Percentile(&nanos, 0.99);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using geolic::bench::Flags;
  using geolic::bench::JsonOut;

  Flags flags(argc, argv);
  const int groups = std::max(2, flags.Int("groups", 8));
  const int request_count = std::max(100, flags.Int("requests", 20000));
  const int reps = std::max(1, flags.Int("reps", 3));
  JsonOut json(flags, "ablation_lifecycle");
  flags.Finish();

  ConstraintSchema schema;
  GEOLIC_CHECK(schema.AddIntervalDimension("C1").ok());
  const LicenseCatalog licenses = MakeGroupedSet(schema, groups);
  const std::vector<License> requests =
      MakeRequests(schema, groups, request_count);

  std::printf("# Ablation: admission latency, quiescent vs reconfiguration "
              "storm (%d groups, %d requests, best of %d reps)\n",
              groups, request_count, reps);
  std::printf("%10s  %10s  %10s  %10s\n", "phase", "p50_ns", "p99_ns",
              "reconfigs");
  std::fflush(stdout);

  // Best-of-reps on both sides: scheduling noise hits each phase alike.
  PhaseResult quiescent;
  PhaseResult storm;
  for (int rep = 0; rep < reps; ++rep) {
    const PhaseResult q = RunPhase(licenses, requests, /*storm=*/false);
    const PhaseResult r = RunPhase(licenses, requests, /*storm=*/true);
    std::printf("# storm rep %d: %" PRIu64
                " reconfigurations timed (min %" PRIu64 ")\n",
                rep + 1, r.reconfigs, kMinStormReconfigs);
    std::fflush(stdout);
    GEOLIC_CHECK(r.reconfigs >= kMinStormReconfigs);
    if (rep == 0 || q.p99_ns < quiescent.p99_ns) {
      quiescent = q;
    }
    if (rep == 0 || r.p99_ns < storm.p99_ns) {
      storm = r;
    }
  }

  std::printf("%10s  %10" PRId64 "  %10" PRId64 "  %10s\n", "quiescent",
              quiescent.p50_ns, quiescent.p99_ns, "0");
  std::printf("%10s  %10" PRId64 "  %10" PRId64 "  %10" PRIu64 "\n", "storm",
              storm.p50_ns, storm.p99_ns, storm.reconfigs);

  // The acceptance bar: reconfigurations may cost retries and shard-lock
  // waits, but the epoch swap must keep the admission tail within 5x of a
  // quiescent catalog. The 2µs floor keeps sub-microsecond quiescent tails
  // (where one scheduler tick is many multiples) from making the ratio
  // meaningless.
  const double floor_ns = 2000.0;
  const double baseline =
      std::max(static_cast<double>(quiescent.p99_ns), floor_ns);
  const double ratio = static_cast<double>(storm.p99_ns) / baseline;
  std::printf("# storm p99 / quiescent p99 = %.2fx (bar: 5x, floor %gns)\n",
              ratio, floor_ns);
  std::fflush(stdout);
  GEOLIC_CHECK(static_cast<double>(storm.p99_ns) <= 5.0 * baseline);

  json.Row([&](JsonWriter& out) {
    out.KeyValue("phase", "quiescent");
    out.KeyValue("p50_ns", quiescent.p50_ns);
    out.KeyValue("p99_ns", quiescent.p99_ns);
    out.KeyValue("reconfigs", static_cast<int64_t>(0));
  });
  json.Row([&](JsonWriter& out) {
    out.KeyValue("phase", "storm");
    out.KeyValue("p50_ns", storm.p50_ns);
    out.KeyValue("p99_ns", storm.p99_ns);
    out.KeyValue("reconfigs", static_cast<int64_t>(storm.reconfigs));
    out.KeyValue("p99_ratio", ratio);
  });
  json.Write();
  return 0;
}
