// Ablation: instance-based validation (paper Section 3.1) — the SoA column
// scan behind SoaInstanceValidator versus the per-license
// License::InstanceContains loop it must equal, on paper-sweep catalogues
// from N = 8 up to the 1024-license cap, 256 queries each. Before timing,
// every query's set is checked against the loop. The SoA rows run the
// dispatched kernel tier; set GEOLIC_FORCE_SCALAR=1 for the scalar tier.
#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/instance_validator.h"
#include "licensing/license_catalog.h"
#include "util/check.h"
#include "util/random.h"
#include "workload/workload.h"

namespace geolic {
namespace {

struct LicenseFixture {
  explicit LicenseFixture(int n) {
    WorkloadConfig config = PaperSweepConfig(n);
    config.num_records = 0;
    WorkloadGenerator generator(config);
    Result<Workload> generated = generator.GenerateLicensesOnly();
    GEOLIC_CHECK(generated.ok());
    workload = std::make_unique<Workload>(*std::move(generated));
    Rng rng(42);
    for (int i = 0; i < 256; ++i) {
      const int parent = static_cast<int>(
          rng.UniformInt(0, workload->licenses->size() - 1));
      queries.push_back(
          generator.DrawUsageLicense(*workload, parent, &rng, i));
    }
  }
  std::unique_ptr<Workload> workload;
  std::vector<License> queries;
};

LicenseSet InstanceContainsLoop(const LicenseCatalog& licenses,
                                const License& issued) {
  LicenseSet set;
  for (int i = 0; i < licenses.size(); ++i) {
    if (licenses.at(i).InstanceContains(issued)) {
      set |= LicenseSet::Singleton(i);
    }
  }
  return set;
}

void BM_InstanceContainsLoop(benchmark::State& state) {
  const LicenseFixture fixture(static_cast<int>(state.range(0)));
  const LicenseCatalog& licenses = *fixture.workload->licenses;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(InstanceContainsLoop(
        licenses, fixture.queries[i % fixture.queries.size()]));
    ++i;
  }
}

void BM_SoaInstanceLookup(benchmark::State& state) {
  const LicenseFixture fixture(static_cast<int>(state.range(0)));
  const SoaInstanceValidator validator(fixture.workload->licenses.get());
  for (const License& query : fixture.queries) {
    GEOLIC_CHECK(validator.SatisfyingSet(query) ==
                 InstanceContainsLoop(*fixture.workload->licenses, query));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        validator.SatisfyingSet(fixture.queries[i % fixture.queries.size()]));
    ++i;
  }
}

BENCHMARK(BM_InstanceContainsLoop)
    ->Arg(8)->Arg(32)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_SoaInstanceLookup)
    ->Arg(8)->Arg(32)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace geolic

BENCHMARK_MAIN();
