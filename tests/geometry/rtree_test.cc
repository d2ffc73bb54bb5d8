// Catalogue-scale instance lookup: SoaInstanceValidator (and the SoaRects
// compile under every kernel tier the host runs) against the
// InstanceContains loop, at catalogue sizes around every 64-license word
// boundary up to the 1024-license cap (16-word result masks). Cells mix
// intervals, category sets and multi-piece windows, so the column sweep,
// the mask-superset kernel and the scalar re-check of multi-piece cells all
// decide some answers.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/instance_validator.h"
#include "geometry/soa_rects.h"
#include "test_util.h"
#include "util/cpu_dispatch.h"
#include "util/random.h"

namespace geolic {
namespace {

constexpr int64_t kDomain = 1000;
constexpr uint64_t kCategoryBits = 0xFF;  // Universe C0..C7.

std::vector<simd::Tier> AvailableTiers() {
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  for (const simd::Tier tier : {simd::Tier::kSse42, simd::Tier::kAvx2}) {
    if (simd::TierAvailable(tier)) {
      tiers.push_back(tier);
    }
  }
  return tiers;
}

// T: interval; R: category set; W: window, a single interval or a union of
// two or three pieces with gaps.
ConstraintSchema MixedSchema() {
  CategoryUniverse universe;
  for (int c = 0; c < 8; ++c) {
    GEOLIC_CHECK(universe.Define("C" + std::to_string(c)).ok());
  }
  ConstraintSchema schema;
  GEOLIC_CHECK(schema.AddIntervalDimension("T").ok());
  GEOLIC_CHECK(schema.AddCategoricalDimension("R", universe).ok());
  GEOLIC_CHECK(schema.AddIntervalDimension("W").ok());
  return schema;
}

// Wide catalogue cells, so a query usually lies inside many licenses and
// result bits land in every word of the mask. With `universal` set, the
// license contains every query RandomUsage draws.
License RandomRedistribution(const ConstraintSchema& schema, int index,
                             bool universal, Rng* rng) {
  const int64_t t_lo = universal ? 0 : rng->UniformInt(0, kDomain / 2);
  std::vector<std::pair<int64_t, int64_t>> windows;
  int64_t cursor = rng->UniformInt(0, kDomain / 4);
  const int pieces = static_cast<int>(rng->UniformInt(1, 3));
  for (int p = 0; p < pieces && cursor < kDomain; ++p) {
    const int64_t hi = std::min(kDomain, cursor + rng->UniformInt(50, 400));
    windows.push_back({cursor, hi});
    cursor = hi + rng->UniformInt(2, 60);  // A gap of at least one value.
  }
  if (universal) {
    windows = {{0, 2 * kDomain}};
  }
  const uint64_t categories =
      universal ? kCategoryBits : (rng->Next() | rng->Next()) & kCategoryBits;
  LicenseBuilder builder(&schema);
  builder.SetId("LD" + std::to_string(index))
      .SetContentKey("K")
      .SetType(LicenseType::kRedistribution)
      .SetPermission(Permission::kPlay)
      .SetAggregateCount(1)
      .SetInterval("T", t_lo,
                   universal ? kDomain
                             : rng->UniformInt(t_lo + kDomain / 4, kDomain))
      .SetRange("R", ConstraintRange(CategorySet(categories)))
      .SetIntervalUnion("W", windows);
  const Result<License> license = builder.Build();
  GEOLIC_CHECK(license.ok());
  return *license;
}

// Narrow queries. Their W range sometimes spans a whole catalogue gap, and
// sometimes is itself a two-piece union.
License RandomUsage(const ConstraintSchema& schema, Rng* rng) {
  const int64_t t_lo = rng->UniformInt(0, kDomain);
  const int64_t w_lo = rng->UniformInt(0, kDomain);
  LicenseBuilder builder(&schema);
  builder.SetId("LU")
      .SetContentKey("K")
      .SetType(LicenseType::kUsage)
      .SetPermission(Permission::kPlay)
      .SetAggregateCount(1)
      .SetInterval("T", t_lo, std::min(kDomain, t_lo + rng->UniformInt(0, 40)))
      .SetRange("R", ConstraintRange(CategorySet(
                         uint64_t{1} << rng->UniformIndex(8))));
  if (rng->Bernoulli(0.2)) {
    builder.SetIntervalUnion(
        "W", {{w_lo, w_lo + 3}, {w_lo + 10, w_lo + rng->UniformInt(10, 80)}});
  } else {
    builder.SetInterval("W", w_lo, w_lo + rng->UniformInt(0, 80));
  }
  const Result<License> license = builder.Build();
  GEOLIC_CHECK(license.ok());
  return *license;
}

// Property: for n licenses around each word boundary, every kernel tier's
// SoA scan and the dispatched SoaInstanceValidator return exactly the
// InstanceContains loop's set.
class InstanceLookupScaleTest : public ::testing::TestWithParam<int> {};

TEST_P(InstanceLookupScaleTest, MatchesLinearScan) {
  const int n = GetParam();
  const ConstraintSchema schema = MixedSchema();
  Rng rng(testing::TestSeed(4321) + static_cast<uint64_t>(n));
  LicenseCatalog licenses(&schema);
  std::vector<HyperRect> rects;
  for (int i = 0; i < n; ++i) {
    // The last license contains every query, so the mask's last (often
    // partial) word is never all-zero.
    License license = RandomRedistribution(schema, i, i == n - 1, &rng);
    rects.push_back(license.rect());
    ASSERT_TRUE(licenses.Add(std::move(license)).ok());
  }
  const SoaRects soa = SoaRects::Build(rects);
  ASSERT_EQ(soa.result_words(), SoaRects::WordsFor(static_cast<size_t>(n)));
  const SoaInstanceValidator validator(&licenses);

  size_t hits = 0;
  for (int q = 0; q < 200; ++q) {
    const License usage = RandomUsage(schema, &rng);
    const LicenseSet want = testing::InstanceContainsLoop(licenses, usage);
    ASSERT_TRUE(want.Contains(n - 1));
    hits += static_cast<size_t>(want.Size());
    ASSERT_EQ(validator.SatisfyingSet(usage), want)
        << "query " << q << ": " << usage.rect().ToString();
    for (const simd::Tier tier : AvailableTiers()) {
      const simd::Kernels& kernels = simd::KernelsForTier(tier);
      uint64_t out[kMaxLicenseWords];
      soa.ContainingWithKernels(kernels, usage.rect(), out);
      ASSERT_EQ(LicenseSet::FromWords({out, soa.result_words()}), want)
          << "tier " << kernels.name << " query " << q << ": "
          << usage.rect().ToString();
    }
  }
  // Beyond the universal license, queries must hit the random ones too.
  EXPECT_GT(hits, 2 * 200u);
}

INSTANTIATE_TEST_SUITE_P(CatalogueSizes, InstanceLookupScaleTest,
                         ::testing::Values(63, 64, 65, 255, 256, 1023, 1024));

}  // namespace
}  // namespace geolic
