#include "core/instance_validator.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/random.h"

namespace geolic {
namespace {

using testing::InstanceContainsLoop;
using testing::IntervalSchema;
using testing::MakeRedistribution;
using testing::MakeUsage;

TEST(SoaInstanceValidatorTest, FindsAllContainingLicenses) {
  const ConstraintSchema schema = IntervalSchema(2);
  LicenseCatalog set(&schema);
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD1", {{0, 20}, {0, 20}}, 1)).ok());
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD2", {{5, 25}, {5, 25}}, 1)).ok());
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD3", {{50, 60}, {50, 60}}, 1))
          .ok());
  const SoaInstanceValidator validator(&set);

  // Inside LD1 and LD2.
  EXPECT_EQ(validator.SatisfyingSet(
                MakeUsage(schema, "LU1", {{6, 19}, {6, 19}}, 1)),
            testing::Mask(0b011));
  // Inside LD1 only.
  EXPECT_EQ(validator.SatisfyingSet(
                MakeUsage(schema, "LU2", {{0, 4}, {0, 4}}, 1)),
            testing::Mask(0b001));
  // Inside none (straddles LD1's edge) — the paper's invalid L_U^2 case.
  EXPECT_EQ(validator.SatisfyingSet(
                MakeUsage(schema, "LU3", {{15, 30}, {0, 4}}, 1)),
            testing::Mask(0));
  // Inside LD3 only.
  EXPECT_EQ(validator.SatisfyingSet(
                MakeUsage(schema, "LU4", {{55, 56}, {55, 56}}, 1)),
            testing::Mask(0b100));
}

TEST(SoaInstanceValidatorTest, EmptyCatalogSatisfiesNothing) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  const SoaInstanceValidator validator(&set);
  EXPECT_TRUE(
      validator.SatisfyingSet(MakeUsage(schema, "LU", {{1, 2}}, 1)).Empty());
}

TEST(SoaInstanceValidatorTest, OtherContentOrPermissionSatisfiesNothing) {
  // The catalog-wide content/permission compare must reject exactly what
  // the per-license InstanceContains prechecks reject.
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD1", {{0, 100}}, 1)).ok());
  const SoaInstanceValidator validator(&set);
  auto usage = [&](const std::string& content, Permission permission) {
    LicenseBuilder builder(&schema);
    builder.SetId("LU")
        .SetContentKey(content)
        .SetType(LicenseType::kUsage)
        .SetPermission(permission)
        .SetAggregateCount(1)
        .SetInterval("C1", 10, 20);
    return *builder.Build();
  };
  for (const License& issued :
       {usage("K", Permission::kPlay), usage("other", Permission::kPlay),
        usage("K", Permission::kCopy)}) {
    EXPECT_EQ(validator.SatisfyingSet(issued),
              InstanceContainsLoop(set, issued))
        << issued.content_key();
  }
  EXPECT_EQ(validator.SatisfyingSet(usage("K", Permission::kPlay)),
            testing::Mask(0b1));
}

// Property: the SoA lookup agrees with the InstanceContains loop on random
// license sets and random usage licenses, across dimensionalities.
class InstanceBackendAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(InstanceBackendAgreementTest, BackendsAgree) {
  const int dims = GetParam();
  const ConstraintSchema schema = IntervalSchema(dims);
  Rng rng(86000 + static_cast<uint64_t>(dims));
  for (int trial = 0; trial < 10; ++trial) {
    LicenseCatalog set(&schema);
    const int n = static_cast<int>(rng.UniformInt(1, 40));
    for (int i = 0; i < n; ++i) {
      std::vector<std::pair<int64_t, int64_t>> ranges;
      for (int d = 0; d < dims; ++d) {
        const int64_t lo = rng.UniformInt(0, 80);
        ranges.push_back({lo, lo + rng.UniformInt(0, 40)});
      }
      ASSERT_TRUE(
          set.Add(MakeRedistribution(schema, "LD" + std::to_string(i), ranges,
                                     1))
              .ok());
    }
    const SoaInstanceValidator soa(&set);
    for (int q = 0; q < 50; ++q) {
      std::vector<std::pair<int64_t, int64_t>> ranges;
      for (int d = 0; d < dims; ++d) {
        const int64_t lo = rng.UniformInt(0, 110);
        ranges.push_back({lo, lo + rng.UniformInt(0, 20)});
      }
      const License usage = MakeUsage(schema, "LU", ranges, 1);
      EXPECT_EQ(soa.SatisfyingSet(usage), InstanceContainsLoop(set, usage));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dimensions, InstanceBackendAgreementTest,
                         ::testing::Values(1, 2, 3, 4, 6));

TEST(InstanceValidatorTest, CategoricalDimensionsHandledExactly) {
  // Category cells go through the mask-superset kernel, not an interval
  // over-approximation: India lies inside Asia only, never Europe.
  ConstraintSchema schema;
  ASSERT_TRUE(schema.AddIntervalDimension("T").ok());
  ASSERT_TRUE(
      schema.AddCategoricalDimension("R", CategoryUniverse::WorldRegions())
          .ok());
  LicenseCatalog set(&schema);

  auto make = [&](const std::string& id, int64_t lo, int64_t hi,
                  const std::vector<std::string>& regions) {
    LicenseBuilder builder(&schema);
    builder.SetId(id)
        .SetContentKey("K")
        .SetType(LicenseType::kRedistribution)
        .SetPermission(Permission::kPlay)
        .SetAggregateCount(10)
        .SetInterval("T", lo, hi)
        .SetCategories("R", regions);
    return *builder.Build();
  };
  ASSERT_TRUE(set.Add(make("LD1", 0, 10, {"Asia"})).ok());
  ASSERT_TRUE(set.Add(make("LD2", 0, 10, {"Europe"})).ok());

  LicenseBuilder usage_builder(&schema);
  usage_builder.SetId("LU")
      .SetContentKey("K")
      .SetType(LicenseType::kUsage)
      .SetPermission(Permission::kPlay)
      .SetAggregateCount(1)
      .SetInterval("T", 2, 3)
      .SetCategories("R", {"India"});
  const License usage = *usage_builder.Build();

  const SoaInstanceValidator soa(&set);
  EXPECT_EQ(InstanceContainsLoop(set, usage),
            testing::Mask(0b01));  // Asia only, not Europe.
  EXPECT_EQ(soa.SatisfyingSet(usage), testing::Mask(0b01));
}

}  // namespace
}  // namespace geolic
