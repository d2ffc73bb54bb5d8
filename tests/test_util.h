#ifndef GEOLIC_TESTS_TEST_UTIL_H_
#define GEOLIC_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "geometry/hyper_rect.h"
#include "licensing/constraint_schema.h"
#include "licensing/license.h"
#include "licensing/license_catalog.h"
#include "util/check.h"
#include "util/license_set.h"
#include "util/random.h"
#include "validation/log_store.h"
#include "validation/validate.h"

namespace geolic::testing {

// Shorthand for a single-word LicenseSet literal: Mask(0b101) == {L1, L3}.
inline LicenseSet Mask(uint64_t word) { return LicenseSet::FromWord(word); }

// The paper's instance-based validation predicate, one license at a time:
// every redistribution license whose InstanceContains accepts `issued`.
// This is the reference SoaInstanceValidator is held to, and the rule
// sim::ReferenceModel executes as the spec.
inline LicenseSet InstanceContainsLoop(const LicenseCatalog& licenses,
                                       const License& issued) {
  LicenseSet set;
  for (int i = 0; i < licenses.size(); ++i) {
    if (licenses.at(i).InstanceContains(issued)) {
      set |= LicenseSet::Singleton(i);
    }
  }
  return set;
}

// The paper's offline audit: grouped validation of `log` against
// `licenses` (grouping, tree division, Algorithm 2 per group).
inline Result<ValidationOutcome> GroupedAudit(const LicenseCatalog& licenses,
                                              const LogStore& log) {
  ValidateOptions options;
  options.mode = ValidationMode::kGrouped;
  return Validate(licenses, log, options);
}

// Seed for randomized tests: `default_seed` unless the GEOLIC_TEST_SEED
// environment variable overrides it (parsed with base auto-detection, so
// both 123 and 0x7b work). Always logs the seed in effect, so any failure
// report carries the line needed to reproduce it:
//   GEOLIC_TEST_SEED=<seed> ctest -R <test> --output-on-failure
inline uint64_t TestSeed(uint64_t default_seed) {
  uint64_t seed = default_seed;
  const char* env = std::getenv("GEOLIC_TEST_SEED");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 0);
    if (end != env && *end == '\0') {
      seed = static_cast<uint64_t>(parsed);
    } else {
      std::fprintf(stderr,
                   "[ seed ] ignoring unparseable GEOLIC_TEST_SEED=\"%s\"\n",
                   env);
    }
  }
  std::fprintf(stderr, "[ seed ] using seed %llu (override: GEOLIC_TEST_SEED)\n",
               static_cast<unsigned long long>(seed));
  return seed;
}

// Schema with `dims` integer interval dimensions named C1..Cdims.
inline ConstraintSchema IntervalSchema(int dims) {
  ConstraintSchema schema;
  for (int d = 0; d < dims; ++d) {
    GEOLIC_CHECK(
        schema.AddIntervalDimension("C" + std::to_string(d + 1)).ok());
  }
  return schema;
}

// Hyper-rectangle from interval endpoint pairs: {{0,10},{5,7}} → two dims.
inline HyperRect Rect(
    const std::vector<std::pair<int64_t, int64_t>>& intervals) {
  std::vector<ConstraintRange> dims;
  dims.reserve(intervals.size());
  for (const auto& [lo, hi] : intervals) {
    dims.push_back(ConstraintRange(Interval(lo, hi)));
  }
  return HyperRect(std::move(dims));
}

// Redistribution license over `schema` (interval dims) with the given
// ranges and aggregate count.
inline License MakeRedistribution(
    const ConstraintSchema& schema, const std::string& id,
    const std::vector<std::pair<int64_t, int64_t>>& intervals,
    int64_t aggregate) {
  LicenseBuilder builder(&schema);
  builder.SetId(id)
      .SetContentKey("K")
      .SetType(LicenseType::kRedistribution)
      .SetPermission(Permission::kPlay)
      .SetAggregateCount(aggregate);
  for (size_t d = 0; d < intervals.size(); ++d) {
    builder.SetInterval("C" + std::to_string(d + 1), intervals[d].first,
                        intervals[d].second);
  }
  const Result<License> license = builder.Build();
  GEOLIC_CHECK(license.ok());
  return *license;
}

// Usage license, same shape.
inline License MakeUsage(
    const ConstraintSchema& schema, const std::string& id,
    const std::vector<std::pair<int64_t, int64_t>>& intervals,
    int64_t count) {
  LicenseBuilder builder(&schema);
  builder.SetId(id)
      .SetContentKey("K")
      .SetType(LicenseType::kUsage)
      .SetPermission(Permission::kPlay)
      .SetAggregateCount(count);
  for (size_t d = 0; d < intervals.size(); ++d) {
    builder.SetInterval("C" + std::to_string(d + 1), intervals[d].first,
                        intervals[d].second);
  }
  const Result<License> license = builder.Build();
  GEOLIC_CHECK(license.ok());
  return *license;
}

// Random hyper-rectangle with `dims` interval dimensions inside
// [0, domain).
inline HyperRect RandomRect(Rng* rng, int dims, int64_t domain) {
  std::vector<ConstraintRange> ranges;
  ranges.reserve(static_cast<size_t>(dims));
  for (int d = 0; d < dims; ++d) {
    const int64_t lo = rng->UniformInt(0, domain - 1);
    const int64_t hi = rng->UniformInt(lo, domain - 1);
    ranges.push_back(ConstraintRange(Interval(lo, hi)));
  }
  return HyperRect(std::move(ranges));
}

}  // namespace geolic::testing

#endif  // GEOLIC_TESTS_TEST_UTIL_H_
