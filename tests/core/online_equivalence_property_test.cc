// Property test for paper Theorem 2 at the decision level: IssuanceService
// with and without grouping, plus a flat-tree equation oracle, must agree
// on every TryIssue — not just accept/reject, but the exact limiting
// equation on rejection. 500 seeded workloads; any failure logs its seed
// and is reproducible with GEOLIC_TEST_SEED.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "licensing/license.h"
#include "licensing/license_catalog.h"
#include "service/issuance_service.h"
#include "test_util.h"
#include "util/license_set.h"
#include "util/random.h"
#include "validation/flat_tree.h"
#include "validation/validation_tree.h"

namespace geolic {
namespace {

using geolic::testing::TestSeed;

constexpr int64_t kDomain = 24;

struct Workload {
  std::unique_ptr<ConstraintSchema> schema;
  std::unique_ptr<LicenseCatalog> licenses;
  std::vector<License> requests;
};

Workload Generate(uint64_t seed) {
  Rng rng(seed);
  Workload w;
  const int dims = static_cast<int>(rng.UniformInt(1, 2));
  w.schema = std::make_unique<ConstraintSchema>();
  for (int d = 0; d < dims; ++d) {
    GEOLIC_CHECK(
        w.schema->AddIntervalDimension("C" + std::to_string(d + 1)).ok());
  }
  w.licenses = std::make_unique<LicenseCatalog>(w.schema.get());
  const int license_count = static_cast<int>(rng.UniformInt(3, 8));
  for (int i = 0; i < license_count; ++i) {
    LicenseBuilder builder(w.schema.get());
    builder.SetId("L" + std::to_string(i + 1))
        .SetContentKey("K")
        .SetType(LicenseType::kRedistribution)
        .SetPermission(Permission::kPlay)
        .SetAggregateCount(rng.UniformInt(2, 10));
    for (int d = 0; d < dims; ++d) {
      const int64_t lo = rng.UniformInt(0, kDomain - 6);
      builder.SetInterval("C" + std::to_string(d + 1), lo,
                          lo + rng.UniformInt(3, 10));
    }
    const Result<License> license = builder.Build();
    GEOLIC_CHECK(license.ok());
    GEOLIC_CHECK(w.licenses->Add(*license).ok());
  }
  const int request_count = static_cast<int>(rng.UniformInt(15, 30));
  for (int r = 0; r < request_count; ++r) {
    LicenseBuilder builder(w.schema.get());
    builder.SetId("U" + std::to_string(r + 1))
        .SetContentKey("K")
        .SetType(LicenseType::kUsage)
        .SetPermission(Permission::kPlay)
        .SetAggregateCount(rng.UniformInt(1, 3));
    if (rng.Bernoulli(0.2)) {
      for (int d = 0; d < dims; ++d) {
        const int64_t lo = rng.UniformInt(0, kDomain - 1);
        builder.SetInterval("C" + std::to_string(d + 1), lo,
                            lo + rng.UniformInt(0, 4));
      }
    } else {
      const int target = static_cast<int>(
          rng.UniformIndex(static_cast<size_t>(w.licenses->size())));
      const License& inside = w.licenses->at(target);
      for (int d = 0; d < dims; ++d) {
        const Interval& range = inside.rect().dim(d).interval();
        const int64_t lo = rng.UniformInt(range.lo(), range.hi());
        builder.SetInterval("C" + std::to_string(d + 1), lo,
                            rng.UniformInt(lo, range.hi()));
      }
    }
    const Result<License> license = builder.Build();
    GEOLIC_CHECK(license.ok());
    w.requests.push_back(*license);
  }
  return w;
}

// Third, independently-coded implementation of the admission decision: S by
// linear containment scan, equations over ALL supersets of S (no grouping)
// in the same ascending-extension order, with every C⟨T⟩ answered by a
// FlatValidationTree compiled from the accepted history. Exercises the
// arena compiler and its pruned scans as a decision procedure.
class FlatTreeOracle {
 public:
  explicit FlatTreeOracle(const LicenseCatalog* licenses) : licenses_(licenses) {}

  OnlineDecision TryIssue(const License& issued) {
    OnlineDecision decision;
    for (int i = 0; i < licenses_->size(); ++i) {
      if (licenses_->at(i).InstanceContains(issued)) {
        decision.satisfying_set |= LicenseSet::Singleton(i);
      }
    }
    if (decision.satisfying_set.Empty()) {
      return decision;
    }
    decision.instance_valid = true;
    decision.aggregate_valid = true;
    const FlatValidationTree flat = FlatValidationTree::Compile(tree_);
    const int64_t count = issued.aggregate_count();
    const LicenseSet extension =
        licenses_->AllMask() - decision.satisfying_set;
    for (AscendingSubsetIterator it(extension); !it.Done(); it.Next()) {
      const LicenseSet t = decision.satisfying_set | it.subset();
      ++decision.equations_checked;
      const int64_t lhs = flat.SumSubsets(t) + count;
      const int64_t rhs = licenses_->AggregateSum(t);
      if (lhs > rhs) {
        decision.aggregate_valid = false;
        decision.limiting.set = t;
        decision.limiting.lhs = lhs;
        decision.limiting.rhs = rhs;
        break;
      }
    }
    if (decision.aggregate_valid) {
      GEOLIC_CHECK(tree_.Insert(decision.satisfying_set, count).ok());
    }
    return decision;
  }

 private:
  const LicenseCatalog* licenses_;
  ValidationTree tree_;
};

std::string Describe(const OnlineDecision& d) {
  std::string text = d.instance_valid ? "instance-valid " : "instance-invalid ";
  text += d.aggregate_valid ? "accepted" : "rejected";
  text += " S=" + d.satisfying_set.ToHex();
  if (d.instance_valid && !d.aggregate_valid) {
    text += " limiting T=" + d.limiting.set.ToHex() + " (" +
            std::to_string(d.limiting.lhs) + " > " +
            std::to_string(d.limiting.rhs) + ")";
  }
  return text;
}

bool SameDecision(const OnlineDecision& a, const OnlineDecision& b) {
  if (a.instance_valid != b.instance_valid ||
      a.satisfying_set != b.satisfying_set) {
    return false;
  }
  if (!a.instance_valid) {
    return true;
  }
  if (a.aggregate_valid != b.aggregate_valid) {
    return false;
  }
  if (!a.aggregate_valid &&
      (a.limiting.set != b.limiting.set || a.limiting.lhs != b.limiting.lhs ||
       a.limiting.rhs != b.limiting.rhs)) {
    return false;
  }
  return true;
}

TEST(OnlineEquivalenceProperty, GroupedUngroupedAndFlatTreeAgree) {
  const uint64_t base = TestSeed(1000);
  for (uint64_t seed = base; seed < base + 500; ++seed) {
    const Workload w = Generate(seed);

    OnlineValidatorOptions grouped_options;
    grouped_options.use_grouping = true;
    Result<std::unique_ptr<IssuanceService>> grouped =
        IssuanceService::Create(w.licenses.get(), grouped_options);
    ASSERT_TRUE(grouped.ok());

    OnlineValidatorOptions ungrouped_options;
    ungrouped_options.use_grouping = false;
    Result<std::unique_ptr<IssuanceService>> ungrouped =
        IssuanceService::Create(w.licenses.get(), ungrouped_options);
    ASSERT_TRUE(ungrouped.ok());

    FlatTreeOracle oracle(w.licenses.get());

    for (size_t r = 0; r < w.requests.size(); ++r) {
      const Result<OnlineDecision> g = (*grouped)->TryIssue(w.requests[r]);
      const Result<OnlineDecision> u = (*ungrouped)->TryIssue(w.requests[r]);
      ASSERT_TRUE(g.ok());
      ASSERT_TRUE(u.ok());
      const OnlineDecision o = oracle.TryIssue(w.requests[r]);

      ASSERT_TRUE(SameDecision(*g, *u))
          << "seed " << seed << " request " << r
          << ": grouped {" << Describe(*g) << "} vs ungrouped {"
          << Describe(*u) << "}"
          << "\nrepro: GEOLIC_TEST_SEED=" << seed
          << " ctest -R online_equivalence_property_test";
      ASSERT_TRUE(SameDecision(*u, o))
          << "seed " << seed << " request " << r
          << ": ungrouped {" << Describe(*u) << "} vs flat-tree oracle {"
          << Describe(o) << "}"
          << "\nrepro: GEOLIC_TEST_SEED=" << seed
          << " ctest -R online_equivalence_property_test";

      // Theorem 2's point: grouping only ever shrinks the equation scan.
      if (g->instance_valid) {
        EXPECT_LE(g->equations_checked, u->equations_checked)
            << "seed " << seed << " request " << r;
      }
    }
  }
}

}  // namespace
}  // namespace geolic
