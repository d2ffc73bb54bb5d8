// The combinatorial heart of the paper: the validation equations
// C⟨S⟩ ≤ A[S] (for all S) hold **iff** the issued counts can actually be
// assigned to redistribution licenses without exceeding any aggregate
// budget. The "only if" direction is why equation-based validation never
// wrongly accepts; the "if" direction (Gale–Hoffman feasibility) is why it
// never wrongly rejects — the advantage over greedy single-license
// charging that Example 1 illustrates.
//
// We verify the equivalence empirically: for random logs and aggregates,
// all-equations-valid ⟺ a transportation max-flow saturates every demand.
#include <gtest/gtest.h>

#include "graph/max_flow.h"
#include "util/random.h"
#include "validation/validation_tree.h"
#include "validation/validate.h"

#include "test_util.h"

namespace geolic {
namespace {

// Adapters over the Validate facade (validation/validate.h).
Result<ValidationReport> RunExhaustive(
    const ValidationTree& tree, const std::vector<int64_t>& aggregates) {
  ValidateOptions options;
  options.mode = ValidationMode::kExhaustive;
  Result<ValidationOutcome> outcome = Validate(tree, aggregates, options);
  if (!outcome.ok()) return outcome.status();
  return std::move(outcome->report);
}

// Max-flow feasibility: can every merged set count be split among the
// set's member licenses within the aggregate budgets?
bool AssignmentFeasible(
    const std::unordered_map<LicenseSet, int64_t>& merged_counts,
    const std::vector<int64_t>& aggregates) {
  const int n = static_cast<int>(aggregates.size());
  const int num_sets = static_cast<int>(merged_counts.size());
  // Nodes: 0 = source, 1..num_sets = set nodes, then license nodes, sink.
  const int license_base = 1 + num_sets;
  const int sink = license_base + n;
  MaxFlow flow(sink + 1);
  int64_t total_demand = 0;
  int set_node = 1;
  for (const auto& [set, count] : merged_counts) {
    flow.AddEdge(0, set_node, count);
    total_demand += count;
    for (int license : (set).ToIndexes()) {
      flow.AddEdge(set_node, license_base + license, MaxFlow::kInfinity);
    }
    ++set_node;
  }
  for (int license = 0; license < n; ++license) {
    flow.AddEdge(license_base + license, sink,
                 aggregates[static_cast<size_t>(license)]);
  }
  const Result<int64_t> max_flow = flow.Compute(0, sink);
  GEOLIC_CHECK(max_flow.ok());
  return *max_flow == total_demand;
}

class FeasibilityEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(FeasibilityEquivalenceTest, EquationsHoldIffAssignmentExists) {
  const int n = GetParam();
  Rng rng(424200 + static_cast<uint64_t>(n));
  int valid_cases = 0;
  int invalid_cases = 0;
  for (int trial = 0; trial < 60; ++trial) {
    // Random log over n licenses.
    ValidationTree tree;
    LogStore store;
    const int records = static_cast<int>(rng.UniformInt(5, 60));
    for (int r = 0; r < records; ++r) {
      const LicenseSet set =
          (LicenseSet::FromWord(rng.Next()) & LicenseSet::Full(n)) |
          LicenseSet::Singleton(static_cast<int>(rng.UniformInt(0, n - 1)));
      const int64_t count = rng.UniformInt(1, 60);
      ASSERT_TRUE(tree.Insert(set, count).ok());
      ASSERT_TRUE(store.Append(LogRecord{"", set, count}).ok());
    }
    // Aggregates straddling the feasibility boundary: total budget scales
    // inversely with n so both verdicts occur at every parameter point.
    std::vector<int64_t> aggregates;
    for (int j = 0; j < n; ++j) {
      aggregates.push_back(rng.UniformInt(10, 1 + 2400 / n));
    }
    const Result<ValidationReport> report =
        RunExhaustive(tree, aggregates);
    ASSERT_TRUE(report.ok());
    const bool equations_hold = report->all_valid();
    const bool feasible =
        AssignmentFeasible(store.MergedCounts(), aggregates);
    ASSERT_EQ(equations_hold, feasible)
        << "n=" << n << " trial=" << trial;
    if (equations_hold) {
      ++valid_cases;
    } else {
      ++invalid_cases;
    }
  }
  // The parameterisation must actually exercise both sides.
  EXPECT_GT(valid_cases, 0) << "tighten aggregates";
  EXPECT_GT(invalid_cases, 0) << "loosen aggregates";
}

INSTANTIATE_TEST_SUITE_P(LicenseCounts, FeasibilityEquivalenceTest,
                         ::testing::Values(2, 3, 5, 8, 11));

TEST(FeasibilityTest, PaperTable2IsFeasible) {
  std::unordered_map<LicenseSet, int64_t> merged = {
      {testing::Mask(0b00011), 840}, {testing::Mask(0b00010), 400}, {testing::Mask(0b01011), 30},
      {testing::Mask(0b10100), 800}, {testing::Mask(0b10000), 20},
  };
  EXPECT_TRUE(
      AssignmentFeasible(merged, {2000, 1000, 3000, 4000, 2000}));
}

TEST(FeasibilityTest, Example1GreedyTrapIsFeasible) {
  // LU1 (800, {L1,L2}) + LU2 (400, {L2}): feasible by assigning LU1 → L1 —
  // exactly the assignment the paper's random pick misses.
  std::unordered_map<LicenseSet, int64_t> merged = {{testing::Mask(0b01), 0},
                                                     {testing::Mask(0b11), 800},
                                                     {testing::Mask(0b10), 400}};
  EXPECT_TRUE(AssignmentFeasible(merged, {2000, 1000}));
  // With A2 = 1000 and demands {L2}-only of 1100, infeasible.
  merged = {{testing::Mask(0b10), 1100}};
  EXPECT_FALSE(AssignmentFeasible(merged, {2000, 1000}));
}

}  // namespace
}  // namespace geolic
