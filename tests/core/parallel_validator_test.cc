#include "validation/validate.h"

#include <utility>

#include <gtest/gtest.h>

#include "workload/workload.h"

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

// Equation-range sharding over `num_threads` workers.
Result<ValidationReport> RunExhaustiveParallel(
    const ValidationTree& tree, const std::vector<int64_t>& aggregates,
    int num_threads) {
  ValidateOptions options;
  options.mode = ValidationMode::kExhaustive;
  options.num_threads = num_threads;
  Result<ValidationOutcome> outcome = Validate(tree, aggregates, options);
  if (!outcome.ok()) return outcome.status();
  return std::move(outcome->report);
}

// Grouped validation with one task per group over `num_threads` workers.
Result<ValidationOutcome> RunGrouped(const LicenseCatalog& licenses,
                                     ValidationTree tree, int num_threads) {
  ValidateOptions options;
  options.mode = ValidationMode::kGrouped;
  options.num_threads = num_threads;
  return Validate(licenses, std::move(tree), options);
}

TEST(ParallelValidatorTest, EmptyInputs) {
  ValidationTree tree;
  const Result<ValidationReport> report =
      RunExhaustiveParallel(tree, {}, 4);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->all_valid());
}

TEST(ParallelValidatorTest, RejectsBadInputs) {
  ValidationTree tree;
  ASSERT_TRUE(tree.Insert(LicenseSet::Singleton(3), 1).ok());
  EXPECT_FALSE(RunExhaustiveParallel(tree, {10, 10}, 4).ok());
  EXPECT_FALSE(
      RunExhaustiveParallel(tree, std::vector<int64_t>(65, 1), 4).ok());
}

// Property: the parallel exhaustive validator produces a byte-identical
// report to the sequential one, for every thread count.
class ParallelEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelEquivalenceTest, MatchesSequential) {
  const int threads = GetParam();
  for (int n : {1, 2, 5, 9, 13}) {
    WorkloadConfig config = PaperSweepConfig(n, 37);
    config.num_records = 600;
    config.aggregate_min = 50;
    config.aggregate_max = 600;  // Violations likely.
    Result<Workload> workload = WorkloadGenerator(config).Generate();
    ASSERT_TRUE(workload.ok());
    const Result<ValidationTree> tree =
        ValidationTree::BuildFromLog(workload->log);
    ASSERT_TRUE(tree.ok());
    const std::vector<int64_t> aggregates =
        workload->licenses->AggregateCounts();

    const Result<ValidationReport> sequential =
        RunExhaustive(*tree, aggregates);
    const Result<ValidationReport> parallel =
        RunExhaustiveParallel(*tree, aggregates, threads);
    ASSERT_TRUE(sequential.ok());
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->equations_evaluated,
              sequential->equations_evaluated);
    EXPECT_EQ(parallel->nodes_visited, sequential->nodes_visited);
    ASSERT_EQ(parallel->violations.size(), sequential->violations.size());
    for (size_t i = 0; i < parallel->violations.size(); ++i) {
      EXPECT_EQ(parallel->violations[i].set, sequential->violations[i].set);
      EXPECT_EQ(parallel->violations[i].lhs, sequential->violations[i].lhs);
      EXPECT_EQ(parallel->violations[i].rhs, sequential->violations[i].rhs);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelEquivalenceTest,
                         ::testing::Values(1, 2, 3, 8));

TEST(ParallelGroupedTest, MatchesSequentialGrouped) {
  for (uint64_t seed : {5u, 6u, 7u}) {
    WorkloadConfig config = PaperSweepConfig(12, seed);
    config.num_records = 900;
    config.aggregate_min = 50;
    config.aggregate_max = 600;
    Result<Workload> workload = WorkloadGenerator(config).Generate();
    ASSERT_TRUE(workload.ok());

    Result<ValidationTree> tree1 =
        ValidationTree::BuildFromLog(workload->log);
    Result<ValidationTree> tree2 =
        ValidationTree::BuildFromLog(workload->log);
    ASSERT_TRUE(tree1.ok());
    ASSERT_TRUE(tree2.ok());

    const Result<ValidationOutcome> sequential =
        RunGrouped(*workload->licenses, *std::move(tree1), 1);
    const Result<ValidationOutcome> parallel =
        RunGrouped(*workload->licenses, *std::move(tree2), 4);
    ASSERT_TRUE(sequential.ok());
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->group_count, sequential->group_count);
    EXPECT_EQ(parallel->group_sizes, sequential->group_sizes);
    EXPECT_EQ(parallel->report.equations_evaluated,
              sequential->report.equations_evaluated);
    ASSERT_EQ(parallel->report.violations.size(),
              sequential->report.violations.size());
    for (size_t i = 0; i < parallel->report.violations.size(); ++i) {
      EXPECT_EQ(parallel->report.violations[i].set,
                sequential->report.violations[i].set);
      EXPECT_EQ(parallel->report.violations[i].lhs,
                sequential->report.violations[i].lhs);
    }
  }
}

}  // namespace
}  // namespace geolic
