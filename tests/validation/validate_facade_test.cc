#include "validation/validate.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.h"
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

Result<ValidationReport> RunExhaustiveLimited(
    const ValidationTree& tree, const std::vector<int64_t>& aggregates,
    uint64_t max_equations) {
  ValidateOptions options;
  options.mode = ValidationMode::kExhaustive;
  options.max_equations = max_equations;
  Result<ValidationOutcome> outcome = Validate(tree, aggregates, options);
  if (!outcome.ok()) return outcome.status();
  return std::move(outcome->report);
}

Result<ValidationReport> RunZeta(const ValidationTree& tree,
                                 const std::vector<int64_t>& aggregates,
                                 int max_dense_n = 26) {
  ValidateOptions options;
  options.mode = ValidationMode::kZeta;
  options.max_dense_n = max_dense_n;
  Result<ValidationOutcome> outcome = Validate(tree, aggregates, options);
  if (!outcome.ok()) return outcome.status();
  return std::move(outcome->report);
}

using testing::IntervalSchema;
using testing::MakeRedistribution;

void ExpectSameReport(const ValidationReport& a, const ValidationReport& b) {
  EXPECT_EQ(a.equations_evaluated, b.equations_evaluated);
  EXPECT_EQ(a.nodes_visited, b.nodes_visited);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].set, b.violations[i].set) << i;
    EXPECT_EQ(a.violations[i].lhs, b.violations[i].lhs) << i;
    EXPECT_EQ(a.violations[i].rhs, b.violations[i].rhs) << i;
  }
}

// Three overlap groups (sizes 3, 2, 1) with budgets tight enough that the
// log below violates some equations — non-trivial reports on both paths.
LicenseCatalog Licenses(const ConstraintSchema& schema) {
  LicenseCatalog licenses(&schema);
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L1", {{0, 20}}, 30)).ok());
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L2", {{10, 30}}, 25)).ok());
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L3", {{25, 40}}, 20)).ok());
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L4", {{100, 120}}, 15)).ok());
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L5", {{110, 130}}, 10)).ok());
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L6", {{200, 210}}, 5)).ok());
  return licenses;
}

LogStore Log() {
  LogStore log;
  const std::vector<std::pair<LicenseSet, int64_t>> records = {
      {testing::Mask(0b000001), 12}, {testing::Mask(0b000011), 9},  {testing::Mask(0b000010), 14}, {testing::Mask(0b000110), 7},
      {testing::Mask(0b000100), 8},  {testing::Mask(0b001000), 6},  {testing::Mask(0b011000), 5},  {testing::Mask(0b010000), 9},
      {testing::Mask(0b100000), 4},  {testing::Mask(0b000011), 3},  {testing::Mask(0b001000), 2},  {testing::Mask(0b100000), 3},
  };
  int sequence = 0;
  for (const auto& [set, count] : records) {
    LogRecord record;
    record.issued_license_id = "U" + std::to_string(++sequence);
    record.set = set;
    record.count = count;
    EXPECT_TRUE(log.Append(record).ok());
  }
  return log;
}

ValidationTree Tree() {
  Result<ValidationTree> tree = ValidationTree::BuildFromLog(Log());
  EXPECT_TRUE(tree.ok());
  return std::move(*tree);
}

TEST(ValidateFacadeTest, ExhaustiveWrapperIsByteIdentical) {
  const ConstraintSchema schema = IntervalSchema(1);
  const std::vector<int64_t> aggregates =
      Licenses(schema).AggregateCounts();
  const ValidationTree tree = Tree();

  const Result<ValidationReport> old_report =
      RunExhaustive(tree, aggregates);
  ValidateOptions options;
  options.mode = ValidationMode::kExhaustive;
  const Result<ValidationOutcome> outcome =
      Validate(tree, aggregates, options);
  ASSERT_TRUE(old_report.ok());
  ASSERT_TRUE(outcome.ok());
  ExpectSameReport(*old_report, outcome->report);
  EXPECT_FALSE(outcome->report.all_valid());  // The workload overspends.
  EXPECT_EQ(outcome->group_count, 0);         // Ungrouped engine.
}

TEST(ValidateFacadeTest, LimitedWrapperIsByteIdentical) {
  const ConstraintSchema schema = IntervalSchema(1);
  const std::vector<int64_t> aggregates =
      Licenses(schema).AggregateCounts();
  const ValidationTree tree = Tree();

  const Result<ValidationReport> old_report =
      RunExhaustiveLimited(tree, aggregates, 17);
  ValidateOptions options;
  options.mode = ValidationMode::kExhaustive;
  options.max_equations = 17;
  const Result<ValidationOutcome> outcome =
      Validate(tree, aggregates, options);
  ASSERT_TRUE(old_report.ok());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(old_report->equations_evaluated, 17u);
  ExpectSameReport(*old_report, outcome->report);
}

TEST(ValidateFacadeTest, ZetaWrapperIsByteIdentical) {
  const ConstraintSchema schema = IntervalSchema(1);
  const std::vector<int64_t> aggregates =
      Licenses(schema).AggregateCounts();
  const ValidationTree tree = Tree();

  const Result<ValidationReport> old_report = RunZeta(tree, aggregates);
  ValidateOptions options;
  options.mode = ValidationMode::kZeta;
  const Result<ValidationOutcome> outcome =
      Validate(tree, aggregates, options);
  ASSERT_TRUE(old_report.ok());
  ASSERT_TRUE(outcome.ok());
  ExpectSameReport(*old_report, outcome->report);

  // Zeta and exhaustive agree on violations (the library-wide invariant the
  // facade must not disturb).
  const Result<ValidationReport> exhaustive =
      RunExhaustive(tree, aggregates);
  ASSERT_TRUE(exhaustive.ok());
  ASSERT_EQ(old_report->violations.size(), exhaustive->violations.size());
}

TEST(ValidateFacadeTest, ParallelMatchesSerialReports) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = Licenses(schema);
  const std::vector<int64_t> aggregates = licenses.AggregateCounts();
  const ValidationTree tree = Tree();

  const Result<ValidationReport> serial = RunExhaustive(tree, aggregates);
  ASSERT_TRUE(serial.ok());
  ValidateOptions options;
  options.mode = ValidationMode::kExhaustive;
  options.num_threads = 4;
  const Result<ValidationOutcome> outcome =
      Validate(tree, aggregates, options);
  ASSERT_TRUE(outcome.ok());
  ExpectSameReport(outcome->report, *serial);

  ValidateOptions grouped_options;
  grouped_options.mode = ValidationMode::kGrouped;
  const Result<ValidationOutcome> grouped =
      Validate(licenses, Tree(), grouped_options);
  grouped_options.num_threads = 4;
  const Result<ValidationOutcome> grouped_parallel =
      Validate(licenses, Tree(), grouped_options);
  ASSERT_TRUE(grouped.ok());
  ASSERT_TRUE(grouped_parallel.ok());
  ExpectSameReport(grouped_parallel->report, grouped->report);
}

TEST(ValidateFacadeTest, AutoModeRoutesBySize) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = Licenses(schema);
  const std::vector<int64_t> aggregates = licenses.AggregateCounts();

  // Tree overload: kAuto without geometry picks a dense ungrouped engine.
  const Result<ValidationOutcome> ungrouped = Validate(Tree(), aggregates);
  ASSERT_TRUE(ungrouped.ok());
  EXPECT_EQ(ungrouped->group_count, 0);

  // LicenseCatalog overload: kAuto runs the paper's grouped pipeline.
  const Result<ValidationOutcome> grouped = Validate(licenses, Tree());
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped->group_count, 3);
  EXPECT_EQ(grouped->group_sizes, (std::vector<int>{3, 2, 1}));

  // Both engines flag the workload; the grouped report checks only
  // within-group equations (cross-group supersets are implied — Theorem 2),
  // so its violation list is a subset of the exhaustive one.
  EXPECT_FALSE(ungrouped->report.all_valid());
  EXPECT_FALSE(grouped->report.all_valid());
  EXPECT_LE(grouped->report.violations.size(),
            ungrouped->report.violations.size());
}

TEST(ValidateFacadeTest, GroupedModeNeedsGeometry) {
  const ConstraintSchema schema = IntervalSchema(1);
  const std::vector<int64_t> aggregates =
      Licenses(schema).AggregateCounts();
  ValidateOptions options;
  options.mode = ValidationMode::kGrouped;
  const Result<ValidationOutcome> outcome =
      Validate(Tree(), aggregates, options);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
}

#ifndef GEOLIC_DISABLE_TRACING
// The grouped engine records exactly one D_T span (grouping + division +
// reindexing) and one V_T span (all per-group evaluation), whatever the
// per-group engine and however many workers evaluate the groups.
TEST(ValidateFacadeTest, GroupedModesRecordOneSpanPerStage) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = Licenses(schema);
  for (const ValidationMode mode :
       {ValidationMode::kGrouped, ValidationMode::kGroupedZeta}) {
    for (const int threads : {1, 2}) {
      Tracer tracer;
      ValidateOptions options;
      options.mode = mode;
      options.num_threads = threads;
      options.tracer = &tracer;
      const Result<ValidationOutcome> outcome =
          Validate(licenses, Log(), options);
      ASSERT_TRUE(outcome.ok());
      EXPECT_EQ(outcome->group_count, 3);
      int division = 0;
      int validation = 0;
      for (const TraceSpan& span : tracer.CollectSpans()) {
        division += span.stage == TraceStage::kTreeDivision ? 1 : 0;
        validation += span.stage == TraceStage::kOfflineValidation ? 1 : 0;
      }
      const std::string where = std::string(mode == ValidationMode::kGrouped
                                                ? "kGrouped"
                                                : "kGroupedZeta") +
                                " threads=" + std::to_string(threads);
      EXPECT_EQ(division, 1) << where;
      EXPECT_EQ(validation, 1) << where;
      EXPECT_EQ(tracer.spans_recorded(), 2u) << where;
    }
  }
}
#endif  // GEOLIC_DISABLE_TRACING

}  // namespace
}  // namespace geolic
