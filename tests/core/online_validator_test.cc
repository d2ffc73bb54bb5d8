// The paper's online rule (eq. 1 restricted by Theorem 2) as answered by
// the one admission engine: an IssuanceService decides one issuance at a
// time, checking every equation T with S ⊆ T ⊆ S's overlap group.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "service/issuance_service.h"
#include "test_util.h"
#include "util/random.h"

namespace geolic {
namespace {

using testing::IntervalSchema;
using testing::MakeRedistribution;
using testing::MakeUsage;

OnlineValidatorOptions Grouped(bool use_grouping) {
  OnlineValidatorOptions options;
  options.use_grouping = use_grouping;
  return options;
}

// L1 [0,20] A=100, L2 [10,30] A=50, L3 [100,120] A=30 — two groups.
LicenseCatalog SmallSet(const ConstraintSchema& schema) {
  LicenseCatalog set(&schema);
  GEOLIC_CHECK(
      set.Add(MakeRedistribution(schema, "LD1", {{0, 20}}, 100)).ok());
  GEOLIC_CHECK(
      set.Add(MakeRedistribution(schema, "LD2", {{10, 30}}, 50)).ok());
  GEOLIC_CHECK(
      set.Add(MakeRedistribution(schema, "LD3", {{100, 120}}, 30)).ok());
  return set;
}

TEST(OnlineValidationTest, AcceptsValidIssue) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog set = SmallSet(schema);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&set);
  ASSERT_TRUE(service.ok());
  const Result<OnlineDecision> decision =
      (*service)->TryIssue(MakeUsage(schema, "LU1", {{2, 5}}, 40));
  ASSERT_TRUE(decision.ok());
  EXPECT_TRUE(decision->accepted());
  EXPECT_TRUE(decision->instance_valid);
  EXPECT_TRUE(decision->aggregate_valid);
  EXPECT_EQ(decision->satisfying_set, testing::Mask(0b001));
  EXPECT_EQ((*service)->CollectLog().size(), 1u);
  const Result<ValidationTree> tree = (*service)->CollectTree();
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->CountOf(testing::Mask(0b001)), 40);
}

TEST(OnlineValidationTest, RejectsInstanceInvalid) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog set = SmallSet(schema);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&set);
  ASSERT_TRUE(service.ok());
  // [25, 50] is not inside any license.
  const Result<OnlineDecision> decision =
      (*service)->TryIssue(MakeUsage(schema, "LU1", {{25, 50}}, 5));
  ASSERT_TRUE(decision.ok());
  EXPECT_FALSE(decision->accepted());
  EXPECT_FALSE(decision->instance_valid);
  EXPECT_EQ((*service)->CollectLog().size(), 0u);  // Nothing recorded.
}

TEST(OnlineValidationTest, RejectsAggregateOverflowAndReportsEquation) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog set = SmallSet(schema);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&set);
  ASSERT_TRUE(service.ok());
  // L3's budget is 30: a 31-count usage inside L3 must be rejected.
  const Result<OnlineDecision> decision =
      (*service)->TryIssue(MakeUsage(schema, "LU1", {{105, 110}}, 31));
  ASSERT_TRUE(decision.ok());
  EXPECT_TRUE(decision->instance_valid);
  EXPECT_FALSE(decision->aggregate_valid);
  EXPECT_FALSE(decision->accepted());
  EXPECT_EQ(decision->limiting.set, testing::Mask(0b100));
  EXPECT_EQ(decision->limiting.lhs, 31);
  EXPECT_EQ(decision->limiting.rhs, 30);
  EXPECT_EQ((*service)->CollectLog().size(), 0u);
}

TEST(OnlineValidationTest, ExhaustsBudgetExactlyThenRejects) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog set = SmallSet(schema);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&set);
  ASSERT_TRUE(service.ok());
  // Three 10-count issues exhaust L3's 30.
  for (int i = 0; i < 3; ++i) {
    const Result<OnlineDecision> decision =
        (*service)->TryIssue(MakeUsage(schema, "LU", {{101, 102}}, 10));
    ASSERT_TRUE(decision.ok());
    EXPECT_TRUE(decision->accepted()) << "issue " << i;
  }
  const Result<OnlineDecision> rejected =
      (*service)->TryIssue(MakeUsage(schema, "LU", {{101, 102}}, 1));
  ASSERT_TRUE(rejected.ok());
  EXPECT_FALSE(rejected->accepted());
}

TEST(OnlineValidationTest, Example1ScenarioBothLicensesValid) {
  // The motivating scenario of the paper's Example 1: LU1 (count 800) fits
  // {L1, L2}; LU2 (count 400) fits only {L2}. With equation-based
  // validation both are accepted because C⟨{L2}⟩ = 400 ≤ 1000 and
  // C⟨{L1,L2}⟩ = 1200 ≤ 3000 — no greedy license picking.
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD1", {{0, 20}}, 2000)).ok());
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD2", {{10, 30}}, 1000)).ok());
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&set);
  ASSERT_TRUE(service.ok());

  const Result<OnlineDecision> first =
      (*service)->TryIssue(MakeUsage(schema, "LU1", {{12, 18}}, 800));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->satisfying_set, testing::Mask(0b11));
  EXPECT_TRUE(first->accepted());

  const Result<OnlineDecision> second =
      (*service)->TryIssue(MakeUsage(schema, "LU2", {{22, 28}}, 400));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->satisfying_set, testing::Mask(0b10));
  EXPECT_TRUE(second->accepted());
}

TEST(OnlineValidationTest, GroupingShrinksEquationCount) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog set = SmallSet(schema);

  Result<std::unique_ptr<IssuanceService>> grouped =
      IssuanceService::Create(&set, Grouped(true));
  Result<std::unique_ptr<IssuanceService>> baseline =
      IssuanceService::Create(&set, Grouped(false));
  ASSERT_TRUE(grouped.ok());
  ASSERT_TRUE(baseline.ok());

  const License usage = MakeUsage(schema, "LU", {{2, 5}}, 1);
  const Result<OnlineDecision> grouped_decision = (*grouped)->TryIssue(usage);
  const Result<OnlineDecision> baseline_decision =
      (*baseline)->TryIssue(usage);
  ASSERT_TRUE(grouped_decision.ok());
  ASSERT_TRUE(baseline_decision.ok());
  EXPECT_EQ(grouped_decision->accepted(), baseline_decision->accepted());
  // S = {L1}, k = 1. Baseline checks 2^(3−1) = 4 equations; grouped only
  // the group {L1, L2}: 2^(2−1) = 2.
  EXPECT_EQ(baseline_decision->equations_checked, 4u);
  EXPECT_EQ(grouped_decision->equations_checked, 2u);
}

TEST(OnlineValidationTest, GroupedAndBaselineAlwaysAgree) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  ASSERT_TRUE(set.Add(MakeRedistribution(schema, "LD1", {{0, 20}}, 60)).ok());
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD2", {{10, 30}}, 40)).ok());
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD3", {{100, 130}}, 25)).ok());
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD4", {{110, 140}}, 35)).ok());

  Result<std::unique_ptr<IssuanceService>> grouped =
      IssuanceService::Create(&set, Grouped(true));
  Result<std::unique_ptr<IssuanceService>> baseline =
      IssuanceService::Create(&set, Grouped(false));
  ASSERT_TRUE(grouped.ok());
  ASSERT_TRUE(baseline.ok());

  Rng rng(2024);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 300; ++i) {
    const bool left_cluster = rng.Bernoulli(0.5);
    const int64_t base = left_cluster ? rng.UniformInt(0, 25)
                                      : rng.UniformInt(100, 135);
    const int64_t lo = base;
    const int64_t hi = base + rng.UniformInt(0, 5);
    const License usage =
        MakeUsage(schema, "LU", {{lo, hi}}, rng.UniformInt(1, 8));
    const Result<OnlineDecision> a = (*grouped)->TryIssue(usage);
    const Result<OnlineDecision> b = (*baseline)->TryIssue(usage);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->accepted(), b->accepted()) << "issue " << i;
    ASSERT_EQ(a->satisfying_set, b->satisfying_set);
    if (a->accepted()) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  // The workload is sized to exercise both outcomes.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_EQ((*grouped)->CollectLog().size(), (*baseline)->CollectLog().size());
}

TEST(OnlineValidationTest, CreateWithHistoryPreloadsTree) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog set = SmallSet(schema);
  LogStore history;
  ASSERT_TRUE(history.Append(LogRecord{"LU1", testing::Mask(0b001), 90}).ok());
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::CreateWithHistory(&set, Grouped(true), history);
  ASSERT_TRUE(service.ok());
  const Result<ValidationTree> tree = (*service)->CollectTree();
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->CountOf(testing::Mask(0b001)), 90);
  EXPECT_EQ((*service)->CollectLog().size(), 1u);
  // Only 10 counts left on L1.
  const Result<OnlineDecision> decision =
      (*service)->TryIssue(MakeUsage(schema, "LU2", {{0, 5}}, 11));
  ASSERT_TRUE(decision.ok());
  EXPECT_FALSE(decision->accepted());
}

TEST(OnlineValidationTest, CreateWithHistoryRejectsUnknownIndexes) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog set = SmallSet(schema);
  LogStore history;
  ASSERT_TRUE(
      history.Append(LogRecord{"LU1", LicenseSet::Singleton(9), 5}).ok());
  EXPECT_FALSE(
      IssuanceService::CreateWithHistory(&set, Grouped(true), history).ok());
}

TEST(OnlineValidationTest, RejectsNonPositiveCount) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog set = SmallSet(schema);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&set);
  ASSERT_TRUE(service.ok());
  // LicenseBuilder refuses a zero count, so hand-construct the license.
  const License usage("LU", "K", LicenseType::kUsage, Permission::kPlay,
                      testing::Rect({{0, 1}}), 0);
  EXPECT_FALSE((*service)->TryIssue(usage).ok());
  EXPECT_FALSE((*service)->TryIssueBatch(std::vector<License>{usage}).ok());
}

}  // namespace
}  // namespace geolic
