#include "service/issuance_service.h"

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "sim/reference_model.h"
#include "test_util.h"
#include "validation/flat_tree.h"

namespace geolic {
namespace {

using testing::IntervalSchema;
using testing::MakeRedistribution;
using testing::MakeUsage;

// Three overlap groups: {L1, L2}, {L3, L4}, {L5}.
LicenseCatalog ThreeGroupSet(const ConstraintSchema& schema, int64_t budget) {
  LicenseCatalog licenses(&schema);
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L1", {{0, 20}}, budget)).ok());
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L2", {{10, 30}}, budget)).ok());
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L3", {{100, 120}}, budget))
          .ok());
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L4", {{110, 130}}, budget))
          .ok());
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L5", {{200, 220}}, budget))
          .ok());
  return licenses;
}

// One usage request per group, cycling with `i`; every fourth request lies
// outside all licenses (instance-invalid).
License RequestAt(const ConstraintSchema& schema, int i) {
  const std::string id = "U" + std::to_string(i);
  switch (i % 4) {
    case 0:
      return MakeUsage(schema, id, {{12, 18}}, 1);  // Group {L1, L2}.
    case 1:
      return MakeUsage(schema, id, {{111, 119}}, 1);  // Group {L3, L4}.
    case 2:
      return MakeUsage(schema, id, {{205, 215}}, 1);  // Group {L5}.
    default:
      return MakeUsage(schema, id, {{500, 510}}, 1);  // No license.
  }
}

// Position of `limiting` in the service's scan: extensions T − S of S are
// walked in ascending big-integer order over the subsets of scope − S, so
// T is the (rank + 1)-th equation, where rank packs the bits of T − S at
// their positions within scope − S.
uint64_t EquationsUpTo(const LicenseSet& s, const LicenseSet& scope,
                       const LicenseSet& limiting) {
  const LicenseSet extension = limiting - s;
  const LicenseSet free_bits = scope - s;
  uint64_t rank = 0;
  int bit = 0;
  for (const int index : free_bits.Indexes()) {
    if (extension.Contains(index)) {
      rank |= uint64_t{1} << bit;
    }
    ++bit;
  }
  return rank + 1;
}

// The executable spec (sim/reference_model.h) decides every request the
// same way the sharded service does — limiting equation included — and
// the equation count is exactly the spec's scan length within S's overlap
// group: 2^(N_g − k) on acceptance, the limiting equation's position on
// rejection.
TEST(IssuanceServiceTest, MatchesReferenceModelSerially) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 5);

  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  ReferenceModel model(&licenses);

  // Past the budget of 5 per group so both reject the tail identically.
  int rejected_aggregate = 0;
  for (int i = 0; i < 40; ++i) {
    const License request = RequestAt(schema, i);
    const Result<OnlineDecision> got = (*service)->TryIssue(request);
    ASSERT_TRUE(got.ok());
    const ReferenceModel::Decision want = model.TryIssue(request);
    EXPECT_EQ(got->instance_valid, want.instance_valid) << i;
    EXPECT_EQ(got->aggregate_valid, want.aggregate_valid) << i;
    EXPECT_EQ(got->satisfying_set, want.satisfying_set) << i;
    if (!want.instance_valid) {
      EXPECT_EQ(got->equations_checked, 0u) << i;
      continue;
    }
    LicenseSet scope;
    for (const LicenseSet& component : model.components()) {
      if (want.satisfying_set.IsSubsetOf(component)) {
        scope = component;
      }
    }
    if (want.aggregate_valid) {
      EXPECT_EQ(got->equations_checked,
                uint64_t{1} << (scope - want.satisfying_set).Size())
          << i;
      model.Apply(want.satisfying_set, request.aggregate_count());
    } else {
      ++rejected_aggregate;
      EXPECT_EQ(got->limiting.set, want.limiting_set) << i;
      EXPECT_EQ(got->limiting.lhs, want.limiting_lhs) << i;
      EXPECT_EQ(got->limiting.rhs, want.limiting_rhs) << i;
      EXPECT_EQ(got->equations_checked,
                EquationsUpTo(want.satisfying_set, scope, want.limiting_set))
          << i;
    }
  }
  EXPECT_GT(rejected_aggregate, 0);
  ASSERT_TRUE(model.CheckInvariant().ok());

  // Same accepted state: the merged tree answers every C⟨T⟩ as the spec
  // does, and the log holds the spec's exact counts.
  const Result<ValidationTree> tree = (*service)->CollectTree();
  ASSERT_TRUE(tree.ok());
  const std::unordered_map<LicenseSet, int64_t> merged =
      (*service)->CollectLog().MergedCounts();
  const std::map<LicenseSet, int64_t> counts(merged.begin(), merged.end());
  EXPECT_EQ(counts, model.counts());
  const uint64_t full = licenses.AllMask().AsWord();
  for (uint64_t word = 1; word <= full; ++word) {
    const LicenseSet set = LicenseSet::FromWord(word);
    EXPECT_EQ(tree->SumSubsets(set), model.SumSubsets(set)) << set;
  }

  // The offline-audit snapshot: a flat compile of the same merged tree.
  const Result<FlatValidationTree> flat = FlatValidationTree::Compile(*tree);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat->NodeCount(), tree->NodeCount());
  EXPECT_EQ(flat->TotalCount(), tree->TotalCount());
  for (uint64_t word = 1; word <= full; ++word) {
    const LicenseSet set = LicenseSet::FromWord(word);
    EXPECT_EQ(flat->SumSubsets(set), tree->SumSubsets(set)) << set;
  }
}

TEST(IssuanceServiceTest, ConcurrentStressMatchesSerialReplay) {
  const ConstraintSchema schema = IntervalSchema(1);
  // Tight budgets. Requests hit satisfying set {L1,L2} / {L3,L4} / {L5}, so
  // the binding equation's budget is 50 / 50 / 25; each group sees
  // 8×20 = 160 unit requests and saturates under any interleaving.
  const LicenseCatalog licenses = ThreeGroupSet(schema, 25);

  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  ASSERT_EQ((*service)->shard_count(), 3);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 80;  // 20 requests per group + 20 invalid.
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&schema, &service, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const Result<OnlineDecision> decision =
            (*service)->TryIssue(RequestAt(schema, t * kPerThread + i));
        ASSERT_TRUE(decision.ok());
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  // Every group saturated its budget exactly — no lost or duplicated
  // admissions under contention.
  const LogStore log = (*service)->CollectLog();
  EXPECT_EQ(log.TotalCount(), 50 + 50 + 25);
  const IssuanceMetrics::Snapshot metrics = (*service)->metrics().Snap();
  EXPECT_EQ(metrics.accepted, 125u);
  EXPECT_EQ(metrics.rejected_instance, 160u);
  EXPECT_EQ(metrics.rejected_aggregate, 640u - 160u - 125u);
  EXPECT_EQ(metrics.total_requests(), 640u);
  EXPECT_EQ(metrics.latency.total_count, 640u);

  // The final tree/log equal a single-threaded replay of the accepted log.
  OnlineValidatorOptions serial;
  serial.shard_hint = 1;
  Result<std::unique_ptr<IssuanceService>> rebuilt =
      IssuanceService::CreateWithHistory(&licenses, serial, log);
  ASSERT_TRUE(rebuilt.ok());
  const Result<ValidationTree> tree = (*service)->CollectTree();
  const Result<ValidationTree> rebuilt_tree = (*rebuilt)->CollectTree();
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(rebuilt_tree.ok());
  EXPECT_EQ(tree->ToString(), rebuilt_tree->ToString());
  EXPECT_EQ(log.MergedCounts(), (*rebuilt)->CollectLog().MergedCounts());
  // And so do the slack tables the concurrent admissions decided on.
  const Status tables = (*service)->CheckTables(*rebuilt_tree);
  EXPECT_TRUE(tables.ok()) << tables.message();
}

TEST(IssuanceServiceTest, BatchMatchesSequentialIssue) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 7);

  Result<std::unique_ptr<IssuanceService>> batched =
      IssuanceService::Create(&licenses);
  Result<std::unique_ptr<IssuanceService>> sequential =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(batched.ok());
  ASSERT_TRUE(sequential.ok());

  std::vector<License> batch;
  for (int i = 0; i < 50; ++i) {
    batch.push_back(RequestAt(schema, i));
  }
  const Result<std::vector<OnlineDecision>> got =
      (*batched)->TryIssueBatch(batch);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), batch.size());

  for (size_t i = 0; i < batch.size(); ++i) {
    const Result<OnlineDecision> want = (*sequential)->TryIssue(batch[i]);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ((*got)[i].instance_valid, want->instance_valid) << i;
    EXPECT_EQ((*got)[i].aggregate_valid, want->aggregate_valid) << i;
    EXPECT_EQ((*got)[i].satisfying_set, want->satisfying_set) << i;
    EXPECT_EQ((*got)[i].equations_checked, want->equations_checked) << i;
  }
  const Result<ValidationTree> got_tree = (*batched)->CollectTree();
  const Result<ValidationTree> want_tree = (*sequential)->CollectTree();
  ASSERT_TRUE(got_tree.ok());
  ASSERT_TRUE(want_tree.ok());
  EXPECT_EQ(got_tree->ToString(), want_tree->ToString());

  const IssuanceMetrics::Snapshot metrics = (*batched)->metrics().Snap();
  EXPECT_EQ(metrics.batches, 1u);
  EXPECT_EQ(metrics.batched_requests, 50u);
}

TEST(IssuanceServiceTest, ShardHintCapsLockShards) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 4);

  OnlineValidatorOptions options;
  options.shard_hint = 2;
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses, options);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ((*service)->shard_count(), 2);  // 3 groups striped over 2 locks.

  // Striping shares locks, not equations: decisions stay per-group. Six
  // requests per group; only {L5} (budget 4) rejects any.
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE((*service)->TryIssue(RequestAt(schema, i)).ok());
  }
  EXPECT_EQ((*service)->CollectLog().TotalCount(), 6 + 6 + 4);
}

TEST(IssuanceServiceTest, UngroupedDegradesToSingleShard) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 4);

  OnlineValidatorOptions options;
  options.use_grouping = false;
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses, options);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ((*service)->shard_count(), 1);

  // Same accepted set as grouped (grouping changes cost, not outcomes).
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE((*service)->TryIssue(RequestAt(schema, i)).ok());
  }
  EXPECT_EQ((*service)->CollectLog().TotalCount(), 6 + 6 + 4);
}

TEST(IssuanceServiceTest, CreateWithHistoryContinuesBudgets) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 3);

  LogStore history;
  LogRecord spent;
  spent.issued_license_id = "H1";
  spent.set = testing::Mask(0b11);  // {L1, L2}.
  spent.count = 5;
  ASSERT_TRUE(history.Append(spent).ok());

  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::CreateWithHistory(&licenses, {}, history);
  ASSERT_TRUE(service.ok());

  // Pair budget 3 + 3 = 6, history spent 5: one unit left in {L1, L2}.
  const Result<OnlineDecision> first =
      (*service)->TryIssue(MakeUsage(schema, "U1", {{12, 18}}, 1));
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->accepted());
  const Result<OnlineDecision> second =
      (*service)->TryIssue(MakeUsage(schema, "U2", {{12, 18}}, 1));
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->accepted());

  // History that references indexes outside the set is rejected.
  LogStore bad;
  LogRecord unknown;
  unknown.issued_license_id = "H2";
  unknown.set = LicenseSet::Singleton(60);
  unknown.count = 1;
  ASSERT_TRUE(bad.Append(unknown).ok());
  EXPECT_FALSE(IssuanceService::CreateWithHistory(&licenses, {}, bad).ok());
}

TEST(IssuanceServiceTest, ExternalMetricsSinkIsUsed) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 10);

  IssuanceMetrics sink;
  OnlineValidatorOptions options;
  options.metrics = &sink;
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses, options);
  ASSERT_TRUE(service.ok());

  ASSERT_TRUE((*service)->TryIssue(RequestAt(schema, 0)).ok());   // Accept.
  ASSERT_TRUE((*service)->TryIssue(RequestAt(schema, 3)).ok());   // Invalid.
  const IssuanceMetrics::Snapshot snapshot = sink.Snap();
  EXPECT_EQ(snapshot.accepted, 1u);
  EXPECT_EQ(snapshot.rejected_instance, 1u);
  EXPECT_EQ(&(*service)->metrics(), &sink);
}

TEST(IssuanceServiceTest, RejectsEmptyLicenseCatalog) {
  const ConstraintSchema schema = IntervalSchema(1);
  EXPECT_FALSE(IssuanceService::Create(nullptr).ok());
  LicenseCatalog empty(&schema);
  EXPECT_FALSE(IssuanceService::Create(&empty).ok());
}

// Licenses L1..L<count> on disjoint stretches of one axis, spaced `step`
// apart with width `width` (width > step makes neighbours overlap).
LicenseCatalog Row(const ConstraintSchema& schema, int count, int64_t step,
                   int64_t width) {
  LicenseCatalog licenses(&schema);
  for (int i = 0; i < count; ++i) {
    EXPECT_TRUE(licenses
                    .Add(MakeRedistribution(schema,
                                            "L" + std::to_string(i + 1),
                                            {{i * step, i * step + width}}, 5))
                    .ok());
  }
  return licenses;
}

TEST(IssuanceServiceTest, ScopeAboveCapIsRejected) {
  const ConstraintSchema schema = IntervalSchema(1);
  // One chain-overlapping group one license past the cap.
  const LicenseCatalog over_cap = Row(schema, kMaxScopeLicenses + 1, 10, 15);
  Result<std::unique_ptr<IssuanceService>> grouped =
      IssuanceService::Create(&over_cap);
  ASSERT_FALSE(grouped.ok());
  EXPECT_EQ(grouped.status().code(), StatusCode::kCapacityExceeded);
  EXPECT_EQ(IssuanceService::CreateWithHistory(&over_cap, {}, LogStore())
                .status()
                .code(),
            StatusCode::kCapacityExceeded);

  // Without grouping the scope is the whole catalog, disjoint or not.
  const LicenseCatalog disjoint = Row(schema, kMaxScopeLicenses + 1, 10, 5);
  EXPECT_TRUE(IssuanceService::Create(&disjoint).ok());
  OnlineValidatorOptions ungrouped;
  ungrouped.use_grouping = false;
  EXPECT_EQ(IssuanceService::Create(&disjoint, ungrouped).status().code(),
            StatusCode::kCapacityExceeded);
}

}  // namespace
}  // namespace geolic
