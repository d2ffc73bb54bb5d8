#include <algorithm>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "service/issuance_service.h"
#include "test_util.h"
#include "workload/workload.h"

namespace geolic {
namespace {

using testing::IntervalSchema;
using testing::MakeRedistribution;
using testing::MakeUsage;

// A service over `licenses` whose history is `spent` counts against
// `set` (none when `spent` is 0) — not re-checked, so it may over-issue.
std::unique_ptr<IssuanceService> ServiceWithHistory(
    const LicenseCatalog* licenses, const LicenseSet& set, int64_t spent) {
  LogStore history;
  if (spent > 0) {
    LogRecord record;
    record.issued_license_id = "H1";
    record.set = set;
    record.count = spent;
    GEOLIC_CHECK(history.Append(record).ok());
  }
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::CreateWithHistory(licenses, {}, history);
  GEOLIC_CHECK(service.ok());
  return *std::move(service);
}

TEST(CapacityTest, FreshSetQuotesFullBudget) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD1", {{0, 20}}, 100)).ok());
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD2", {{10, 30}}, 50)).ok());
  const std::unique_ptr<IssuanceService> service =
      ServiceWithHistory(&set, LicenseSet(), 0);
  const Result<CapacityQuote> quote = service->Headroom(testing::Mask(0b01));
  ASSERT_TRUE(quote.ok());
  // Binding equation for {L1}: A=100 (the pair equation has slack 150).
  EXPECT_EQ(quote->remaining, 100);
  EXPECT_EQ(quote->binding_set, testing::Mask(0b01));
}

TEST(CapacityTest, SharedBudgetBinds) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD1", {{0, 20}}, 100)).ok());
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD2", {{10, 30}}, 50)).ok());
  // 120 already issued against {L1,L2}: pair equation slack = 150−120=30,
  // {L1} equation slack stays 100 (the 120 isn't attributable to L1 only).
  const std::unique_ptr<IssuanceService> service =
      ServiceWithHistory(&set, testing::Mask(0b11), 120);
  const Result<CapacityQuote> quote = service->Headroom(testing::Mask(0b01));
  ASSERT_TRUE(quote.ok());
  EXPECT_EQ(quote->remaining, 30);
  EXPECT_EQ(quote->binding_set, testing::Mask(0b11));
  EXPECT_EQ(quote->binding_slack, 30);
}

TEST(CapacityTest, ViolatedEquationQuotesZero) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD1", {{0, 20}}, 100)).ok());
  const std::unique_ptr<IssuanceService> service =
      ServiceWithHistory(&set, testing::Mask(0b1), 130);
  const Result<CapacityQuote> quote = service->Headroom(testing::Mask(0b1));
  ASSERT_TRUE(quote.ok());
  EXPECT_EQ(quote->remaining, 0);
  EXPECT_EQ(quote->binding_slack, -30);
}

TEST(CapacityTest, RejectsBadSets) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD1", {{0, 20}}, 100)).ok());
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD2", {{100, 120}}, 50)).ok());
  const std::unique_ptr<IssuanceService> service =
      ServiceWithHistory(&set, LicenseSet(), 0);
  EXPECT_FALSE(service->Headroom(testing::Mask(0)).ok());
  EXPECT_FALSE(service->Headroom(LicenseSet::Singleton(9)).ok());
  // {L1, L2} spans the two (disjoint) groups.
  EXPECT_FALSE(service->Headroom(testing::Mask(0b11)).ok());
}

// Property: the quote is exactly the acceptance threshold of the online
// validator — a usage license with count == remaining is accepted, one
// with remaining + 1 is rejected.
TEST(CapacityPropertyTest, QuoteMatchesOnlineAcceptanceBoundary) {
  for (uint64_t seed : {3u, 4u, 5u}) {
    WorkloadConfig config = PaperSweepConfig(10, seed);
    config.num_records = 0;
    config.aggregate_min = 100;
    config.aggregate_max = 400;
    WorkloadGenerator generator(config);
    Result<Workload> workload = generator.GenerateLicensesOnly();
    ASSERT_TRUE(workload.ok());
    Result<std::unique_ptr<IssuanceService>> online =
        IssuanceService::Create(workload->licenses.get());
    ASSERT_TRUE(online.ok());

    // Spend some budget via accepted issues.
    Rng rng(seed);
    for (int i = 0; i < 300; ++i) {
      const int parent = static_cast<int>(
          rng.UniformInt(0, workload->licenses->size() - 1));
      (void)*(*online)->TryIssue(
          generator.DrawUsageLicense(*workload, parent, &rng, i));
    }
    const LogStore history = (*online)->CollectLog();

    // For random usage rects, the capacity quote equals the acceptance
    // boundary.
    const SoaInstanceValidator instance(workload->licenses.get());
    for (int trial = 0; trial < 40; ++trial) {
      const int parent = static_cast<int>(
          rng.UniformInt(0, workload->licenses->size() - 1));
      const License probe =
          generator.DrawUsageLicense(*workload, parent, &rng, 10000 + trial);
      const LicenseSet set = instance.SatisfyingSet(probe);
      ASSERT_FALSE(set.Empty());
      const Result<CapacityQuote> quote = (*online)->Headroom(set);
      ASSERT_TRUE(quote.ok());
      if (quote->remaining == 0) {
        continue;  // Nothing issuable; rejection is covered below anyway.
      }
      // Exactly `remaining` fits…
      License at_boundary(probe.id(), probe.content_key(), probe.type(),
                          probe.permission(), probe.rect(),
                          quote->remaining);
      // …probe without committing: use a scratch service seeded with the
      // same history.
      Result<std::unique_ptr<IssuanceService>> scratch =
          IssuanceService::CreateWithHistory(workload->licenses.get(), {},
                                             history);
      ASSERT_TRUE(scratch.ok());
      EXPECT_TRUE((*scratch)->TryIssue(at_boundary)->accepted());
      License past_boundary(probe.id(), probe.content_key(), probe.type(),
                            probe.permission(), probe.rect(),
                            quote->remaining + 1);
      Result<std::unique_ptr<IssuanceService>> scratch2 =
          IssuanceService::CreateWithHistory(workload->licenses.get(), {},
                                             history);
      ASSERT_TRUE(scratch2.ok());
      EXPECT_FALSE((*scratch2)->TryIssue(past_boundary)->accepted());
    }
  }
}

// The capacity loop Headroom replaced, kept as its oracle: the first least
// A[T] − C⟨T⟩ over S ⊆ T ⊆ S's scope (ascending), from the collected tree
// and the catalog's aggregate sums.
CapacityQuote CapacityLoop(const IssuanceService& service,
                           const ValidationTree& tree, const LicenseSet& s) {
  LicenseSet scope = service.licenses().AllMask();
  if (service.options().use_grouping) {
    const LicenseGrouping& grouping = service.grouping();
    scope = grouping.GroupMask(grouping.GroupOf(s.Lowest()));
  }
  CapacityQuote quote;
  bool first = true;
  for (AscendingSubsetIterator it(scope - s); !it.Done(); it.Next()) {
    const LicenseSet t = s | it.subset();
    const int64_t slack =
        service.licenses().AggregateSum(t) - tree.SumSubsets(t);
    if (first || slack < quote.binding_slack) {
      quote.binding_set = t;
      quote.binding_slack = slack;
      first = false;
    }
  }
  quote.remaining = std::max<int64_t>(0, quote.binding_slack);
  return quote;
}

// Property: across random admissions interleaved with acquire, revoke and
// expire, Headroom({i}) for every license equals the capacity loop over
// CollectTree() — grouped, striped over two shards (carried shards that
// gain an acquired singleton) and ungrouped.
TEST(HeadroomPropertyTest, MatchesCapacityLoopAcrossLifecycle) {
  const ConstraintSchema schema = IntervalSchema(1);
  struct Variant {
    bool use_grouping;
    int shard_hint;
  };
  for (const Variant variant : {Variant{true, 0}, Variant{true, 2},
                                Variant{false, 0}}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(seed);
      int next_id = 0;
      const auto random_license = [&] {
        const int64_t lo = rng.UniformInt(0, 160);
        return MakeRedistribution(schema, "L" + std::to_string(++next_id),
                                  {{lo, lo + rng.UniformInt(8, 40)}},
                                  rng.UniformInt(4, 30));
      };
      LicenseCatalog licenses(&schema);
      for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(licenses.Add(random_license()).ok());
      }
      OnlineValidatorOptions options;
      options.use_grouping = variant.use_grouping;
      options.shard_hint = variant.shard_hint;
      Result<std::unique_ptr<IssuanceService>> created =
          IssuanceService::Create(&licenses, options);
      ASSERT_TRUE(created.ok());
      IssuanceService& service = **created;

      for (int step = 0; step < 150; ++step) {
        const int size = service.licenses().size();
        const double op = rng.UniformDouble();
        if (op < 0.75) {
          const HyperRect& parent =
              service.licenses()
                  .at(static_cast<int>(rng.UniformInt(0, size - 1)))
                  .rect();
          const int64_t lo = parent.dim(0).interval().lo();
          const int64_t hi = parent.dim(0).interval().hi();
          const int64_t at = rng.UniformInt(lo, hi);
          ASSERT_TRUE(service
                          .TryIssue(MakeUsage(
                              schema, "U" + std::to_string(step),
                              {{at, std::min(hi, at + rng.UniformInt(0, 6))}},
                              rng.UniformInt(1, 4)))
                          .ok());
        } else if (op < 0.85) {
          if (size < 16) {
            ASSERT_TRUE(service.AcquireLicense(random_license()).ok());
          }
        } else if (op < 0.95) {
          if (size > 1) {
            ASSERT_TRUE(service
                            .RevokeLicense(static_cast<int>(
                                rng.UniformInt(0, size - 1)))
                            .ok());
          }
        } else {
          // Expire whatever ends below a cutoff; removing every license is
          // refused and changes nothing.
          (void)service.ExpireDimensionBelow(0, rng.UniformInt(0, 80));
        }

        const Result<ValidationTree> tree = service.CollectTree();
        ASSERT_TRUE(tree.ok());
        for (int i = 0; i < service.licenses().size(); ++i) {
          const LicenseSet s = LicenseSet::Singleton(i);
          const Result<CapacityQuote> got = service.Headroom(s);
          ASSERT_TRUE(got.ok());
          const CapacityQuote want = CapacityLoop(service, *tree, s);
          ASSERT_EQ(got->binding_set, want.binding_set)
              << "seed " << seed << " step " << step << " license " << i;
          ASSERT_EQ(got->binding_slack, want.binding_slack)
              << "seed " << seed << " step " << step << " license " << i;
          ASSERT_EQ(got->remaining, want.remaining);
        }
      }
    }
  }
}

TEST(MinimalViolationsTest, FiltersSupersetViolations) {
  const std::vector<EquationResult> violations = {
      {testing::Mask(0b001), 50, 40}, {testing::Mask(0b011), 90, 80}, {testing::Mask(0b100), 20, 10}, {testing::Mask(0b110), 60, 50}};
  const std::vector<EquationResult> minimal =
      MinimalViolations(violations);
  ASSERT_EQ(minimal.size(), 2u);
  EXPECT_EQ(minimal[0].set, testing::Mask(0b001));  // {L1,L2} dropped (⊇ {L1}).
  EXPECT_EQ(minimal[1].set, testing::Mask(0b100));  // {L2,L3} dropped (⊇ {L3}).
}

TEST(MinimalViolationsTest, IncomparableSetsAllKept) {
  const std::vector<EquationResult> violations = {
      {testing::Mask(0b011), 90, 80}, {testing::Mask(0b110), 60, 50}};
  EXPECT_EQ(MinimalViolations(violations).size(), 2u);
  EXPECT_TRUE(MinimalViolations({}).empty());
}

}  // namespace
}  // namespace geolic
