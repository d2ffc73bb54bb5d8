// Live license lifecycle on a running IssuanceService: acquire/revoke/
// expire reconfigurations, epoch bumps, shard merge/split, cascade
// revocation, shards carried unchanged into the next epoch, journaled
// reconfiguration recovery, and the epoch-tagged checkpoint format.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "persist/faulty_file.h"
#include "persist/journal.h"
#include "persist/sync_file.h"
#include "service/issuance_service.h"
#include "sim/reference_model.h"
#include "test_util.h"
#include "util/date.h"

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

// `service`'s slack tables against an independent validation tree of
// `records` (current-epoch indexes) — the state admission decides on,
// which CollectTree (rebuilt from the log) never reads.
void ExpectTablesMatch(const IssuanceService& service,
                       const LogStore& records) {
  const Result<ValidationTree> replay = ValidationTree::BuildFromLog(records);
  ASSERT_TRUE(replay.ok());
  const Status checked = service.CheckTables(*replay);
  EXPECT_TRUE(checked.ok()) << checked.message();
}

TEST(LifecycleTest, AcquireAppendsBumpsEpochAndAdmits) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 5);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ((*service)->catalog_epoch(), 0u);
  ASSERT_EQ((*service)->shard_count(), 3);

  const Result<int> index = (*service)->AcquireLicense(
      MakeRedistribution(schema, "L6", {{300, 320}}, 5));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(*index, 5);  // Appended: existing indexes unchanged.
  EXPECT_EQ((*service)->catalog_epoch(), 1u);
  EXPECT_EQ((*service)->licenses().size(), 6);
  EXPECT_EQ((*service)->shard_count(), 4);  // New isolated group.

  // The acquired license admits immediately.
  const Result<OnlineDecision> got =
      (*service)->TryIssue(MakeUsage(schema, "U1", {{305, 315}}, 1));
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->accepted());
  EXPECT_EQ(got->satisfying_set, testing::Mask(0b100000));
  EXPECT_EQ(got->catalog_epoch, 1u);
}

TEST(LifecycleTest, AcquireBridgeMergesShardsWithoutLosingRecords) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->TryIssue(MakeUsage(schema, "U1", {{12, 18}}, 2)).ok());
  ASSERT_TRUE(
      (*service)->TryIssue(MakeUsage(schema, "U2", {{111, 119}}, 3)).ok());

  // {15, 115} overlaps L1..L4: figure 6's merge, live — groups {L1,L2} and
  // {L3,L4} collapse into one shard.
  const Result<int> index = (*service)->AcquireLicense(
      MakeRedistribution(schema, "B", {{15, 115}}, 100));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(*index, 5);
  EXPECT_EQ((*service)->grouping().group_count(), 2);
  EXPECT_EQ((*service)->shard_count(), 2);

  // Both pre-merge records survived the shard merge, untouched (an acquire
  // never renumbers).
  const auto merged = (*service)->CollectLog().MergedCounts();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.at(testing::Mask(0b00011)), 2);
  EXPECT_EQ(merged.at(testing::Mask(0b01100)), 3);
  ExpectTablesMatch(**service, (*service)->CollectLog());
}

TEST(LifecycleTest, AcquireMergeAboveScopeCapIsRejected) {
  const ConstraintSchema schema = IntervalSchema(1);
  // Two chain-overlapping groups of 13 and 12 licenses, 1000 apart.
  LicenseCatalog licenses(&schema);
  for (int i = 0; i < 25; ++i) {
    const int64_t lo = (i < 13 ? 0 : 1000) + (i % 13) * 10;
    ASSERT_TRUE(licenses
                    .Add(MakeRedistribution(
                        schema, "L" + std::to_string(i + 1), {{lo, lo + 15}},
                        5))
                    .ok());
  }
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  ASSERT_EQ((*service)->grouping().group_count(), 2);
  ASSERT_TRUE(
      (*service)->TryIssue(MakeUsage(schema, "U1", {{1002, 1008}}, 2)).ok());

  // A bridge over both groups would make one scope of 26 licenses.
  const Result<int> bridge = (*service)->AcquireLicense(
      MakeRedistribution(schema, "B", {{100, 1010}}, 5));
  ASSERT_FALSE(bridge.ok());
  EXPECT_EQ(bridge.status().code(), StatusCode::kCapacityExceeded);

  // Nothing changed: same epoch, catalog and grouping, and admission goes
  // on against the old tables.
  EXPECT_EQ((*service)->catalog_epoch(), 0u);
  EXPECT_EQ((*service)->licenses().size(), 25);
  EXPECT_EQ((*service)->grouping().group_count(), 2);
  const Result<OnlineDecision> after =
      (*service)->TryIssue(MakeUsage(schema, "U2", {{1002, 1008}}, 3));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->accepted());
  const Result<OnlineDecision> spent =
      (*service)->TryIssue(MakeUsage(schema, "U3", {{1002, 1008}}, 1));
  ASSERT_TRUE(spent.ok());
  EXPECT_FALSE(spent->accepted());  // L14's budget of 5 is used up.
}

TEST(LifecycleTest, AcquireRejectsDuplicateIdAndBadShape) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 5);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());

  EXPECT_FALSE((*service)
                   ->AcquireLicense(
                       MakeRedistribution(schema, "L1", {{300, 320}}, 5))
                   .ok());
  const ConstraintSchema two_dims = IntervalSchema(2);
  EXPECT_FALSE(
      (*service)
          ->AcquireLicense(MakeRedistribution(two_dims, "L9",
                                              {{300, 320}, {0, 10}}, 5))
          .ok());
  // Failed acquisitions change nothing.
  EXPECT_EQ((*service)->catalog_epoch(), 0u);
  EXPECT_EQ((*service)->licenses().size(), 5);
}

TEST(LifecycleTest, RevokeCascadesAndRenumbersDensely) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->TryIssue(MakeUsage(schema, "U1", {{12, 18}}, 1)).ok());
  ASSERT_TRUE(
      (*service)->TryIssue(MakeUsage(schema, "U2", {{111, 119}}, 1)).ok());
  ASSERT_TRUE(
      (*service)->TryIssue(MakeUsage(schema, "U3", {{205, 215}}, 1)).ok());

  ASSERT_TRUE((*service)->RevokeLicense(0).ok());  // L1.
  EXPECT_EQ((*service)->catalog_epoch(), 1u);
  EXPECT_EQ((*service)->licenses().size(), 4);
  EXPECT_EQ(*(*service)->licenses().IndexOfId("L2"), 0);
  EXPECT_EQ(*(*service)->licenses().IndexOfId("L5"), 3);

  // U1's record contained the revoked license: cascade-dropped. The other
  // two renumber densely ({L3,L4}: 2,3 → 1,2; {L5}: 4 → 3).
  const auto merged = (*service)->CollectLog().MergedCounts();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.at(testing::Mask(0b0110)), 1);
  EXPECT_EQ(merged.at(testing::Mask(0b1000)), 1);
  EXPECT_EQ((*service)->CollectTree()->TotalCount(), 2);
  ExpectTablesMatch(**service, (*service)->CollectLog());

  // Admission keeps working in the renumbered space: {12,18} now only
  // lies inside L2 (new index 0).
  const Result<OnlineDecision> got =
      (*service)->TryIssue(MakeUsage(schema, "U4", {{12, 18}}, 1));
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->accepted());
  EXPECT_EQ(got->satisfying_set, testing::Mask(0b0001));
  EXPECT_EQ(got->catalog_epoch, 1u);
}

TEST(LifecycleTest, RevokeGuards) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog one(&schema);
  ASSERT_TRUE(one.Add(MakeRedistribution(schema, "L1", {{0, 20}}, 5)).ok());
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&one);
  ASSERT_TRUE(service.ok());

  EXPECT_FALSE((*service)->RevokeLicense(-1).ok());
  EXPECT_FALSE((*service)->RevokeLicense(1).ok());
  EXPECT_FALSE((*service)->RevokeLicense(0).ok());  // Last license.
  EXPECT_FALSE((*service)->RevokeLicenseById("nope").ok());
  EXPECT_EQ((*service)->catalog_epoch(), 0u);
}

TEST(LifecycleTest, RevokeByIdMatchesIndexForm) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->RevokeLicenseById("L3").ok());
  EXPECT_EQ((*service)->catalog_epoch(), 1u);
  EXPECT_EQ((*service)->licenses().size(), 4);
  EXPECT_FALSE((*service)->licenses().IndexOfId("L3").ok());
}

TEST(LifecycleTest, ExpireDimensionBelowRemovesByIntervalEnd) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());

  // Nothing ends below 0: a no-op, no epoch change.
  Result<int> removed = (*service)->ExpireDimensionBelow(0, 0);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 0);
  EXPECT_EQ((*service)->catalog_epoch(), 0u);

  // Only L1 ({0,20}) ends strictly below 25.
  removed = (*service)->ExpireDimensionBelow(0, 25);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1);
  EXPECT_EQ((*service)->catalog_epoch(), 1u);
  EXPECT_EQ((*service)->licenses().size(), 4);
  EXPECT_FALSE((*service)->licenses().IndexOfId("L1").ok());

  // Expiring everything is refused (the catalog may never become empty).
  EXPECT_FALSE((*service)->ExpireDimensionBelow(0, 1000).ok());
  EXPECT_EQ((*service)->catalog_epoch(), 1u);
  // And an unordered/bad dimension is an error, not a removal.
  EXPECT_FALSE((*service)->ExpireDimensionBelow(7, 25).ok());
}

TEST(LifecycleTest, ExpireBeforeFindsTheDateDimension) {
  ConstraintSchema schema;
  ASSERT_TRUE(schema.AddIntervalDimension("C1").ok());
  ASSERT_TRUE(
      schema.AddIntervalDimension("valid", IntervalFormat::kDate).ok());
  const Date jan1 = *Date::FromCivil(2026, 1, 1);
  const auto make = [&](const std::string& id, int64_t last_valid_day) {
    LicenseBuilder builder(&schema);
    builder.SetId(id)
        .SetContentKey("K")
        .SetType(LicenseType::kRedistribution)
        .SetPermission(Permission::kPlay)
        .SetAggregateCount(10);
    builder.SetInterval("C1", 0, 100);
    builder.SetInterval("valid", 0, last_valid_day);
    const Result<License> license = builder.Build();
    EXPECT_TRUE(license.ok());
    return *license;
  };
  LicenseCatalog licenses(&schema);
  ASSERT_TRUE(licenses.Add(make("old", jan1.day_number() - 10)).ok());
  ASSERT_TRUE(licenses.Add(make("fresh", jan1.day_number() + 90)).ok());
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());

  const Result<int> removed = (*service)->ExpireBefore(jan1);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1);
  EXPECT_EQ((*service)->licenses().size(), 1);
  EXPECT_EQ((*service)->licenses().at(0).id(), "fresh");

  // A schema without any date dimension cannot expire by date.
  const ConstraintSchema plain = IntervalSchema(1);
  const LicenseCatalog no_dates = ThreeGroupSet(plain, 5);
  Result<std::unique_ptr<IssuanceService>> undated =
      IssuanceService::Create(&no_dates);
  ASSERT_TRUE(undated.ok());
  EXPECT_FALSE((*undated)->ExpireBefore(jan1).ok());
}

TEST(LifecycleTest, JournaledLifecycleRecoversToLiveState) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());

  auto file = std::make_unique<InMemorySyncFile>();
  InMemorySyncFile* disk = file.get();
  Result<std::unique_ptr<JournalWriter>> journal =
      JournalWriter::Create(std::move(file));
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());

  ASSERT_TRUE((*service)->TryIssue(MakeUsage(schema, "U1", {{12, 18}}, 1)).ok());
  ASSERT_TRUE(
      (*service)->TryIssue(MakeUsage(schema, "U2", {{111, 119}}, 2)).ok());
  ASSERT_TRUE((*service)
                  ->AcquireLicense(
                      MakeRedistribution(schema, "L6", {{300, 320}}, 9))
                  .ok());
  ASSERT_TRUE(
      (*service)->TryIssue(MakeUsage(schema, "U3", {{305, 315}}, 1)).ok());
  ASSERT_TRUE((*service)->RevokeLicenseById("L3").ok());
  ASSERT_TRUE((*service)->ExpireDimensionBelow(0, 25).ok());  // Drops L1.
  ASSERT_TRUE(
      (*service)->TryIssue(MakeUsage(schema, "U4", {{205, 215}}, 1)).ok());
  ASSERT_EQ((*service)->catalog_epoch(), 3u);

  const std::string journal_path =
      ::testing::TempDir() + "lifecycle_recover.gjl";
  {
    std::ofstream out(journal_path, std::ios::binary | std::ios::trunc);
    out.write(disk->contents().data(),
              static_cast<std::streamsize>(disk->contents().size()));
  }
  RecoveryStats stats;
  Result<std::unique_ptr<IssuanceService>> recovered =
      IssuanceService::Recover(&licenses, {}, /*checkpoint_path=*/"",
                               journal_path, &stats);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(stats.reconfig_records_replayed, 3u);
  EXPECT_EQ(stats.recovered_catalog_epoch, 3u);
  // The recovered service is a fresh baseline: its own epoch restarts.
  EXPECT_EQ((*recovered)->catalog_epoch(), 0u);
  // Catalog and validation state equal the live service's, record for
  // record, in the final epoch's dense index space.
  ASSERT_EQ((*recovered)->licenses().size(), (*service)->licenses().size());
  for (int i = 0; i < (*service)->licenses().size(); ++i) {
    EXPECT_EQ((*recovered)->licenses().at(i).id(),
              (*service)->licenses().at(i).id());
  }
  EXPECT_EQ((*recovered)->CollectTree()->ToString(),
            (*service)->CollectTree()->ToString());
  EXPECT_EQ((*recovered)->CollectLog().MergedCounts(),
            (*service)->CollectLog().MergedCounts());
  // The live tables, evolved through the reconfigurations, against the
  // journal's serial replay.
  ExpectTablesMatch(**service, (*recovered)->CollectLog());
}

TEST(LifecycleTest, CheckpointAfterReconfigCoversAndTagsTheEpoch) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  const std::string checkpoint_path =
      ::testing::TempDir() + "lifecycle_epoch_ckpt.gck";
  const std::string journal_path =
      ::testing::TempDir() + "lifecycle_epoch_ckpt.gjl";

  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  Result<std::unique_ptr<JournalWriter>> journal =
      JournalWriter::Open(journal_path);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());

  ASSERT_TRUE((*service)->TryIssue(MakeUsage(schema, "U1", {{12, 18}}, 1)).ok());
  ASSERT_TRUE((*service)->RevokeLicenseById("L5").ok());
  ASSERT_TRUE((*service)
                  ->AcquireLicense(
                      MakeRedistribution(schema, "L6", {{300, 320}}, 9))
                  .ok());
  ASSERT_TRUE((*service)->WriteCheckpoint(checkpoint_path).ok());
  ASSERT_TRUE(
      (*service)->TryIssue(MakeUsage(schema, "U2", {{305, 315}}, 1)).ok());
  ASSERT_TRUE((*service)->SyncJournal().ok());

  RecoveryStats stats;
  Result<std::unique_ptr<IssuanceService>> recovered =
      IssuanceService::Recover(&licenses, {}, checkpoint_path, journal_path,
                               &stats);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(stats.reconfig_records_replayed, 2u);
  EXPECT_EQ(stats.recovered_catalog_epoch, 2u);
  EXPECT_EQ((*recovered)->CollectTree()->ToString(),
            (*service)->CollectTree()->ToString());
  EXPECT_EQ((*recovered)->CollectLog().MergedCounts(),
            (*service)->CollectLog().MergedCounts());
  // The live tables, evolved through the reconfigurations, against the
  // journal's serial replay.
  ExpectTablesMatch(**service, (*recovered)->CollectLog());
}

TEST(LifecycleTest, CheckpointPredatingReconfigsStillRecovers) {
  // The checkpoint covers only epoch-0 admissions; every reconfiguration
  // lives in the journal tail and must replay on top of it.
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  const std::string checkpoint_path =
      ::testing::TempDir() + "lifecycle_predate_ckpt.gck";
  const std::string journal_path =
      ::testing::TempDir() + "lifecycle_predate_ckpt.gjl";

  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  Result<std::unique_ptr<JournalWriter>> journal =
      JournalWriter::Open(journal_path);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());

  ASSERT_TRUE((*service)->TryIssue(MakeUsage(schema, "U1", {{12, 18}}, 1)).ok());
  ASSERT_TRUE(
      (*service)->TryIssue(MakeUsage(schema, "U2", {{111, 119}}, 1)).ok());
  ASSERT_TRUE((*service)->WriteCheckpoint(checkpoint_path).ok());  // Epoch 0.
  ASSERT_TRUE((*service)->RevokeLicense(0).ok());
  ASSERT_TRUE((*service)->ExpireDimensionBelow(0, 35).ok());  // Drops L2.
  ASSERT_TRUE(
      (*service)->TryIssue(MakeUsage(schema, "U3", {{205, 215}}, 1)).ok());
  ASSERT_TRUE((*service)->SyncJournal().ok());
  ASSERT_EQ((*service)->catalog_epoch(), 2u);

  RecoveryStats stats;
  Result<std::unique_ptr<IssuanceService>> recovered =
      IssuanceService::Recover(&licenses, {}, checkpoint_path, journal_path,
                               &stats);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(stats.reconfig_records_replayed, 2u);
  EXPECT_EQ((*recovered)->CollectTree()->ToString(),
            (*service)->CollectTree()->ToString());
  EXPECT_EQ((*recovered)->CollectLog().MergedCounts(),
            (*service)->CollectLog().MergedCounts());
  // The live tables, evolved through the reconfigurations, against the
  // journal's serial replay.
  ExpectTablesMatch(**service, (*recovered)->CollectLog());
}

TEST(LifecycleTest, CheckpointEpochDisagreementFailsLoudly) {
  // A checkpoint tagged epoch 1 whose journal prefix contains no
  // reconfiguration frame is inconsistent — recovery must refuse rather
  // than load records into the wrong index space.
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  const std::string checkpoint_path =
      ::testing::TempDir() + "lifecycle_mismatch_ckpt.gck";
  const std::string journal_path =
      ::testing::TempDir() + "lifecycle_mismatch_ckpt.gjl";

  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  auto file = std::make_unique<InMemorySyncFile>();
  InMemorySyncFile* disk = file.get();
  Result<std::unique_ptr<JournalWriter>> journal =
      JournalWriter::Create(std::move(file));
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());

  ASSERT_TRUE((*service)->TryIssue(MakeUsage(schema, "U1", {{12, 18}}, 1)).ok());
  const std::string journal_before_reconfig = disk->contents();
  ASSERT_TRUE((*service)->RevokeLicenseById("L5").ok());
  ASSERT_TRUE((*service)->WriteCheckpoint(checkpoint_path).ok());  // Epoch 1.

  // Crash variant where only the PRE-reconfiguration journal survived.
  {
    std::ofstream out(journal_path, std::ios::binary | std::ios::trunc);
    out.write(journal_before_reconfig.data(),
              static_cast<std::streamsize>(journal_before_reconfig.size()));
  }
  const Result<std::unique_ptr<IssuanceService>> recovered =
      IssuanceService::Recover(&licenses, {}, checkpoint_path, journal_path);
  ASSERT_FALSE(recovered.ok());
  EXPECT_NE(recovered.status().message().find("epoch"), std::string::npos)
      << recovered.status().message();
}

TEST(LifecycleTest, AttachJournalRequiresEpochZero) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  // An unjournaled reconfiguration is legal, but afterwards a journal can
  // no longer be attached: it would miss the reconfiguration record that
  // recovery needs to rebuild the index space.
  ASSERT_TRUE((*service)->RevokeLicenseById("L5").ok());
  Result<std::unique_ptr<JournalWriter>> journal =
      JournalWriter::Create(std::make_unique<InMemorySyncFile>());
  ASSERT_TRUE(journal.ok());
  EXPECT_FALSE((*service)->AttachJournal(std::move(*journal)).ok());
}

TEST(LifecycleTest, TornReconfigFrameAbortsAndRecoversPreReconfigState) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());

  auto file = std::make_unique<InMemorySyncFile>();
  InMemorySyncFile* disk = file.get();
  auto faulty = std::make_unique<FaultyFile>(std::move(file));
  FaultyFile* faults = faulty.get();
  Result<std::unique_ptr<JournalWriter>> journal =
      JournalWriter::Create(std::move(faulty));
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());

  ASSERT_TRUE((*service)->TryIssue(MakeUsage(schema, "U1", {{12, 18}}, 1)).ok());
  ASSERT_TRUE(
      (*service)->TryIssue(MakeUsage(schema, "U2", {{111, 119}}, 1)).ok());
  const std::string tree_before = (*service)->CollectTree()->ToString();

  // The revoke's journal frame tears mid-write: WAL contract — the
  // reconfiguration reports failure and NOTHING changed in memory.
  faults->TearNextAppend(9);
  EXPECT_FALSE((*service)->RevokeLicense(0).ok());
  EXPECT_EQ((*service)->catalog_epoch(), 0u);
  EXPECT_EQ((*service)->licenses().size(), 5);
  EXPECT_EQ((*service)->CollectTree()->ToString(), tree_before);
  ExpectTablesMatch(**service, (*service)->CollectLog());

  // And recovery from the torn platter lands on the pre-reconfig state.
  const std::string journal_path =
      ::testing::TempDir() + "lifecycle_torn_reconfig.gjl";
  {
    std::ofstream out(journal_path, std::ios::binary | std::ios::trunc);
    out.write(disk->contents().data(),
              static_cast<std::streamsize>(disk->contents().size()));
  }
  RecoveryStats stats;
  Result<std::unique_ptr<IssuanceService>> recovered =
      IssuanceService::Recover(&licenses, {}, "", journal_path, &stats);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(stats.journal_torn_tail);
  EXPECT_EQ(stats.reconfig_records_replayed, 0u);
  EXPECT_EQ((*recovered)->CollectTree()->ToString(), tree_before);
}

// --- Carried shards: a reconfiguration rebuilds only what it changes ---

// Fill positions, one per satisfying set: {L1}, {L1,L2}, {L2}, {L3},
// {L3,L4}, {L5}.
License FillRequest(const ConstraintSchema& schema, int i,
                    const std::string& prefix = "F") {
  static const std::pair<int64_t, int64_t> kAt[] = {
      {2, 8}, {12, 18}, {25, 29}, {101, 105}, {111, 119}, {205, 215}};
  return MakeUsage(schema, prefix + std::to_string(i), {kAt[i % 6]}, 1);
}

// A live service next to everything its reconfigurations are held to: the
// brute-force ReferenceModel (rebuilt per epoch over an owned copy of the
// catalog) and a from-scratch rebuild of the reconfigured state.
class CarryHarness {
 public:
  CarryHarness(const LicenseCatalog* licenses, int shard_hint)
      : schema_(&licenses->schema()) {
    options_.shard_hint = shard_hint;
    options_.metrics = &metrics_;
    Result<std::unique_ptr<IssuanceService>> service =
        IssuanceService::Create(licenses, options_);
    EXPECT_TRUE(service.ok());
    service_ = std::move(*service);
    ResetModel({});
  }

  IssuanceService& service() { return *service_; }

  // Issues `request` on the service and the model: same decision, same
  // limiting equation on a rejection, and an acceptance checks exactly the
  // 2^(N_g − k) equations of S's overlap group.
  void Issue(const License& request) {
    const Result<OnlineDecision> got = service_->TryIssue(request);
    ASSERT_TRUE(got.ok());
    const ReferenceModel::Decision want = model_->TryIssue(request);
    ASSERT_EQ(got->satisfying_set, want.satisfying_set) << request.id();
    ASSERT_EQ(got->accepted(), want.accepted()) << request.id();
    if (want.accepted()) {
      for (const LicenseSet& group : model_->components()) {
        if (want.satisfying_set.IsSubsetOf(group)) {
          EXPECT_EQ(got->equations_checked,
                    uint64_t{1} << (group - want.satisfying_set).Size())
              << request.id();
        }
      }
      model_->Apply(want.satisfying_set, request.aggregate_count());
    } else if (want.instance_valid) {
      EXPECT_EQ(got->limiting.set, want.limiting_set) << request.id();
      EXPECT_EQ(got->limiting.lhs, want.limiting_lhs) << request.id();
      EXPECT_EQ(got->limiting.rhs, want.limiting_rhs) << request.id();
    }
  }

  // One request per fill position, accepted or rejected, including one
  // whose count no budget covers.
  void Probe() {
    const std::string prefix = "P" + std::to_string(probes_++) + "_";
    for (int i = 0; i < 6; ++i) {
      Issue(FillRequest(*schema_, i, prefix));
    }
    Issue(MakeUsage(*schema_, prefix + "huge", {{12, 18}}, 1000000000));
  }

  struct Delta {
    uint64_t migrated = 0;
    uint64_t carried = 0;
  };

  // Runs one reconfiguration that removes `removed` (current-epoch
  // indexes; empty for an acquisition) and checks the result against the
  // rebuild and the model. Returns the reconfiguration counters' change.
  Delta Reconfigure(const std::function<Status()>& op,
                    const LicenseSet& removed) {
    const LogStore before = service_->CollectLog();
    const int old_size = service_->licenses().size();
    const IssuanceMetrics::Snapshot m0 = metrics_.Snap();
    const Status status = op();
    EXPECT_TRUE(status.ok()) << status.message();
    const IssuanceMetrics::Snapshot m1 = metrics_.Snap();

    std::vector<int> old_to_new;
    int next = 0;
    for (int i = 0; i < old_size; ++i) {
      old_to_new.push_back(removed.Contains(i) ? -1 : next++);
    }
    LogStore expected;
    for (const LogRecord& record : before.records()) {
      if (record.set.Intersects(removed)) {
        continue;
      }
      LogRecord renumbered = record;
      renumbered.set = LicenseSet();
      for (int i : record.set.Indexes()) {
        renumbered.set.Add(old_to_new[static_cast<size_t>(i)]);
      }
      EXPECT_TRUE(expected.Append(std::move(renumbered)).ok());
    }
    ExpectSameAsRebuild(expected);
    ResetModel(old_to_new);
    return Delta{m1.reconfig_records_migrated - m0.reconfig_records_migrated,
                 m1.reconfig_shards_carried - m0.reconfig_shards_carried};
  }

 private:
  // Carrying a shard must be invisible: a fresh service fed the expected
  // records holds the same records in the same CollectLog order and the
  // same tree.
  void ExpectSameAsRebuild(const LogStore& expected) {
    OnlineValidatorOptions options = options_;
    options.metrics = nullptr;
    Result<std::unique_ptr<IssuanceService>> rebuilt =
        IssuanceService::CreateWithHistory(&service_->licenses(), options,
                                           expected);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().message();
    const LogStore want = (*rebuilt)->CollectLog();
    const LogStore got = service_->CollectLog();
    ASSERT_EQ(got.size(), want.size());
    for (size_t r = 0; r < got.size(); ++r) {
      ASSERT_EQ(got.at(r).issued_license_id, want.at(r).issued_license_id)
          << r;
      ASSERT_EQ(got.at(r).set, want.at(r).set) << r;
      ASSERT_EQ(got.at(r).count, want.at(r).count) << r;
    }
    EXPECT_EQ(service_->CollectTree()->ToString(),
              (*rebuilt)->CollectTree()->ToString());
    ExpectTablesMatch(*service_, expected);
    EXPECT_EQ(service_->shard_count(), (*rebuilt)->shard_count());
  }

  // Rebuilds the model over the service's current catalog, replaying the
  // old model's counts through `old_to_new` (-1 = removed: cascade-drop).
  void ResetModel(const std::vector<int>& old_to_new) {
    auto catalog = std::make_unique<LicenseCatalog>(schema_);
    for (const License& license : service_->licenses().licenses()) {
      EXPECT_TRUE(catalog->Add(license).ok());
    }
    auto model = std::make_unique<ReferenceModel>(catalog.get());
    if (model_ != nullptr) {
      for (const auto& [set, count] : model_->counts()) {
        LicenseSet renumbered;
        bool dropped = false;
        for (int i : set.Indexes()) {
          const int to = old_to_new[static_cast<size_t>(i)];
          dropped = dropped || to < 0;
          if (to >= 0) {
            renumbered.Add(to);
          }
        }
        if (!dropped) {
          model->Apply(renumbered, count);
        }
      }
    }
    model_ = std::move(model);
    model_catalog_ = std::move(catalog);
    std::map<LicenseSet, int64_t> service_counts;
    for (const auto& [set, count] : service_->CollectLog().MergedCounts()) {
      service_counts[set] = count;
    }
    EXPECT_EQ(service_counts, model_->counts());
  }

  const ConstraintSchema* schema_;
  int probes_ = 0;
  IssuanceMetrics metrics_;
  OnlineValidatorOptions options_;
  std::unique_ptr<IssuanceService> service_;
  // Declared in this order so the model dies before the catalog it reads.
  std::unique_ptr<LicenseCatalog> model_catalog_;
  std::unique_ptr<ReferenceModel> model_;
};

constexpr int kFillRecords = 5000;
constexpr int64_t kBudget = 1000000;

// Records of `log` whose set lies inside `mask` and avoids `removed`.
uint64_t Survivors(const LogStore& log, const LicenseSet& mask,
                   const LicenseSet& removed = LicenseSet()) {
  uint64_t n = 0;
  for (const LogRecord& record : log.records()) {
    if (record.set.IsSubsetOf(mask) && !record.set.Intersects(removed)) {
      ++n;
    }
  }
  return n;
}

TEST(LifecycleTest, AcquireDisjointLicenseCarriesEveryShard) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, kBudget);
  CarryHarness h(&licenses, /*shard_hint=*/0);
  for (int i = 0; i < kFillRecords; ++i) {
    h.Issue(FillRequest(schema, i));
  }
  ASSERT_EQ(h.service().CollectLog().size(),
            static_cast<size_t>(kFillRecords));

  const CarryHarness::Delta delta = h.Reconfigure(
      [&] {
        return h.service()
            .AcquireLicense(MakeRedistribution(schema, "L6", {{300, 320}}, 9))
            .status();
      },
      LicenseSet());
  EXPECT_EQ(delta.migrated, 0u);
  EXPECT_EQ(delta.carried, 3u);
  EXPECT_EQ(h.service().shard_count(), 4);
  h.Probe();
  for (int i = 0; i < 12; ++i) {  // Past L6's budget of 9.
    h.Issue(MakeUsage(schema, "N" + std::to_string(i), {{305, 315}}, 1));
  }
}

TEST(LifecycleTest, RevokeTopIndexCarriesEveryShard) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, kBudget);
  CarryHarness h(&licenses, /*shard_hint=*/0);
  for (int i = 0; i < kFillRecords; ++i) {
    h.Issue(FillRequest(schema, i));
  }
  const auto acquire = [&](const std::string& id) {
    return h.Reconfigure(
        [&] {
          return h.service()
              .AcquireLicense(
                  MakeRedistribution(schema, id, {{300, 320}}, kBudget))
              .status();
        },
        LicenseSet());
  };
  const auto revoke_top = [&] {
    const int top = h.service().licenses().size() - 1;
    return h.Reconfigure([&] { return h.service().RevokeLicense(top); },
                         LicenseSet::Singleton(top));
  };

  // The top license holds no records: its group vanishes and every other
  // shard carries.
  ASSERT_EQ(acquire("L6").carried, 3u);
  CarryHarness::Delta delta = revoke_top();
  EXPECT_EQ(delta.migrated, 0u);
  EXPECT_EQ(delta.carried, 3u);
  EXPECT_EQ(h.service().shard_count(), 3);
  h.Probe();

  // With records under the top license, they cascade with it; the other
  // shards still carry and nothing is copied.
  ASSERT_EQ(acquire("L7").carried, 3u);
  for (int i = 0; i < 20; ++i) {
    h.Issue(MakeUsage(schema, "T" + std::to_string(i), {{305, 315}}, 1));
  }
  delta = revoke_top();
  EXPECT_EQ(delta.migrated, 0u);
  EXPECT_EQ(delta.carried, 3u);
  EXPECT_EQ(h.service().CollectLog().size(),
            static_cast<size_t>(kFillRecords + 6));  // Fill + one probe.
  h.Probe();
}

TEST(LifecycleTest, RevokeLowIndexRebuildsRenumberedShards) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, kBudget);
  CarryHarness h(&licenses, /*shard_hint=*/0);
  for (int i = 0; i < kFillRecords; ++i) {
    h.Issue(FillRequest(schema, i));
  }
  const LogStore before = h.service().CollectLog();

  // Revoking L3 (index 2) changes group {L3,L4} and shifts {L5} down:
  // both shards rebuild, {L1,L2} carries.
  const CarryHarness::Delta delta = h.Reconfigure(
      [&] { return h.service().RevokeLicense(2); },
      LicenseSet::Singleton(2));
  EXPECT_EQ(delta.carried, 1u);
  EXPECT_EQ(delta.migrated, Survivors(before, testing::Mask(0b11100),
                                      LicenseSet::Singleton(2)));
  EXPECT_GT(delta.migrated, 0u);
  h.Probe();

  // Revoking index 0 renumbers every license above it: nothing carries.
  const LogStore mid = h.service().CollectLog();
  const CarryHarness::Delta all = h.Reconfigure(
      [&] { return h.service().RevokeLicense(0); }, LicenseSet::Singleton(0));
  EXPECT_EQ(all.carried, 0u);
  EXPECT_EQ(all.migrated,
            Survivors(mid, testing::Mask(0b1111), LicenseSet::Singleton(0)));
  h.Probe();
}

TEST(LifecycleTest, BridgeAcquireRebuildsOnlyMergedShards) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, kBudget);
  CarryHarness h(&licenses, /*shard_hint=*/0);
  for (int i = 0; i < kFillRecords; ++i) {
    h.Issue(FillRequest(schema, i));
  }
  const LogStore before = h.service().CollectLog();

  // The bridge merges {L1,L2} and {L3,L4}; {L5} moves from shard 2 to
  // shard 1 as the same object.
  const CarryHarness::Delta delta = h.Reconfigure(
      [&] {
        return h.service()
            .AcquireLicense(
                MakeRedistribution(schema, "B", {{15, 115}}, kBudget))
            .status();
      },
      LicenseSet());
  EXPECT_EQ(delta.carried, 1u);
  EXPECT_EQ(delta.migrated, Survivors(before, testing::Mask(0b01111)));
  EXPECT_EQ(h.service().shard_count(), 2);
  h.Probe();
  h.Issue(MakeUsage(schema, "Bq", {{16, 19}}, 1));  // {L1, L2, B}.

  // Revoking the bridge (top index, its group holds records) splits the
  // merged shard back; {L5} carries again.
  const LogStore merged = h.service().CollectLog();
  const CarryHarness::Delta split = h.Reconfigure(
      [&] { return h.service().RevokeLicense(5); }, LicenseSet::Singleton(5));
  EXPECT_EQ(split.carried, 1u);
  EXPECT_EQ(split.migrated,
            Survivors(merged, testing::Mask(0b101111),
                      LicenseSet::Singleton(5)));
  EXPECT_EQ(h.service().shard_count(), 3);
  h.Probe();
}

TEST(LifecycleTest, ShardHintRestripingRebuildsChangedShards) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, kBudget);
  for (const int hint : {1, 2}) {
    for (const bool records_in_removed : {false, true}) {
      SCOPED_TRACE("shard_hint=" + std::to_string(hint) +
                   (records_in_removed ? ", removed group holds records"
                                       : ", removed group empty"));
      CarryHarness h(&licenses, hint);
      // Fill every position but {L5} (the last), unless asked to.
      for (int i = 0; i < kFillRecords; ++i) {
        if (records_in_removed || i % 6 != 5) {
          h.Issue(FillRequest(schema, i));
        }
      }
      const LogStore before = h.service().CollectLog();

      // Revoke L5 (index 4): with hint 2 the stripes {g0,g2},{g1} become
      // {g0},{g1}; with hint 1 the single shard loses group {L5}.
      const CarryHarness::Delta delta = h.Reconfigure(
          [&] { return h.service().RevokeLicense(4); },
          LicenseSet::Singleton(4));
      if (!records_in_removed) {
        EXPECT_EQ(delta.migrated, 0u);
        EXPECT_EQ(delta.carried, static_cast<uint64_t>(hint));
      } else if (hint == 2) {
        EXPECT_EQ(delta.carried, 1u);  // Shard {g1}.
        EXPECT_EQ(delta.migrated, Survivors(before, testing::Mask(0b00011)));
      } else {
        EXPECT_EQ(delta.carried, 0u);
        EXPECT_EQ(delta.migrated, Survivors(before, testing::Mask(0b01111)));
      }
      h.Probe();

      // A disjoint acquisition extends a stripe without moving a group.
      const CarryHarness::Delta acquired = h.Reconfigure(
          [&] {
            return h.service()
                .AcquireLicense(
                    MakeRedistribution(schema, "L6", {{300, 320}}, kBudget))
                .status();
          },
          LicenseSet());
      EXPECT_EQ(acquired.migrated, 0u);
      EXPECT_EQ(acquired.carried, static_cast<uint64_t>(hint));
      h.Probe();

      // A bridge merges {L1,L2} and {L3,L4}: every new shard's group list
      // differs from every old one's, so everything rebuilds.
      const LogStore pre_bridge = h.service().CollectLog();
      const CarryHarness::Delta bridged = h.Reconfigure(
          [&] {
            return h.service()
                .AcquireLicense(
                    MakeRedistribution(schema, "B", {{15, 115}}, kBudget))
                .status();
          },
          LicenseSet());
      EXPECT_EQ(bridged.carried, 0u);
      EXPECT_EQ(bridged.migrated, pre_bridge.size());
      h.Probe();
    }
  }
}

// A shard carries across a removal only while its removed groups hold no
// records. Issuers race records into the removed group (on a shard it
// shares with {L1,L2} under shard_hint 2) while it is revoked; every such
// record must cascade with it, whether it landed before the carry check,
// between the check and the cut, or not at all.
TEST(LifecycleTest, RevokeRacingAdmissionsIntoTheRemovedGroup) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 1000000);
  OnlineValidatorOptions options;
  options.shard_hint = 2;
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses, options);
  ASSERT_TRUE(service.ok());
  IssuanceService* s = service->get();

  std::atomic<bool> stop{false};
  std::atomic<int> issued{0};
  std::vector<std::thread> issuers;
  for (int t = 0; t < 2; ++t) {
    issuers.emplace_back([&schema, s, &stop, &issued, t] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const std::string id =
            "R" + std::to_string(t) + "_" + std::to_string(i);
        // The removed group's region, and {L1,L2} on the same shard.
        const License request = i % 2 == 0
                                    ? MakeUsage(schema, id, {{205, 215}}, 1)
                                    : MakeUsage(schema, id, {{12, 18}}, 1);
        EXPECT_TRUE(s->TryIssue(request).ok());
        issued.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Returns the first failure, so the issuers are always joined.
  const auto storm = [&]() -> std::string {
    for (int round = 0; round < 200; ++round) {
      // Let the issuers land records in the group before each revoke.
      const int mark = issued.load(std::memory_order_relaxed);
      while (issued.load(std::memory_order_relaxed) < mark + 8) {
        std::this_thread::yield();
      }
      if (!s->RevokeLicense(4).ok()) {  // The {L5} group: top index.
        return "revoke failed";
      }
      const LicenseSet catalog = LicenseSet::Full(s->licenses().size());
      const LogStore log = s->CollectLog();
      for (const LogRecord& record : log.records()) {
        if (!record.set.IsSubsetOf(catalog)) {
          return "round " + std::to_string(round) + ": stale record " +
                 record.issued_license_id;
        }
      }
      if (!s->AcquireLicense(
                 MakeRedistribution(schema, "L5_" + std::to_string(round),
                                    {{200, 220}}, 1000000))
               .ok()) {
        return "acquire failed";
      }
    }
    return "";
  };
  const std::string failure = storm();
  stop.store(true);
  for (std::thread& thread : issuers) {
    thread.join();
  }
  EXPECT_EQ(failure, "");
  const Result<ValidationTree> tree = s->CollectTree();
  ASSERT_TRUE(tree.ok());
  const Result<ValidationTree> replay =
      ValidationTree::BuildFromLog(s->CollectLog());
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(tree->ToString(), replay->ToString());
  ExpectTablesMatch(*s, s->CollectLog());
}

// Journal file whose next append, once armed, parks the appending thread
// (which holds its shard lock and the journal lock) until released.
class GatedFile : public SyncFile {
 public:
  Status Append(std::string_view data) override {
    std::unique_lock<std::mutex> lock(mutex_);
    if (armed_) {
      armed_ = false;
      parked_ = true;
      changed_.notify_all();
      changed_.wait(lock, [this] { return !parked_; });
    }
    return inner_.Append(data);
  }
  Status Sync() override { return inner_.Sync(); }
  Status Close() override { return inner_.Close(); }

  void Arm() {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = true;
  }
  void AwaitParked() {
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [this] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    parked_ = false;
    changed_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable changed_;
  bool armed_ = false;
  bool parked_ = false;
  InMemorySyncFile inner_;
};

// The carry check on a removed group runs twice: in phase 2 under the
// shard's lock, and again at the cut. Here a record lands in the removed
// group between the two. The sequence is forced, not raced: an admission
// parked in the journal holds shard 1, so the reconfiguration passes its
// phase-2 check of shard 0 and then blocks on shard 1; the racing
// admission then locks shard 0 and waits on the journal. Releasing the
// journal lets its record land before the cut, which must demote shard 0
// to a rebuild and cascade the record away.
TEST(LifecycleTest, RecordLandingAfterTheCarryCheckIsCaughtAtTheCut) {
  ConstraintSchema schema;
  ASSERT_TRUE(schema.AddIntervalDimension("C1").ok());
  ASSERT_TRUE(schema.AddIntervalDimension("C2").ok());
  LicenseCatalog licenses(&schema);
  // Groups {A,B}, {C,D}, {E}; D and E expire below 10 in C2. Under
  // shard_hint 2: shard 0 = {A,B} + {E}, shard 1 = {C,D}.
  const auto add = [&](const std::string& id, int64_t lo, int64_t hi,
                       int64_t valid_until) {
    ASSERT_TRUE(licenses
                    .Add(MakeRedistribution(schema, id,
                                            {{lo, hi}, {0, valid_until}}, 100))
                    .ok());
  };
  add("A", 0, 20, 100);
  add("B", 10, 30, 100);
  add("C", 100, 120, 100);
  add("D", 110, 125, 5);
  add("E", 200, 210, 5);
  IssuanceMetrics metrics;
  OnlineValidatorOptions options;
  options.shard_hint = 2;
  options.metrics = &metrics;
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses, options);
  ASSERT_TRUE(service.ok());
  IssuanceService* s = service->get();
  auto file = std::make_unique<GatedFile>();
  GatedFile* gate = file.get();
  Result<std::unique_ptr<JournalWriter>> journal =
      JournalWriter::Create(std::move(file));
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(s->AttachJournal(std::move(*journal)).ok());
  ASSERT_TRUE(s->TryIssue(MakeUsage(schema, "U1", {{12, 18}, {1, 2}}, 1)).ok());
  ASSERT_TRUE(
      s->TryIssue(MakeUsage(schema, "U2", {{101, 105}, {1, 2}}, 1)).ok());

  gate->Arm();
  std::thread parked([&] {
    EXPECT_TRUE(
        s->TryIssue(MakeUsage(schema, "U3", {{101, 105}, {1, 2}}, 1)).ok());
  });
  gate->AwaitParked();  // Shard 1 and the journal lock are held.
  std::thread reconfig([&] {
    const Result<int> expired = s->ExpireDimensionBelow(1, 10);
    EXPECT_TRUE(expired.ok());
    EXPECT_EQ(expired.ok() ? *expired : 0, 2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  std::thread racing([&] {
    const Result<OnlineDecision> got =
        s->TryIssue(MakeUsage(schema, "U4", {{202, 208}, {1, 2}}, 1));
    EXPECT_TRUE(got.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate->Release();
  parked.join();
  reconfig.join();
  racing.join();

  ASSERT_EQ(s->licenses().size(), 3);
  const LogStore log = s->CollectLog();
  for (const LogRecord& record : log.records()) {
    EXPECT_TRUE(record.set.IsSubsetOf(LicenseSet::Full(3)))
        << record.issued_license_id;
    EXPECT_NE(record.issued_license_id, "U4");
  }
  EXPECT_EQ(log.size(), 3u);  // U1 {A,B}, U2 and U3 {C}.
  EXPECT_EQ(metrics.Snap().reconfig_shards_carried, 0u);
  const Result<ValidationTree> tree = s->CollectTree();
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->ToString(), ValidationTree::BuildFromLog(log)->ToString());
  ExpectTablesMatch(*s, log);
}

TEST(LifecycleTest, ReconfigStormRacesConcurrentIssuance) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 1000000);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  IssuanceService* s = service->get();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 300;
  std::atomic<int> failures{0};
  std::vector<std::thread> issuers;
  issuers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    issuers.emplace_back([&schema, s, &failures, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string id =
            "U" + std::to_string(t) + "_" + std::to_string(i);
        const License request =
            i % 3 == 0 ? MakeUsage(schema, id, {{12, 18}}, 1)
            : i % 3 == 1 ? MakeUsage(schema, id, {{111, 119}}, 1)
                         : MakeUsage(schema, id, {{205, 215}}, 1);
        const Result<OnlineDecision> got = s->TryIssue(request);
        if (!got.ok() || !got->instance_valid) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // The storm: repeated acquire+revoke of a bridge license that merges the
  // {L1,L2} and {L3,L4} shards on the way in and splits them on the way
  // out (the {L5} shard carries across both), then of a disjoint license
  // that every shard carries across, while issuance keeps running.
  for (int round = 0; round < 20; ++round) {
    const std::string id = "X" + std::to_string(round);
    const Result<int> acquired = s->AcquireLicense(
        MakeRedistribution(schema, id, {{15, 115}}, 1000000));
    ASSERT_TRUE(acquired.ok()) << acquired.status().message();
    ASSERT_TRUE(s->RevokeLicenseById(id).ok());
    const std::string disjoint = "D" + std::to_string(round);
    ASSERT_TRUE(
        s->AcquireLicense(
             MakeRedistribution(schema, disjoint, {{300, 320}}, 1000000))
            .ok());
    ASSERT_TRUE(s->RevokeLicenseById(disjoint).ok());
  }
  for (std::thread& thread : issuers) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(s->catalog_epoch(), 80u);
  EXPECT_EQ(s->metrics().Snap().reconfig_shards_carried,
            20u * (1 + 1 + 3 + 3));
  EXPECT_EQ(s->licenses().size(), 5);
  EXPECT_EQ(s->shard_count(), 3);

  // Requests admitted under the transient bridge epochs were recorded with
  // the bridge in scope; after its revocation their sets cascade or remap
  // back into the stable three-group space. The merged tree must replay
  // serially: every record routes inside one overlap group.
  const Result<ValidationTree> tree = s->CollectTree();
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->TotalCount(), s->CollectLog().TotalCount());
  ExpectTablesMatch(*s, s->CollectLog());
}

}  // namespace
}  // namespace geolic
