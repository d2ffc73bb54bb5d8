#include "core/grouping.h"

#include <gtest/gtest.h>

#include "core/overlap_graph.h"
#include "test_util.h"

namespace geolic {
namespace {

using testing::IntervalSchema;
using testing::MakeRedistribution;
using testing::Rect;

// License set shaped like the paper's figure 2 in one interval dimension
// per axis: L1, L2, L4 mutually linked through overlaps, L3-L5 linked,
// no cross links.
LicenseCatalog Figure2Set(const ConstraintSchema& schema) {
  LicenseCatalog set(&schema);
  GEOLIC_CHECK(set.Add(MakeRedistribution(schema, "LD1", {{0, 20}, {0, 20}},
                                          2000))
                   .ok());
  GEOLIC_CHECK(set.Add(MakeRedistribution(schema, "LD2", {{10, 30}, {5, 25}},
                                          1000))
                   .ok());
  GEOLIC_CHECK(set.Add(MakeRedistribution(schema, "LD3",
                                          {{100, 130}, {0, 20}}, 3000))
                   .ok());
  GEOLIC_CHECK(set.Add(MakeRedistribution(schema, "LD4", {{15, 40}, {10, 35}},
                                          4000))
                   .ok());
  GEOLIC_CHECK(set.Add(MakeRedistribution(schema, "LD5",
                                          {{120, 150}, {10, 30}}, 2000))
                   .ok());
  return set;
}

TEST(OverlapGraphTest, BuildsEdgesFromGeometry) {
  const ConstraintSchema schema = IntervalSchema(2);
  const LicenseCatalog set = Figure2Set(schema);
  const AdjacencyMatrix graph = BuildOverlapGraph(set);
  EXPECT_TRUE(graph.HasEdge(0, 1));   // L1-L2.
  EXPECT_TRUE(graph.HasEdge(0, 3));   // L1-L4.
  EXPECT_TRUE(graph.HasEdge(1, 3));   // L2-L4.
  EXPECT_TRUE(graph.HasEdge(2, 4));   // L3-L5.
  EXPECT_FALSE(graph.HasEdge(0, 2));
  EXPECT_FALSE(graph.HasEdge(1, 4));
  EXPECT_FALSE(graph.HasEdge(3, 4));
}

TEST(OverlapGraphTest, FromRectsMatchesFromLicenses) {
  const ConstraintSchema schema = IntervalSchema(2);
  const LicenseCatalog set = Figure2Set(schema);
  std::vector<HyperRect> rects;
  for (int i = 0; i < set.size(); ++i) {
    rects.push_back(set.at(i).rect());
  }
  const AdjacencyMatrix a = BuildOverlapGraph(set);
  const AdjacencyMatrix b = BuildOverlapGraphFromRects(rects);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      EXPECT_EQ(a.HasEdge(i, j), b.HasEdge(i, j));
    }
  }
}

TEST(LicenseGroupingTest, GroupsFigure2IntoTwo) {
  const ConstraintSchema schema = IntervalSchema(2);
  const LicenseCatalog set = Figure2Set(schema);
  const LicenseGrouping grouping = LicenseGrouping::FromLicenses(set);
  ASSERT_EQ(grouping.group_count(), 2);
  EXPECT_EQ(grouping.num_licenses(), 5);
  EXPECT_EQ(grouping.GroupMask(0), testing::Mask(0b01011));  // {L1, L2, L4}.
  EXPECT_EQ(grouping.GroupMask(1), testing::Mask(0b10100));  // {L3, L5}.
  EXPECT_EQ(grouping.GroupSize(0), 3);
  EXPECT_EQ(grouping.GroupSize(1), 2);
  EXPECT_EQ(grouping.GroupOf(0), 0);
  EXPECT_EQ(grouping.GroupOf(2), 1);
  EXPECT_EQ(grouping.GroupOf(4), 1);
}

TEST(LicenseGroupingTest, PositionsMatchAlgorithm5) {
  const ConstraintSchema schema = IntervalSchema(2);
  const LicenseGrouping grouping =
      LicenseGrouping::FromLicenses(Figure2Set(schema));
  // Algorithm 5's example: position_2 = (0, 0, 1, 0, 2) — L3 → 1, L5 → 2
  // (1-based), i.e. local positions 0 and 1 here.
  EXPECT_EQ(grouping.PositionOf(2), 0);
  EXPECT_EQ(grouping.PositionOf(4), 1);
  // Group 1: L1→0, L2→1, L4→2.
  EXPECT_EQ(grouping.PositionOf(0), 0);
  EXPECT_EQ(grouping.PositionOf(1), 1);
  EXPECT_EQ(grouping.PositionOf(3), 2);
  // Round trips.
  EXPECT_EQ(grouping.OriginalIndexOf(0, 2), 3);
  EXPECT_EQ(grouping.OriginalIndexOf(1, 1), 4);
}

TEST(LicenseGroupingTest, MaskTranslation) {
  const ConstraintSchema schema = IntervalSchema(2);
  const LicenseGrouping grouping =
      LicenseGrouping::FromLicenses(Figure2Set(schema));
  // Local {pos0, pos2} of group 0 = original {L1, L4}.
  EXPECT_EQ(grouping.LocalToOriginalMask(0, testing::Mask(0b101)), testing::Mask(0b01001));
  EXPECT_EQ(grouping.LocalToOriginalMask(1, testing::Mask(0b11)), testing::Mask(0b10100));
}

TEST(LicenseGroupingTest, GroupAggregatesFollowsLocalOrder) {
  const ConstraintSchema schema = IntervalSchema(2);
  const LicenseCatalog set = Figure2Set(schema);
  const LicenseGrouping grouping = LicenseGrouping::FromLicenses(set);
  const std::vector<int64_t> aggregates = set.AggregateCounts();
  // Group 0 = {L1, L2, L4} → A_1 = (2000, 1000, 4000).
  EXPECT_EQ(*grouping.GroupAggregates(0, aggregates),
            (std::vector<int64_t>{2000, 1000, 4000}));
  // Group 1 = {L3, L5} → A_2 = (3000, 2000), the paper's Algorithm 5 walk.
  EXPECT_EQ(*grouping.GroupAggregates(1, aggregates),
            (std::vector<int64_t>{3000, 2000}));
  EXPECT_FALSE(grouping.GroupAggregates(7, aggregates).ok());
  EXPECT_FALSE(grouping.GroupAggregates(0, {1, 2}).ok());
}

TEST(LicenseGroupingTest, SingleLicense) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  ASSERT_TRUE(set.Add(MakeRedistribution(schema, "LD1", {{0, 10}}, 10)).ok());
  const LicenseGrouping grouping = LicenseGrouping::FromLicenses(set);
  EXPECT_EQ(grouping.group_count(), 1);
  EXPECT_EQ(grouping.GroupSize(0), 1);
  EXPECT_EQ(grouping.PositionOf(0), 0);
}

TEST(LicenseGroupingTest, AllDisjointLicensesEachOwnGroup) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(set.Add(MakeRedistribution(schema, "LD" + std::to_string(i),
                                           {{i * 100, i * 100 + 50}}, 10))
                    .ok());
  }
  const LicenseGrouping grouping = LicenseGrouping::FromLicenses(set);
  EXPECT_EQ(grouping.group_count(), 6);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(grouping.GroupSize(i), 1);
    EXPECT_EQ(grouping.PositionOf(i), 0);
  }
}

TEST(LicenseGroupingTest, FromRects) {
  const std::vector<HyperRect> rects = {
      Rect({{0, 10}}), Rect({{5, 15}}), Rect({{100, 110}})};
  const LicenseGrouping grouping = LicenseGrouping::FromRects(rects);
  EXPECT_EQ(grouping.group_count(), 2);
  EXPECT_EQ(grouping.GroupMask(0), testing::Mask(0b011));
  EXPECT_EQ(grouping.GroupMask(1), testing::Mask(0b100));
}

}  // namespace
}  // namespace geolic
