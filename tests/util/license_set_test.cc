#include "util/license_set.h"

#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/random.h"

namespace geolic {
namespace {

// ---------------------------------------------------------------------------
// Inline-path fuzz: at N <= 64 every LicenseSet operation must be
// bit-identical to the seed's bare-uint64_t mask arithmetic. The "model"
// below IS that seed arithmetic, transcribed; 1000 random word pairs are
// pushed through both.
// ---------------------------------------------------------------------------

int ModelSize(uint64_t mask) { return std::popcount(mask); }
bool ModelSubset(uint64_t sub, uint64_t super) { return (sub & ~super) == 0; }
bool ModelContains(uint64_t mask, int i) {
  return (mask & (uint64_t{1} << i)) != 0;
}
int ModelLowest(uint64_t mask) { return std::countr_zero(mask); }
int ModelHighest(uint64_t mask) { return 63 - std::countl_zero(mask); }

TEST(LicenseSetInlineFuzzTest, BitIdenticalToSeedWordArithmetic) {
  Rng rng(20260808);
  for (int trial = 0; trial < 1000; ++trial) {
    const uint64_t a = rng.Next();
    const uint64_t b = rng.Next();
    const LicenseSet sa = LicenseSet::FromWord(a);
    const LicenseSet sb = LicenseSet::FromWord(b);

    // Representation: inline sets ARE the old word.
    ASSERT_EQ(sa.WordCount(), 1);
    ASSERT_EQ(sa.AsWord(), a);
    ASSERT_EQ(sa.Word(0), a);

    // Algebra.
    EXPECT_EQ((sa | sb).AsWord(), a | b);
    EXPECT_EQ((sa & sb).AsWord(), a & b);
    EXPECT_EQ((sa - sb).AsWord(), a & ~b);

    // Observers.
    EXPECT_EQ(sa.Size(), ModelSize(a));
    EXPECT_EQ(sa.Empty(), a == 0);
    EXPECT_EQ(sa.IsSubsetOf(sb), ModelSubset(a, b));
    EXPECT_EQ(sa.Intersects(sb), (a & b) != 0);
    if (a != 0) {
      EXPECT_EQ(sa.Lowest(), ModelLowest(a));
      EXPECT_EQ(sa.Highest(), ModelHighest(a));
    }
    const int probe = static_cast<int>(rng.UniformInt(0, 63));
    EXPECT_EQ(sa.Contains(probe), ModelContains(a, probe));

    // Ordering and equality are numeric, as with bare words.
    EXPECT_EQ(sa == sb, a == b);
    EXPECT_EQ(sa < sb, a < b);

    // Index round trip.
    EXPECT_EQ(LicenseSet::FromIndexes(sa.ToIndexes()), sa);

    // Hex round trip.
    LicenseSet parsed;
    ASSERT_TRUE(LicenseSet::FromHex(sa.ToHex(), &parsed));
    EXPECT_EQ(parsed, sa);
  }
}

TEST(LicenseSetInlineFuzzTest, SubsetIterationOrderMatchesSeedDescent) {
  // The seed enumerated non-empty submasks descending via
  // `sub = (sub - 1) & mask`. SubsetIterator must visit in exactly that
  // order for inline sets.
  Rng rng(77002);
  for (int trial = 0; trial < 1000; ++trial) {
    // Keep popcount small so enumeration stays cheap.
    const uint64_t mask = rng.Next() & rng.Next() & rng.Next();
    std::vector<uint64_t> expected;
    for (uint64_t sub = mask; sub != 0; sub = (sub - 1) & mask) {
      expected.push_back(sub);
    }
    std::vector<uint64_t> got;
    for (SubsetIterator it(LicenseSet::FromWord(mask)); !it.Done();
         it.Next()) {
      ASSERT_EQ(it.subset().WordCount(), 1);
      got.push_back(it.subset().AsWord());
    }
    ASSERT_EQ(got, expected) << "mask=0x" << std::hex << mask;
  }
}

TEST(LicenseSetInlineFuzzTest, AscendingIterationAndLimitingEquation) {
  // The online admission extension scan enumerates ALL subsets ascending
  // (empty first) via `sub = (sub - mask) & mask`; the first violated
  // equation it meets is the reported limiting set. Both the order and the
  // resulting limiting choice must match the seed trick.
  Rng rng(88003);
  for (int trial = 0; trial < 1000; ++trial) {
    const uint64_t mask = rng.Next() & rng.Next() & rng.Next();
    std::vector<uint64_t> expected;
    uint64_t sub = 0;
    while (true) {
      expected.push_back(sub);
      if (sub == mask) {
        break;
      }
      sub = (sub - mask) & mask;
    }
    std::vector<uint64_t> got;
    for (AscendingSubsetIterator it(LicenseSet::FromWord(mask)); !it.Done();
         it.Next()) {
      got.push_back(it.subset().AsWord());
      if (it.AtLast()) {
        EXPECT_EQ(it.subset().AsWord(), mask);
      }
    }
    ASSERT_EQ(got, expected) << "mask=0x" << std::hex << mask;

    // Limiting equation: random per-subset budgets, first ascending subset
    // whose budget is "violated" must agree between model and iterator.
    uint64_t model_limiting = 0;
    bool model_found = false;
    for (const uint64_t s : expected) {
      if (s != 0 && (s & 1u) == 1u && ModelSize(s) >= 2) {
        model_limiting = s;
        model_found = true;
        break;
      }
    }
    LicenseSet set_limiting;
    bool set_found = false;
    for (AscendingSubsetIterator it(LicenseSet::FromWord(mask)); !it.Done();
         it.Next()) {
      const LicenseSet s = it.subset();
      if (!s.Empty() && s.Contains(0) && s.Size() >= 2) {
        set_limiting = s;
        set_found = true;
        break;
      }
    }
    ASSERT_EQ(set_found, model_found);
    if (model_found) {
      EXPECT_EQ(set_limiting.AsWord(), model_limiting);
    }
  }
}

// ---------------------------------------------------------------------------
// Wide-path unit coverage: representation canonicality and cross-word ops.
// ---------------------------------------------------------------------------

TEST(LicenseSetWideTest, FromWordsCanonicalizesTrailingZeroWords) {
  const uint64_t one_word[] = {0x5au};
  EXPECT_EQ(LicenseSet::FromWords(one_word).WordCount(), 1);

  const uint64_t padded[] = {0x5au, 0, 0};
  const LicenseSet set = LicenseSet::FromWords(padded);
  EXPECT_EQ(set.WordCount(), 1);  // Trimmed back to inline.
  EXPECT_EQ(set, LicenseSet::FromWord(0x5au));

  const uint64_t wide[] = {0, 0x1u, 0};
  const LicenseSet spilled = LicenseSet::FromWords(wide);
  EXPECT_EQ(spilled.WordCount(), 2);
  EXPECT_EQ(spilled, LicenseSet::Singleton(64));
}

TEST(LicenseSetWideTest, SingletonFullAndObserversAcrossWords) {
  const LicenseSet high = LicenseSet::Singleton(900);
  EXPECT_EQ(high.Size(), 1);
  EXPECT_EQ(high.Lowest(), 900);
  EXPECT_EQ(high.Highest(), 900);
  EXPECT_TRUE(high.Contains(900));
  EXPECT_FALSE(high.Contains(899));
  EXPECT_EQ(high.WordCount(), 900 / 64 + 1);

  const LicenseSet full = LicenseSet::Full(200);
  EXPECT_EQ(full.Size(), 200);
  EXPECT_EQ(full.Lowest(), 0);
  EXPECT_EQ(full.Highest(), 199);
  EXPECT_TRUE(LicenseSet::Full(64).IsSubsetOf(full));
  EXPECT_TRUE(high.IsSubsetOf(LicenseSet::Full(1024)));
  EXPECT_FALSE(high.IsSubsetOf(full));
}

TEST(LicenseSetWideTest, AlgebraNarrowsBackToInline) {
  const LicenseSet wide = LicenseSet::Singleton(5) | LicenseSet::Singleton(700);
  EXPECT_EQ(wide.WordCount(), 700 / 64 + 1);
  // Subtracting the high bit must re-canonicalize to the inline word.
  const LicenseSet narrowed = wide - LicenseSet::Singleton(700);
  EXPECT_EQ(narrowed.WordCount(), 1);
  EXPECT_EQ(narrowed, LicenseSet::FromWord(0b100000u));
  // Intersection with an inline set narrows too.
  EXPECT_EQ((wide & LicenseSet::Full(64)).WordCount(), 1);
  // Equality is representation-independent because both sides canonicalize.
  EXPECT_EQ(narrowed.AsWord(), 0b100000u);
}

TEST(LicenseSetWideTest, FuzzWideOpsAgainstIndexSets) {
  // Model a wide set as its sorted index list; every op must agree.
  Rng rng(404405);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<int> ia;
    std::vector<int> ib;
    for (int k = 0; k < 12; ++k) {
      ia.push_back(static_cast<int>(rng.UniformInt(0, 1023)));
      ib.push_back(static_cast<int>(rng.UniformInt(0, 1023)));
    }
    const LicenseSet a = LicenseSet::FromIndexes(ia);
    const LicenseSet b = LicenseSet::FromIndexes(ib);
    std::map<int, bool> in_a;
    std::map<int, bool> in_b;
    for (int i : ia) in_a[i] = true;
    for (int i : ib) in_b[i] = true;

    std::vector<int> union_indexes;
    std::vector<int> inter_indexes;
    std::vector<int> minus_indexes;
    bool subset = true;
    bool intersects = false;
    for (int i = 0; i < 1024; ++i) {
      const bool pa = in_a.count(i) != 0;
      const bool pb = in_b.count(i) != 0;
      if (pa || pb) union_indexes.push_back(i);
      if (pa && pb) {
        inter_indexes.push_back(i);
        intersects = true;
      }
      if (pa && !pb) {
        minus_indexes.push_back(i);
        subset = false;
      }
    }
    EXPECT_EQ((a | b).ToIndexes(), union_indexes);
    EXPECT_EQ((a & b).ToIndexes(), inter_indexes);
    EXPECT_EQ((a - b).ToIndexes(), minus_indexes);
    EXPECT_EQ(a.IsSubsetOf(b), subset);
    EXPECT_EQ(a.Intersects(b), intersects);
    EXPECT_EQ(a.Size(), static_cast<int>(in_a.size()));
    EXPECT_EQ(a.Lowest(), a.ToIndexes().front());
    EXPECT_EQ(a.Highest(), a.ToIndexes().back());

    // Round trips.
    EXPECT_EQ(LicenseSet::FromIndexes(a.ToIndexes()), a);
    LicenseSet parsed;
    ASSERT_TRUE(LicenseSet::FromHex(a.ToHex(), &parsed));
    EXPECT_EQ(parsed, a);
    EXPECT_EQ(LicenseSet::FromWords(a.WordSpan()), a);

    // Indexes() range agrees with ToIndexes().
    std::vector<int> ranged;
    for (const int index : a.Indexes()) {
      ranged.push_back(index);
    }
    EXPECT_EQ(ranged, a.ToIndexes());
  }
}

TEST(LicenseSetWideTest, SubsetIterationOverWideSets) {
  // A sparse wide set with k bits has exactly 2^k - 1 non-empty subsets;
  // descending order generalizes word-wise.
  const LicenseSet set = LicenseSet::FromIndexes({3, 70, 200, 513, 1000});
  std::vector<LicenseSet> seen;
  for (SubsetIterator it(set); !it.Done(); it.Next()) {
    EXPECT_TRUE(it.subset().IsSubsetOf(set));
    EXPECT_FALSE(it.subset().Empty());
    if (!seen.empty()) {
      EXPECT_TRUE(it.subset() < seen.back()) << "not descending";
    }
    seen.push_back(it.subset());
  }
  EXPECT_EQ(seen.size(), 31u);  // 2^5 - 1.

  size_t ascending_count = 0;
  LicenseSet last;
  for (AscendingSubsetIterator it(set); !it.Done(); it.Next()) {
    if (ascending_count > 0) {
      EXPECT_TRUE(last < it.subset()) << "not ascending";
    }
    last = it.subset();
    ++ascending_count;
    if (it.AtLast()) {
      EXPECT_EQ(it.subset(), set);
    }
  }
  EXPECT_EQ(ascending_count, 32u);  // 2^5, empty set included.
}

TEST(LicenseSetWideTest, AddRemoveMutatorsMatchFactories) {
  LicenseSet set;
  set.Add(10);
  set.Add(800);
  EXPECT_EQ(set, LicenseSet::FromIndexes({10, 800}));
  set.Remove(800);
  EXPECT_EQ(set.WordCount(), 1);
  EXPECT_EQ(set, LicenseSet::Singleton(10));
  set.Remove(10);
  EXPECT_TRUE(set.Empty());
}

}  // namespace
}  // namespace geolic
