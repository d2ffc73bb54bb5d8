#include "geometry/soa_rects.h"

#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/hyper_rect.h"
#include "util/cpu_dispatch.h"
#include "util/simd_kernels.h"
#include "util/license_set.h"
#include "util/random.h"

namespace geolic {
namespace {

constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();

// Every kernel tier the host can actually execute (scalar always; the
// wider tiers only where cpuid says so).
std::vector<simd::Tier> AvailableTiers() {
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  if (simd::TierAvailable(simd::Tier::kSse42)) {
    tiers.push_back(simd::Tier::kSse42);
  }
  if (simd::TierAvailable(simd::Tier::kAvx2)) {
    tiers.push_back(simd::Tier::kAvx2);
  }
  return tiers;
}

// Bound values skewed toward the saturation edges: INT64 extremes and
// off-by-one neighbors show up often enough that the fail-closed sentinels
// and closed-interval comparisons get hit.
int64_t EdgyValue(Rng* rng) {
  switch (rng->UniformIndex(8)) {
    case 0:
      return kInt64Min;
    case 1:
      return kInt64Max;
    case 2:
      return kInt64Min + 1;
    case 3:
      return kInt64Max - 1;
    default:
      return rng->UniformInt(-100, 100);
  }
}

ConstraintRange RandomRange(Rng* rng) {
  switch (rng->UniformIndex(4)) {
    case 0: {  // Single interval (sometimes empty).
      if (rng->Bernoulli(0.1)) {
        return ConstraintRange(Interval::Empty());
      }
      int64_t a = EdgyValue(rng);
      int64_t b = EdgyValue(rng);
      if (a > b) {
        std::swap(a, b);
      }
      return ConstraintRange(Interval(a, b));
    }
    case 1: {  // Multi-interval union (1-3 pieces, may normalize to fewer).
      std::vector<Interval> pieces;
      const size_t count = 1 + rng->UniformIndex(3);
      for (size_t p = 0; p < count; ++p) {
        int64_t a = EdgyValue(rng);
        int64_t b = EdgyValue(rng);
        if (a > b) {
          std::swap(a, b);
        }
        pieces.emplace_back(a, b);
      }
      return ConstraintRange(MultiInterval::FromIntervals(std::move(pieces)));
    }
    case 2:  // Category set (sometimes empty).
      return ConstraintRange(
          CategorySet(rng->Bernoulli(0.15) ? 0 : rng->Next() & 0xFF));
    default: {  // Narrow interval: makes containment hits common.
      const int64_t lo = rng->UniformInt(-20, 20);
      return ConstraintRange(Interval(lo, lo + rng->UniformInt(0, 10)));
    }
  }
}

HyperRect RandomRect(Rng* rng, int dims) {
  HyperRect rect;
  for (int d = 0; d < dims; ++d) {
    rect.AddDim(RandomRange(rng));
  }
  return rect;
}

// 1k random (catalog, query) trials: every available tier's Containing
// must be bit-identical to the scalar HyperRect::Contains predicate.
TEST(SoaRectsTest, FuzzEquivalenceAcrossTiersMatchesHyperRect) {
  Rng rng(20260808);
  const std::vector<simd::Tier> tiers = AvailableTiers();
  ASSERT_FALSE(tiers.empty());
  for (int trial = 0; trial < 1000; ++trial) {
    const int dims = static_cast<int>(1 + rng.UniformIndex(20));
    const size_t n = 1 + rng.UniformIndex(70);  // Crosses the 64-bit word.
    std::vector<HyperRect> rects;
    rects.reserve(n);
    for (size_t j = 0; j < n; ++j) {
      // A sprinkle of wrong-dimensionality rects exercises the irregular
      // scalar-only path.
      const int rect_dims =
          rng.Bernoulli(0.05) ? dims + 1 : dims;
      rects.push_back(RandomRect(&rng, rect_dims));
    }
    const SoaRects soa = SoaRects::Build(rects);
    const HyperRect query = RandomRect(
        &rng, rng.Bernoulli(0.05) ? dims + 1 : dims);

    for (const simd::Tier tier : tiers) {
      uint64_t contain[kMaxLicenseWords];
      const simd::Kernels& kernels = simd::KernelsForTier(tier);
      soa.ContainingWithKernels(kernels, query, contain);
      for (size_t j = 0; j < n; ++j) {
        const bool got_contain = (contain[j / 64] >> (j % 64)) & 1;
        ASSERT_EQ(got_contain, rects[j].Contains(query))
            << "trial " << trial << " tier " << kernels.name << " rect " << j
            << " contains: rect=" << rects[j].ToString()
            << " query=" << query.ToString();
      }
      // Tail bits past n stay clear (callers hand the words to
      // LicenseSet::FromWords, which requires canonical padding).
      for (size_t j = n; j < SoaRects::WordsFor(n) * 64; ++j) {
        ASSERT_FALSE((contain[j / 64] >> (j % 64)) & 1);
      }
    }
  }
}

// The kernels against their plain predicates on every pairing of boundary
// values — where compare and zero-test identities that avoid a branch
// could overflow or lose a sign.
TEST(SoaRectsTest, KernelsMatchPredicatesAtInt64Extremes) {
  const std::vector<int64_t> values = {kInt64Min, kInt64Min + 1, -2, -1, 0,
                                       1, 2, kInt64Max - 1, kInt64Max};
  std::vector<int64_t> lo;
  std::vector<int64_t> hi;
  for (int64_t a : values) {
    for (int64_t b : values) {
      lo.push_back(a);
      hi.push_back(b);
    }
  }
  std::vector<uint64_t> masks = {0, 1, 2, 3, ~uint64_t{0},
                                 uint64_t{1} << 63, 0x5555};
  const size_t n = lo.size();
  const size_t mask_count = masks.size();
  // Vector tiers load whole registers: pad to kColumnPad with fail-closed
  // cells, as SoaRects does.
  const auto padded = [](size_t size) {
    return (size + simd::kColumnPad - 1) / simd::kColumnPad *
           simd::kColumnPad;
  };
  lo.resize(padded(n), kInt64Max);
  hi.resize(padded(n), kInt64Min);
  masks.resize(padded(mask_count), 0);
  for (const simd::Tier tier : AvailableTiers()) {
    const simd::Kernels& kernels = simd::KernelsForTier(tier);
    for (int64_t q_lo : values) {
      for (int64_t q_hi : values) {
        std::vector<uint64_t> out((n + 63) / 64, ~uint64_t{0});
        kernels.interval_contain(lo.data(), hi.data(), n, q_lo, q_hi,
                                 out.data());
        for (size_t j = 0; j < n; ++j) {
          const bool want = lo[j] <= q_lo && q_hi <= hi[j];
          EXPECT_EQ(((out[j / 64] >> (j % 64)) & 1) != 0, want)
              << kernels.name << " item " << j << " query [" << q_lo << ", "
              << q_hi << "]";
        }
      }
    }
    for (uint64_t q_mask : masks) {
      uint64_t out = ~uint64_t{0};
      kernels.mask_superset(masks.data(), mask_count, q_mask, &out);
      for (size_t j = 0; j < mask_count; ++j) {
        EXPECT_EQ(((out >> j) & 1) != 0, (q_mask & ~masks[j]) == 0)
            << kernels.name << " mask " << j << " query " << q_mask;
      }
    }
  }
}

TEST(SoaRectsTest, EmptyBuildMatchesEmptyCatalog) {
  const SoaRects soa = SoaRects::Build({});
  EXPECT_EQ(soa.size(), 0);
  uint64_t out[kMaxLicenseWords];
  HyperRect query;
  query.AddDim(ConstraintRange(Interval(0, 10)));
  soa.Containing(query, out);
  EXPECT_EQ(out[0], 0u);
}

TEST(SoaRectsTest, MultiPieceCellsReCheckExactly) {
  // Catalog cell [0,10] ∪ [20,30]: the bounding interval [0,30] would
  // wrongly contain [12,15]; the exact re-check must clear it.
  std::vector<HyperRect> rects;
  HyperRect gap;
  gap.AddDim(ConstraintRange(
      MultiInterval::FromIntervals({Interval(0, 10), Interval(20, 30)})));
  rects.push_back(gap);
  const SoaRects soa = SoaRects::Build(rects);

  HyperRect inside_gap;
  inside_gap.AddDim(ConstraintRange(Interval(12, 15)));
  uint64_t out[kMaxLicenseWords];
  soa.Containing(inside_gap, out);
  EXPECT_EQ(out[0], 0u);
  HyperRect spanning;
  spanning.AddDim(ConstraintRange(Interval(5, 25)));
  soa.Containing(spanning, out);
  EXPECT_EQ(out[0], 0u);
  HyperRect in_piece;
  in_piece.AddDim(ConstraintRange(Interval(21, 29)));
  soa.Containing(in_piece, out);
  EXPECT_EQ(out[0], 1u);
}

}  // namespace
}  // namespace geolic
