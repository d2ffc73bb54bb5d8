#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "service/issuance_service.h"
#include "test_util.h"
#include "util/request_arena.h"

// Proves the steady-state admission path is zero-malloc: after a warmup
// that touches every lazily-allocated structure (arena blocks, LicenseSet
// span pool, reserved log capacity), repeating the
// same request mix through TryIssue and the span TryIssueBatch overload
// performs no heap allocation at all.
//
// The counting hook replaces global operator new/delete, so it sees every
// allocation in the process (including the test harness's own); the test
// only compares the counter across the steady-state window, on the single
// test thread. Pool-recycled LicenseSet spans never reach operator new,
// which is exactly the property under test — with the pool compiled out
// (GEOLIC_LICENSE_SET_NO_POOL, the sanitizer builds) the guarantee does
// not hold and the steady-state assertions are skipped.
//
// The replacements must stay out of the inliner: if GCC inlines a delete
// body (sees the free) without the paired new body, -Wmismatched-new-delete
// misfires on perfectly matched replacement pairs.
#if defined(__GNUC__) || defined(__clang__)
#define GEOLIC_TEST_NOINLINE __attribute__((noinline))
#else
#define GEOLIC_TEST_NOINLINE
#endif

namespace {
std::atomic<uint64_t> g_news{0};
}  // namespace

GEOLIC_TEST_NOINLINE void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

GEOLIC_TEST_NOINLINE void* operator new[](std::size_t size) {
  return ::operator new(size);
}

GEOLIC_TEST_NOINLINE void* operator new(std::size_t size,
                                        const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

GEOLIC_TEST_NOINLINE void* operator new[](std::size_t size,
                                          const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

GEOLIC_TEST_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
GEOLIC_TEST_NOINLINE void operator delete[](void* p) noexcept {
  std::free(p);
}
GEOLIC_TEST_NOINLINE void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
GEOLIC_TEST_NOINLINE void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
GEOLIC_TEST_NOINLINE void operator delete(void* p,
                                          const std::nothrow_t&) noexcept {
  std::free(p);
}
GEOLIC_TEST_NOINLINE void operator delete[](void* p,
                                            const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace geolic {
namespace {

using testing::IntervalSchema;
using testing::MakeRedistribution;
using testing::MakeUsage;

TEST(AllocFreeTest, SteadyStateTryIssuePerformsNoHeapAllocation) {
#ifdef GEOLIC_LICENSE_SET_NO_POOL
  GTEST_SKIP() << "LicenseSet span pool compiled out (sanitizer build)";
#else
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog licenses(&schema);
  ASSERT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L1", {{0, 20}}, 1 << 20)).ok());
  ASSERT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L2", {{10, 30}}, 1 << 20))
          .ok());
  ASSERT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L3", {{100, 120}}, 1 << 20))
          .ok());

  Result<std::unique_ptr<IssuanceService>> created =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(created.ok());
  IssuanceService& service = **created;

  constexpr int kWarmup = 64;
  constexpr int kSteady = 512;
  // The busiest shard logs 4 records per iteration (two requests, each
  // admitted via TryIssue and again via the batch).
  service.ReserveLogCapacity(4 * (kWarmup + kSteady));

  // Request mix built up front (License construction allocates); admission
  // only updates preallocated slack tables and the reserved log. The
  // out-of-range request exercises the instance-reject path.
  std::vector<License> requests;
  requests.push_back(MakeUsage(schema, "U-a", {{12, 18}}, 1));   // {L1, L2}
  requests.push_back(MakeUsage(schema, "U-b", {{2, 8}}, 1));     // {L1}
  requests.push_back(MakeUsage(schema, "U-c", {{105, 115}}, 1)); // {L3}
  requests.push_back(MakeUsage(schema, "U-d", {{500, 510}}, 1)); // none
  std::vector<License> batch = requests;
  std::vector<OnlineDecision> decisions(batch.size());

  for (int i = 0; i < kWarmup; ++i) {
    for (const License& request : requests) {
      ASSERT_TRUE(service.TryIssue(request).ok());
    }
    ASSERT_TRUE(
        service
            .TryIssueBatch(std::span<const License>(batch),
                           std::span<OnlineDecision>(decisions))
            .ok());
  }

  const uint64_t before = g_news.load(std::memory_order_relaxed);
  for (int i = 0; i < kSteady; ++i) {
    for (const License& request : requests) {
      const Result<OnlineDecision> decision = service.TryIssue(request);
      ASSERT_TRUE(decision.ok());
    }
    ASSERT_TRUE(
        service
            .TryIssueBatch(std::span<const License>(batch),
                           std::span<OnlineDecision>(decisions))
            .ok());
  }
  const uint64_t after = g_news.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations in the steady-state window";
#endif
}

TEST(AllocFreeTest, RequestArenaReusesBlocksAfterReset) {
  RequestArena arena(256);
  void* first = arena.Allocate(64, 8);
  ASSERT_NE(first, nullptr);
  arena.Reset();
  // Same block, same offset: the arena retains and reuses its blocks.
  EXPECT_EQ(arena.Allocate(64, 8), first);

  const uint64_t before = g_news.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    const ArenaScope scope(&arena);
    (void)arena.AllocateArray<uint64_t>(16);
  }
  EXPECT_EQ(g_news.load(std::memory_order_relaxed) - before, 0u);
}

}  // namespace
}  // namespace geolic
