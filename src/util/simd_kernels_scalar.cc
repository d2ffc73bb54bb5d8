// Scalar tier: the portable reference the vector tiers are gated against.
// Compiled with the project's baseline flags (no ISA extensions), always
// linked, and the tier GEOLIC_FORCE_SCALAR pins the dispatcher to.

#include "util/simd_kernels.h"

namespace geolic {
namespace simd {
namespace {

// Both kernels build each 64-item word without a branch, from operations
// the baseline ISA has as vector instructions (x86-64's SSE2 has no 64-bit
// compare and no per-lane shift), so the compiler vectorizes the item
// loop: predicates come from subtract/logic identities, and bit j comes
// from a constant table instead of `1 << j`.

struct BitTable {
  constexpr BitTable() : bit() {
    for (int j = 0; j < 64; ++j) {
      bit[j] = uint64_t{1} << j;
    }
  }
  uint64_t bit[64];
};
constexpr BitTable kBits;

// 1 iff a <= b (signed). Flipping the sign bits maps signed order onto
// unsigned order; a <= b then means v − u does not borrow (Hacker's
// Delight 2-13).
inline uint64_t LessEqual(int64_t a, int64_t b) {
  constexpr uint64_t kSign = uint64_t{1} << 63;
  const uint64_t u = static_cast<uint64_t>(a) ^ kSign;
  const uint64_t v = static_cast<uint64_t>(b) ^ kSign;
  return (((~v & u) | (~(v ^ u) & (v - u))) >> 63) ^ 1;
}

// 1 iff x == 0: only zero leaves the top bit of x | −x clear.
inline uint64_t IsZero(uint64_t x) { return ((x | (0 - x)) >> 63) ^ 1; }

void IntervalContainScalar(const int64_t* lo, const int64_t* hi, size_t n,
                           int64_t q_lo, int64_t q_hi, uint64_t* inout) {
  for (size_t base = 0; base < n; base += 64) {
    uint64_t bits = 0;
    const size_t limit = n - base < 64 ? n - base : 64;
    for (size_t j = 0; j < limit; ++j) {
      const uint64_t inside =
          LessEqual(lo[base + j], q_lo) & LessEqual(q_hi, hi[base + j]);
      bits |= (0 - inside) & kBits.bit[j];
    }
    inout[base / 64] &= bits;
  }
}

void MaskSupersetScalar(const uint64_t* masks, size_t n, uint64_t q_mask,
                        uint64_t* inout) {
  for (size_t base = 0; base < n; base += 64) {
    uint64_t bits = 0;
    const size_t limit = n - base < 64 ? n - base : 64;
    for (size_t j = 0; j < limit; ++j) {
      bits |= (0 - IsZero(q_mask & ~masks[base + j])) & kBits.bit[j];
    }
    inout[base / 64] &= bits;
  }
}

}  // namespace

const Kernels& ScalarKernels() {
  static const Kernels kernels = {IntervalContainScalar, MaskSupersetScalar,
                                  "scalar"};
  return kernels;
}

}  // namespace simd
}  // namespace geolic
