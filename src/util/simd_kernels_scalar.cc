// Scalar tier: the portable reference the vector tiers are gated against.
// Compiled with the project's baseline flags (no ISA extensions), always
// linked, and the tier GEOLIC_FORCE_SCALAR pins the dispatcher to.

#include "util/simd_kernels.h"

namespace geolic {
namespace simd {
namespace {

void IntervalContainScalar(const int64_t* lo, const int64_t* hi, size_t n,
                           int64_t q_lo, int64_t q_hi, uint64_t* inout) {
  for (size_t base = 0; base < n; base += 64) {
    uint64_t bits = 0;
    const size_t limit = n - base < 64 ? n - base : 64;
    for (size_t j = 0; j < limit; ++j) {
      const size_t item = base + j;
      if (lo[item] <= q_lo && q_hi <= hi[item]) {
        bits |= uint64_t{1} << j;
      }
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
      if ((q_mask & ~masks[base + j]) == 0) {
        bits |= uint64_t{1} << j;
      }
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
