// AVX2 tier: 4 × int64 lanes per operation. This translation unit is the
// only one compiled with -mavx2 (see util/CMakeLists.txt), so AVX2
// instructions never leak into code that runs before the dispatch probe.
// Only the 64-bit compare/blend/add units are used — no floating point, so
// the results are exact and bit-identical to the scalar tier.

#include "util/simd_kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace geolic {
namespace simd {
namespace {

inline uint64_t PassBits4(__m256i fail, size_t shift) {
  const unsigned fail_bits =
      static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(fail)));
  return static_cast<uint64_t>(~fail_bits & 0xFu) << shift;
}

void IntervalContainAvx2(const int64_t* lo, const int64_t* hi, size_t n,
                         int64_t q_lo, int64_t q_hi, uint64_t* inout) {
  const __m256i v_qlo = _mm256_set1_epi64x(q_lo);
  const __m256i v_qhi = _mm256_set1_epi64x(q_hi);
  for (size_t base = 0; base < n; base += 64) {
    const size_t limit = n - base < 64 ? n - base : 64;
    uint64_t bits = 0;
    for (size_t j = 0; j < limit; j += 4) {
      const __m256i v_lo = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(lo + base + j));
      const __m256i v_hi = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(hi + base + j));
      // Containment fails iff lo[j] > q_lo or q_hi > hi[j].
      const __m256i fail = _mm256_or_si256(_mm256_cmpgt_epi64(v_lo, v_qlo),
                                           _mm256_cmpgt_epi64(v_qhi, v_hi));
      bits |= PassBits4(fail, j);
    }
    inout[base / 64] &= bits;
  }
}

void MaskSupersetAvx2(const uint64_t* masks, size_t n, uint64_t q_mask,
                      uint64_t* inout) {
  const __m256i v_q = _mm256_set1_epi64x(static_cast<int64_t>(q_mask));
  const __m256i v_zero = _mm256_setzero_si256();
  for (size_t base = 0; base < n; base += 64) {
    const size_t limit = n - base < 64 ? n - base : 64;
    uint64_t bits = 0;
    for (size_t j = 0; j < limit; j += 4) {
      const __m256i v_m = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(masks + base + j));
      // Pass iff q_mask & ~masks[j] == 0 (andnot computes ~m & q).
      const __m256i stray = _mm256_andnot_si256(v_m, v_q);
      const __m256i pass = _mm256_cmpeq_epi64(stray, v_zero);
      bits |= static_cast<uint64_t>(static_cast<unsigned>(
                  _mm256_movemask_pd(_mm256_castsi256_pd(pass))))
              << j;
    }
    inout[base / 64] &= bits;
  }
}

}  // namespace

const Kernels& Avx2Kernels() {
  static const Kernels kernels = {IntervalContainAvx2, MaskSupersetAvx2,
                                  "avx2"};
  return kernels;
}

}  // namespace simd
}  // namespace geolic

#else  // !defined(__AVX2__)

// Non-x86 (or AVX2-less) toolchain: the tier still links but degrades to
// the scalar table; cpu_dispatch never selects it on such hosts.
namespace geolic {
namespace simd {
const Kernels& Avx2Kernels() { return ScalarKernels(); }
}  // namespace simd
}  // namespace geolic

#endif  // defined(__AVX2__)
