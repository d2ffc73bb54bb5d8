// SSE4.2 tier: 2 × int64 lanes per operation (PCMPGTQ arrived with
// SSE4.2). The mid tier for hosts without AVX2; same bit-exactness
// contract as the other tiers. Only this translation unit is compiled with
// -msse4.2.

#include "util/simd_kernels.h"

#if defined(__SSE4_2__)

#include <nmmintrin.h>

namespace geolic {
namespace simd {
namespace {

inline uint64_t PassBits2(__m128i fail, size_t shift) {
  const unsigned fail_bits =
      static_cast<unsigned>(_mm_movemask_pd(_mm_castsi128_pd(fail)));
  return static_cast<uint64_t>(~fail_bits & 0x3u) << shift;
}

void IntervalContainSse42(const int64_t* lo, const int64_t* hi, size_t n,
                          int64_t q_lo, int64_t q_hi, uint64_t* inout) {
  const __m128i v_qlo = _mm_set1_epi64x(q_lo);
  const __m128i v_qhi = _mm_set1_epi64x(q_hi);
  for (size_t base = 0; base < n; base += 64) {
    const size_t limit = n - base < 64 ? n - base : 64;
    uint64_t bits = 0;
    for (size_t j = 0; j < limit; j += 2) {
      const __m128i v_lo =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(lo + base + j));
      const __m128i v_hi =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(hi + base + j));
      const __m128i fail = _mm_or_si128(_mm_cmpgt_epi64(v_lo, v_qlo),
                                        _mm_cmpgt_epi64(v_qhi, v_hi));
      bits |= PassBits2(fail, j);
    }
    inout[base / 64] &= bits;
  }
}

void MaskSupersetSse42(const uint64_t* masks, size_t n, uint64_t q_mask,
                       uint64_t* inout) {
  const __m128i v_q = _mm_set1_epi64x(static_cast<int64_t>(q_mask));
  const __m128i v_zero = _mm_setzero_si128();
  for (size_t base = 0; base < n; base += 64) {
    const size_t limit = n - base < 64 ? n - base : 64;
    uint64_t bits = 0;
    for (size_t j = 0; j < limit; j += 2) {
      const __m128i v_m =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(masks + base + j));
      const __m128i stray = _mm_andnot_si128(v_m, v_q);
      const __m128i pass = _mm_cmpeq_epi64(stray, v_zero);
      bits |= static_cast<uint64_t>(static_cast<unsigned>(
                  _mm_movemask_pd(_mm_castsi128_pd(pass))))
              << j;
    }
    inout[base / 64] &= bits;
  }
}

}  // namespace

const Kernels& Sse42Kernels() {
  static const Kernels kernels = {IntervalContainSse42, MaskSupersetSse42,
                                  "sse4.2"};
  return kernels;
}

}  // namespace simd
}  // namespace geolic

#else  // !defined(__SSE4_2__)

namespace geolic {
namespace simd {
const Kernels& Sse42Kernels() { return ScalarKernels(); }
}  // namespace simd
}  // namespace geolic

#endif  // defined(__SSE4_2__)
