// SSE2 row of the kernel table (see backend.hpp).
//
// SSE2 is part of the x86-64 baseline ABI, so this TU needs no extra
// compile flags; on non-x86 targets it builds no row and have_sse2()
// reports false, leaving the portable tier in charge.
#include "cpu/simd_backend/backend.hpp"

#if defined(__x86_64__) || defined(_M_X64) || defined(__SSE2__)
#define FINEHMM_SSE2_TU 1
#include "cpu/simd_backend/vec_sse2.hpp"
#endif

namespace finehmm::cpu::backend {

#if FINEHMM_SSE2_TU

bool have_sse2() { return true; }

const TierKernels* sse2_kernels() {
  static constexpr TierKernels kRow =
      make_tier_kernels<SseU8x16, SseI16x8, SseF32x4>(SimdTier::kSse2);
  return &kRow;
}

#else  // SSE2 backend not compiled in

bool have_sse2() { return false; }
const TierKernels* sse2_kernels() { return nullptr; }

#endif

}  // namespace finehmm::cpu::backend
