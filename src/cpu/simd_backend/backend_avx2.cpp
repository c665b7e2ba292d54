// AVX2 row of the kernel table (see backend.hpp).
//
// This is the only TU in the library compiled with -mavx2 (set per-file
// from src/CMakeLists.txt, which also defines FINEHMM_BACKEND_AVX2; there
// is deliberately no global -march so the rest of the binary stays
// runnable on any x86-64).  Instantiating the row here is what compiles
// every kernel body with AVX2 code.  have_avx2() combines that
// compile-time availability with a cpuid probe, so a binary built here
// still runs — and correctly reports the tier unavailable — on an
// SSE2-only machine.
#include "cpu/simd_backend/backend.hpp"

#if defined(FINEHMM_BACKEND_AVX2) && defined(__AVX2__)
#define FINEHMM_AVX2_TU 1
#include "cpu/simd_backend/vec_avx2.hpp"
#endif

namespace finehmm::cpu::backend {

#if FINEHMM_AVX2_TU

bool have_avx2() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const TierKernels* avx2_kernels() {
  static constexpr TierKernels kRow =
      make_tier_kernels<AvxU8x32, AvxI16x16, AvxF32x8>(SimdTier::kAvx2);
  return &kRow;
}

#else  // AVX2 backend not compiled in

bool have_avx2() { return false; }
const TierKernels* avx2_kernels() { return nullptr; }

#endif

}  // namespace finehmm::cpu::backend
