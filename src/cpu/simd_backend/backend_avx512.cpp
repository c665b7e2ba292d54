// AVX-512 row of the kernel table (see backend.hpp).
//
// This is the only TU compiled with -mavx512f -mavx512bw (set per-file
// from src/CMakeLists.txt, which also defines FINEHMM_BACKEND_AVX512 —
// same scheme as the AVX2 TU, so the rest of the binary stays runnable on
// any x86-64).  The byte/word kernels need BW for 512-bit sub-dword
// lanes; the float kernels need only F, but the tier is gated on both so
// one probe covers the whole row.  have_avx512() combines compile-time
// availability with cpuid probes, so a binary built here still runs —
// and correctly reports the tier unavailable — on older machines; CI
// additionally builds this TU on non-AVX-512 runners as a compile-only
// check.
#include "cpu/simd_backend/backend.hpp"

#if defined(FINEHMM_BACKEND_AVX512) && defined(__AVX512F__) && \
    defined(__AVX512BW__)
#define FINEHMM_AVX512_TU 1
#include "cpu/simd_backend/vec_avx512.hpp"
#endif

namespace finehmm::cpu::backend {

#if FINEHMM_AVX512_TU

bool have_avx512() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0;
#else
  return false;
#endif
}

const TierKernels* avx512_kernels() {
  static constexpr TierKernels kRow =
      make_tier_kernels<Avx512U8x64, Avx512I16x32, Avx512F32x16>(
          SimdTier::kAvx512);
  return &kRow;
}

#else  // AVX-512 backend not compiled in

bool have_avx512() { return false; }
const TierKernels* avx512_kernels() { return nullptr; }

#endif

}  // namespace finehmm::cpu::backend
