// The per-tier kernel table.
//
// The portable row instantiates the shared template kernels with the
// plain-loop lane classes from cpu/simd_vec.hpp at the same 128-bit
// geometry as SSE2 (16 bytes / 8 words / 4 floats), so a forced portable
// run is bit-identical to the SSE2 run.  The native rows come from their
// ISA TUs; a tier that was not compiled in has no row.
#include "cpu/simd_backend/backend.hpp"

#include "cpu/simd_vec.hpp"
#include "util/error.hpp"

namespace finehmm::cpu::backend {

const TierKernels& tier_kernels(SimdTier tier) {
  static constexpr TierKernels kPortable =
      make_tier_kernels<U8xN<16>, I16xN<8>, F32xN<4>>(SimdTier::kPortable);
  const TierKernels* row = nullptr;
  switch (tier) {
    case SimdTier::kPortable:
      row = &kPortable;
      break;
    case SimdTier::kSse2:
      row = sse2_kernels();
      break;
    case SimdTier::kAvx2:
      row = avx2_kernels();
      break;
    case SimdTier::kAvx512:
      row = avx512_kernels();
      break;
  }
  FH_REQUIRE(row != nullptr, "SIMD tier not compiled into this binary");
  return *row;
}

}  // namespace finehmm::cpu::backend
