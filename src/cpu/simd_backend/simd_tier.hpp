// Runtime-dispatched native SIMD tiers for the striped CPU filters.
//
// The portable lane classes in cpu/simd_vec.hpp remain the executable
// specification; on x86-64 hosts the same kernels also exist as native
// SSE2 (128-bit), AVX2 (256-bit) and AVX-512 (512-bit) instantiations,
// compiled into dedicated translation units
// (src/cpu/simd_backend/backend_*.cpp) so no global -march flag is
// needed.  A tier is usable only when BOTH the compiler built its
// backend and cpuid reports the ISA at runtime; the dispatcher picks the
// widest usable tier unless overridden.
//
// Override order (strongest first):
//   1. set_simd_tier() — programmatic, for tests;
//   2. FINEHMM_SIMD env var: portable | sse2 | avx2 | avx512 | auto;
//   3. auto-detection (widest supported).
// Requesting a tier the host cannot run falls back to the widest
// supported tier below it, never errors.  Every tier is bit-exact with
// the scalar references (see docs/simd_dispatch.md for the contract).
#pragma once

#include <optional>
#include <string_view>
#include <vector>

namespace finehmm::cpu {

enum class SimdTier : int {
  kPortable = 0,  // auto-vectorized lane loops (simd_vec.hpp), 128-bit
  kSse2 = 1,      // native 128-bit intrinsics, 16x u8 / 8x i16 / 4x f32
  kAvx2 = 2,      // native 256-bit intrinsics, 32x u8 / 16x i16 / 8x f32
  kAvx512 = 3,    // native 512-bit intrinsics, 64x u8 / 32x i16 / 16x f32
};

/// Widest tier whose backend is compiled in AND supported by this CPU.
SimdTier max_simd_tier();

/// True if `tier` can actually execute on this host.
bool simd_tier_supported(SimdTier tier);

/// All usable tiers, narrowest first (always contains kPortable).
std::vector<SimdTier> supported_simd_tiers();

/// The tier new filters pick up by default (override > env > auto).
SimdTier active_simd_tier();

/// Force a tier process-wide (clamped to what the host supports).
/// Intended for tests and benchmarks; thread-safe.
void set_simd_tier(SimdTier tier);

/// Drop a set_simd_tier() override, returning to env/auto selection.
void reset_simd_tier();

/// Clamp a requested tier to the widest supported tier <= it.
SimdTier resolve_simd_tier(SimdTier requested);

/// "portable" / "sse2" / "avx2" / "avx512".
const char* simd_tier_name(SimdTier tier);

/// Parse a tier name (as accepted by FINEHMM_SIMD); "auto" and unknown
/// strings return nullopt.
std::optional<SimdTier> parse_simd_tier(std::string_view name);

}  // namespace finehmm::cpu
