// AVX-512 instantiations of the striped filter kernels.
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

#include "util/error.hpp"

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

FilterResult msv_avx512(const profile::MsvProfile& prof,
                        const std::uint8_t* rows, int Q,
                        const std::uint8_t* seq, std::size_t L,
                        std::uint8_t* row) {
  return simd_kernels::msv_kernel<Avx512U8x64>(prof, rows, Q, seq, L, row);
}

FilterResult ssv_avx512(const profile::MsvProfile& prof,
                        const std::uint8_t* rows, int Q,
                        const std::uint8_t* seq, std::size_t L,
                        std::uint8_t* row) {
  return simd_kernels::ssv_kernel<Avx512U8x64>(prof, rows, Q, seq, L, row);
}

FilterResult vit_avx512(const profile::VitProfile& prof,
                        const simd_kernels::VitStripesView& st,
                        const std::uint8_t* seq, std::size_t L,
                        std::int16_t* mmx, std::int16_t* imx,
                        std::int16_t* dmx, int* lazyf_passes) {
  return simd_kernels::vit_kernel<Avx512I16x32>(prof, st, seq, L, mmx,
                                                imx, dmx, lazyf_passes);
}

float fwd_avx512(const profile::FwdProfile& prof,
                 const simd_kernels::FwdStripesView& st,
                 const std::uint8_t* seq, std::size_t L, float* mmx,
                 float* imx, float* dmx) {
  return simd_kernels::fwd_kernel<Avx512F32x16>(prof, st, seq, L, mmx,
                                                imx, dmx);
}

float fwd_bwd_avx512(const profile::FwdProfile& prof,
                     const simd_kernels::FwdStripesView& st,
                     const std::uint8_t* seq, std::size_t L,
                     const simd_kernels::FwdBwdScratch& ws, float* mocc) {
  return simd_kernels::fwd_bwd_kernel<Avx512F32x16>(prof, st, seq, L, ws,
                                                    mocc);
}

float forward_rows_avx512(const hmm::SearchProfile& prof,
                          const std::uint8_t* seq, std::size_t L, float* rows) {
  return simd_kernels::forward_rows_kernel<Avx512F32x16>(prof, seq, L, rows);
}

float trace_rows_avx512(const hmm::SearchProfile& prof,
                        const std::uint8_t* seq, std::size_t L,
                        const simd_kernels::TraceRows& ws) {
  return simd_kernels::trace_rows_kernel<Avx512F32x16>(prof, seq, L, ws);
}

FilterResult msv_avx512(const profile::MsvProfile& prof,
                        const std::uint8_t* rows, int Q,
                        bio::PackedResidues seq, std::size_t L,
                        std::uint8_t* row) {
  return simd_kernels::msv_kernel<Avx512U8x64>(prof, rows, Q, seq, L, row);
}

FilterResult ssv_avx512(const profile::MsvProfile& prof,
                        const std::uint8_t* rows, int Q,
                        bio::PackedResidues seq, std::size_t L,
                        std::uint8_t* row) {
  return simd_kernels::ssv_kernel<Avx512U8x64>(prof, rows, Q, seq, L, row);
}

void msv_group_avx512(const simd_kernels::MsvGroupView& g,
                      const simd_kernels::MsvGroupState& st,
                      const std::uint8_t* seq, std::size_t L,
                      std::uint8_t* row) {
  simd_kernels::msv_group_kernel<Avx512U8x64>(g, st, seq, L, row);
}

void ssv_group_avx512(const simd_kernels::MsvGroupView& g,
                      const simd_kernels::MsvGroupState& st,
                      const std::uint8_t* seq, std::size_t L,
                      std::uint8_t* row) {
  simd_kernels::ssv_group_kernel<Avx512U8x64>(g, st, seq, L, row);
}

void msv_group_avx512(const simd_kernels::MsvGroupView& g,
                      const simd_kernels::MsvGroupState& st,
                      bio::PackedResidues seq, std::size_t L,
                      std::uint8_t* row) {
  simd_kernels::msv_group_kernel<Avx512U8x64>(g, st, seq, L, row);
}

void ssv_group_avx512(const simd_kernels::MsvGroupView& g,
                      const simd_kernels::MsvGroupState& st,
                      bio::PackedResidues seq, std::size_t L,
                      std::uint8_t* row) {
  simd_kernels::ssv_group_kernel<Avx512U8x64>(g, st, seq, L, row);
}

#else  // AVX-512 backend not compiled in: stubs, never dispatched to

bool have_avx512() { return false; }

FilterResult msv_avx512(const profile::MsvProfile&, const std::uint8_t*,
                        int, const std::uint8_t*, std::size_t,
                        std::uint8_t*) {
  throw Error("AVX-512 backend not compiled into this binary");
}
FilterResult ssv_avx512(const profile::MsvProfile&, const std::uint8_t*,
                        int, const std::uint8_t*, std::size_t,
                        std::uint8_t*) {
  throw Error("AVX-512 backend not compiled into this binary");
}
FilterResult vit_avx512(const profile::VitProfile&,
                        const simd_kernels::VitStripesView&,
                        const std::uint8_t*, std::size_t, std::int16_t*,
                        std::int16_t*, std::int16_t*, int*) {
  throw Error("AVX-512 backend not compiled into this binary");
}
float fwd_avx512(const profile::FwdProfile&,
                 const simd_kernels::FwdStripesView&, const std::uint8_t*,
                 std::size_t, float*, float*, float*) {
  throw Error("AVX-512 backend not compiled into this binary");
}
float fwd_bwd_avx512(const profile::FwdProfile&,
                     const simd_kernels::FwdStripesView&,
                     const std::uint8_t*, std::size_t,
                     const simd_kernels::FwdBwdScratch&, float*) {
  throw Error("AVX-512 backend not compiled into this binary");
}
float forward_rows_avx512(const hmm::SearchProfile&, const std::uint8_t*,
                          std::size_t, float*) {
  throw Error("AVX-512 backend not compiled into this binary");
}
float trace_rows_avx512(const hmm::SearchProfile&, const std::uint8_t*,
                        std::size_t, const simd_kernels::TraceRows&) {
  throw Error("AVX-512 backend not compiled into this binary");
}
FilterResult msv_avx512(const profile::MsvProfile&, const std::uint8_t*,
                        int, bio::PackedResidues, std::size_t,
                        std::uint8_t*) {
  throw Error("AVX-512 backend not compiled into this binary");
}
FilterResult ssv_avx512(const profile::MsvProfile&, const std::uint8_t*,
                        int, bio::PackedResidues, std::size_t,
                        std::uint8_t*) {
  throw Error("AVX-512 backend not compiled into this binary");
}
void msv_group_avx512(const simd_kernels::MsvGroupView&,
                      const simd_kernels::MsvGroupState&,
                      const std::uint8_t*, std::size_t, std::uint8_t*) {
  throw Error("AVX-512 backend not compiled into this binary");
}
void ssv_group_avx512(const simd_kernels::MsvGroupView&,
                      const simd_kernels::MsvGroupState&,
                      const std::uint8_t*, std::size_t, std::uint8_t*) {
  throw Error("AVX-512 backend not compiled into this binary");
}
void msv_group_avx512(const simd_kernels::MsvGroupView&,
                      const simd_kernels::MsvGroupState&,
                      bio::PackedResidues, std::size_t, std::uint8_t*) {
  throw Error("AVX-512 backend not compiled into this binary");
}
void ssv_group_avx512(const simd_kernels::MsvGroupView&,
                      const simd_kernels::MsvGroupState&,
                      bio::PackedResidues, std::size_t, std::uint8_t*) {
  throw Error("AVX-512 backend not compiled into this binary");
}

#endif

}  // namespace finehmm::cpu::backend
