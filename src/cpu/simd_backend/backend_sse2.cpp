// SSE2 instantiations of the striped filter kernels.
//
// SSE2 is part of the x86-64 baseline ABI, so this TU needs no extra
// compile flags; on non-x86 targets it degrades to stubs and have_sse2()
// reports false, leaving the portable tier in charge.
#include "cpu/simd_backend/backend.hpp"

#include "util/error.hpp"

#if defined(__x86_64__) || defined(_M_X64) || defined(__SSE2__)
#define FINEHMM_SSE2_TU 1
#include "cpu/simd_backend/vec_sse2.hpp"
#endif

namespace finehmm::cpu::backend {

#if FINEHMM_SSE2_TU

bool have_sse2() { return true; }

FilterResult msv_sse2(const profile::MsvProfile& prof,
                      const std::uint8_t* rows, int Q,
                      const std::uint8_t* seq, std::size_t L,
                      std::uint8_t* row) {
  return simd_kernels::msv_kernel<SseU8x16>(prof, rows, Q, seq, L, row);
}

FilterResult ssv_sse2(const profile::MsvProfile& prof,
                      const std::uint8_t* rows, int Q,
                      const std::uint8_t* seq, std::size_t L,
                      std::uint8_t* row) {
  return simd_kernels::ssv_kernel<SseU8x16>(prof, rows, Q, seq, L, row);
}

FilterResult vit_sse2(const profile::VitProfile& prof,
                      const simd_kernels::VitStripesView& st,
                      const std::uint8_t* seq, std::size_t L,
                      std::int16_t* mmx, std::int16_t* imx,
                      std::int16_t* dmx, int* lazyf_passes) {
  return simd_kernels::vit_kernel<SseI16x8>(prof, st, seq, L, mmx, imx,
                                            dmx, lazyf_passes);
}

float fwd_sse2(const profile::FwdProfile& prof,
               const simd_kernels::FwdStripesView& st,
               const std::uint8_t* seq, std::size_t L, float* mmx,
               float* imx, float* dmx) {
  return simd_kernels::fwd_kernel<SseF32x4>(prof, st, seq, L, mmx, imx,
                                            dmx);
}

float fwd_bwd_sse2(const profile::FwdProfile& prof,
                   const simd_kernels::FwdStripesView& st,
                   const std::uint8_t* seq, std::size_t L,
                   const simd_kernels::FwdBwdScratch& ws, float* mocc) {
  return simd_kernels::fwd_bwd_kernel<SseF32x4>(prof, st, seq, L, ws,
                                                mocc);
}

float forward_rows_sse2(const hmm::SearchProfile& prof,
                        const std::uint8_t* seq, std::size_t L, float* rows) {
  return simd_kernels::forward_rows_kernel<SseF32x4>(prof, seq, L, rows);
}

float trace_rows_sse2(const hmm::SearchProfile& prof,
                      const std::uint8_t* seq, std::size_t L,
                      const simd_kernels::TraceRows& ws) {
  return simd_kernels::trace_rows_kernel<SseF32x4>(prof, seq, L, ws);
}

FilterResult msv_sse2(const profile::MsvProfile& prof,
                      const std::uint8_t* rows, int Q,
                      bio::PackedResidues seq, std::size_t L,
                      std::uint8_t* row) {
  return simd_kernels::msv_kernel<SseU8x16>(prof, rows, Q, seq, L, row);
}

FilterResult ssv_sse2(const profile::MsvProfile& prof,
                      const std::uint8_t* rows, int Q,
                      bio::PackedResidues seq, std::size_t L,
                      std::uint8_t* row) {
  return simd_kernels::ssv_kernel<SseU8x16>(prof, rows, Q, seq, L, row);
}

void msv_group_sse2(const simd_kernels::MsvGroupView& g,
                    const simd_kernels::MsvGroupState& st,
                    const std::uint8_t* seq, std::size_t L,
                    std::uint8_t* row) {
  simd_kernels::msv_group_kernel<SseU8x16>(g, st, seq, L, row);
}

void ssv_group_sse2(const simd_kernels::MsvGroupView& g,
                    const simd_kernels::MsvGroupState& st,
                    const std::uint8_t* seq, std::size_t L,
                    std::uint8_t* row) {
  simd_kernels::ssv_group_kernel<SseU8x16>(g, st, seq, L, row);
}

void msv_group_sse2(const simd_kernels::MsvGroupView& g,
                    const simd_kernels::MsvGroupState& st,
                    bio::PackedResidues seq, std::size_t L,
                    std::uint8_t* row) {
  simd_kernels::msv_group_kernel<SseU8x16>(g, st, seq, L, row);
}

void ssv_group_sse2(const simd_kernels::MsvGroupView& g,
                    const simd_kernels::MsvGroupState& st,
                    bio::PackedResidues seq, std::size_t L,
                    std::uint8_t* row) {
  simd_kernels::ssv_group_kernel<SseU8x16>(g, st, seq, L, row);
}

#else  // non-x86 host: stubs, never dispatched to

bool have_sse2() { return false; }

FilterResult msv_sse2(const profile::MsvProfile&, const std::uint8_t*, int,
                      const std::uint8_t*, std::size_t, std::uint8_t*) {
  throw Error("SSE2 backend not available on this target");
}
FilterResult ssv_sse2(const profile::MsvProfile&, const std::uint8_t*, int,
                      const std::uint8_t*, std::size_t, std::uint8_t*) {
  throw Error("SSE2 backend not available on this target");
}
FilterResult vit_sse2(const profile::VitProfile&,
                      const simd_kernels::VitStripesView&,
                      const std::uint8_t*, std::size_t, std::int16_t*,
                      std::int16_t*, std::int16_t*, int*) {
  throw Error("SSE2 backend not available on this target");
}
float fwd_sse2(const profile::FwdProfile&,
               const simd_kernels::FwdStripesView&, const std::uint8_t*,
               std::size_t, float*, float*, float*) {
  throw Error("SSE2 backend not available on this target");
}
float fwd_bwd_sse2(const profile::FwdProfile&,
                   const simd_kernels::FwdStripesView&,
                   const std::uint8_t*, std::size_t,
                   const simd_kernels::FwdBwdScratch&, float*) {
  throw Error("SSE2 backend not available on this target");
}
float forward_rows_sse2(const hmm::SearchProfile&, const std::uint8_t*,
                        std::size_t, float*) {
  throw Error("SSE2 backend not available on this target");
}
float trace_rows_sse2(const hmm::SearchProfile&, const std::uint8_t*,
                      std::size_t, const simd_kernels::TraceRows&) {
  throw Error("SSE2 backend not available on this target");
}
FilterResult msv_sse2(const profile::MsvProfile&, const std::uint8_t*, int,
                      bio::PackedResidues, std::size_t, std::uint8_t*) {
  throw Error("SSE2 backend not available on this target");
}
FilterResult ssv_sse2(const profile::MsvProfile&, const std::uint8_t*, int,
                      bio::PackedResidues, std::size_t, std::uint8_t*) {
  throw Error("SSE2 backend not available on this target");
}
void msv_group_sse2(const simd_kernels::MsvGroupView&,
                    const simd_kernels::MsvGroupState&, const std::uint8_t*,
                    std::size_t, std::uint8_t*) {
  throw Error("SSE2 backend not available on this target");
}
void ssv_group_sse2(const simd_kernels::MsvGroupView&,
                    const simd_kernels::MsvGroupState&, const std::uint8_t*,
                    std::size_t, std::uint8_t*) {
  throw Error("SSE2 backend not available on this target");
}
void msv_group_sse2(const simd_kernels::MsvGroupView&,
                    const simd_kernels::MsvGroupState&, bio::PackedResidues,
                    std::size_t, std::uint8_t*) {
  throw Error("SSE2 backend not available on this target");
}
void ssv_group_sse2(const simd_kernels::MsvGroupView&,
                    const simd_kernels::MsvGroupState&, bio::PackedResidues,
                    std::size_t, std::uint8_t*) {
  throw Error("SSE2 backend not available on this target");
}

#endif

}  // namespace finehmm::cpu::backend
