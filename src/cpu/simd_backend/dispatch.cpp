// The per-tier kernel dispatch table.
//
// The portable row instantiates the shared template kernels with the
// plain-loop lane classes from cpu/simd_vec.hpp at the same 128-bit
// geometry as SSE2 (16 bytes / 8 words / 4 floats), so a forced portable
// run is bit-identical to the SSE2 run and the table is total: every row
// has every kernel.  Rows for tiers that were not compiled in (or cannot
// run on this CPU) still resolve — to the backend stubs, which throw —
// because callers are required to consult simd_tier_supported() first.
#include "cpu/simd_backend/backend.hpp"

#include <iterator>

#include "cpu/simd_vec.hpp"
#include "util/error.hpp"

namespace finehmm::cpu::backend {

namespace {

FilterResult msv_portable(const profile::MsvProfile& prof,
                          const std::uint8_t* rows, int Q,
                          const std::uint8_t* seq, std::size_t L,
                          std::uint8_t* row) {
  return simd_kernels::msv_kernel<U8x16>(prof, rows, Q, seq, L, row);
}

FilterResult msv_portable_packed(const profile::MsvProfile& prof,
                                 const std::uint8_t* rows, int Q,
                                 bio::PackedResidues seq, std::size_t L,
                                 std::uint8_t* row) {
  return simd_kernels::msv_kernel<U8x16>(prof, rows, Q, seq, L, row);
}

FilterResult ssv_portable(const profile::MsvProfile& prof,
                          const std::uint8_t* rows, int Q,
                          const std::uint8_t* seq, std::size_t L,
                          std::uint8_t* row) {
  return simd_kernels::ssv_kernel<U8x16>(prof, rows, Q, seq, L, row);
}

FilterResult ssv_portable_packed(const profile::MsvProfile& prof,
                                 const std::uint8_t* rows, int Q,
                                 bio::PackedResidues seq, std::size_t L,
                                 std::uint8_t* row) {
  return simd_kernels::ssv_kernel<U8x16>(prof, rows, Q, seq, L, row);
}

FilterResult vit_portable(const profile::VitProfile& prof,
                          const simd_kernels::VitStripesView& st,
                          const std::uint8_t* seq, std::size_t L,
                          std::int16_t* mmx, std::int16_t* imx,
                          std::int16_t* dmx, int* lazyf_passes) {
  return simd_kernels::vit_kernel<I16x8>(prof, st, seq, L, mmx, imx, dmx,
                                         lazyf_passes);
}

float fwd_portable(const profile::FwdProfile& prof,
                   const simd_kernels::FwdStripesView& st,
                   const std::uint8_t* seq, std::size_t L, float* mmx,
                   float* imx, float* dmx) {
  return simd_kernels::fwd_kernel<F32x4>(prof, st, seq, L, mmx, imx, dmx);
}

float fwd_bwd_portable(const profile::FwdProfile& prof,
                       const simd_kernels::FwdStripesView& st,
                       const std::uint8_t* seq, std::size_t L,
                       const simd_kernels::FwdBwdScratch& ws,
                       float* mocc) {
  return simd_kernels::fwd_bwd_kernel<F32x4>(prof, st, seq, L, ws, mocc);
}

float forward_rows_portable(const hmm::SearchProfile& prof,
                            const std::uint8_t* seq, std::size_t L,
                            float* rows) {
  return simd_kernels::forward_rows_kernel<F32x4>(prof, seq, L, rows);
}

float trace_rows_portable(const hmm::SearchProfile& prof,
                          const std::uint8_t* seq, std::size_t L,
                          const simd_kernels::TraceRows& ws) {
  return simd_kernels::trace_rows_kernel<F32x4>(prof, seq, L, ws);
}

void msv_group_portable(const simd_kernels::MsvGroupView& g,
                        const simd_kernels::MsvGroupState& st,
                        const std::uint8_t* seq, std::size_t L,
                        std::uint8_t* row) {
  simd_kernels::msv_group_kernel<U8x16>(g, st, seq, L, row);
}

void msv_group_portable_packed(const simd_kernels::MsvGroupView& g,
                               const simd_kernels::MsvGroupState& st,
                               bio::PackedResidues seq, std::size_t L,
                               std::uint8_t* row) {
  simd_kernels::msv_group_kernel<U8x16>(g, st, seq, L, row);
}

void ssv_group_portable(const simd_kernels::MsvGroupView& g,
                        const simd_kernels::MsvGroupState& st,
                        const std::uint8_t* seq, std::size_t L,
                        std::uint8_t* row) {
  simd_kernels::ssv_group_kernel<U8x16>(g, st, seq, L, row);
}

void ssv_group_portable_packed(const simd_kernels::MsvGroupView& g,
                               const simd_kernels::MsvGroupState& st,
                               bio::PackedResidues seq, std::size_t L,
                               std::uint8_t* row) {
  simd_kernels::ssv_group_kernel<U8x16>(g, st, seq, L, row);
}

constexpr TierKernels kTable[] = {
    {SimdTier::kPortable, 16, 8, 4,
     &msv_portable, &msv_portable_packed, &ssv_portable,
     &ssv_portable_packed, &vit_portable, &fwd_portable,
     &fwd_bwd_portable, &msv_group_portable, &msv_group_portable_packed,
     &ssv_group_portable, &ssv_group_portable_packed,
     &forward_rows_portable, &trace_rows_portable},
    {SimdTier::kSse2, 16, 8, 4,
     [](const profile::MsvProfile& p, const std::uint8_t* r, int q,
        const std::uint8_t* s, std::size_t l, std::uint8_t* w) {
       return msv_sse2(p, r, q, s, l, w);
     },
     [](const profile::MsvProfile& p, const std::uint8_t* r, int q,
        bio::PackedResidues s, std::size_t l, std::uint8_t* w) {
       return msv_sse2(p, r, q, s, l, w);
     },
     [](const profile::MsvProfile& p, const std::uint8_t* r, int q,
        const std::uint8_t* s, std::size_t l, std::uint8_t* w) {
       return ssv_sse2(p, r, q, s, l, w);
     },
     [](const profile::MsvProfile& p, const std::uint8_t* r, int q,
        bio::PackedResidues s, std::size_t l, std::uint8_t* w) {
       return ssv_sse2(p, r, q, s, l, w);
     },
     &vit_sse2, &fwd_sse2, &fwd_bwd_sse2,
     [](const simd_kernels::MsvGroupView& g,
        const simd_kernels::MsvGroupState& st, const std::uint8_t* s,
        std::size_t l, std::uint8_t* w) { msv_group_sse2(g, st, s, l, w); },
     [](const simd_kernels::MsvGroupView& g,
        const simd_kernels::MsvGroupState& st, bio::PackedResidues s,
        std::size_t l, std::uint8_t* w) { msv_group_sse2(g, st, s, l, w); },
     [](const simd_kernels::MsvGroupView& g,
        const simd_kernels::MsvGroupState& st, const std::uint8_t* s,
        std::size_t l, std::uint8_t* w) { ssv_group_sse2(g, st, s, l, w); },
     [](const simd_kernels::MsvGroupView& g,
        const simd_kernels::MsvGroupState& st, bio::PackedResidues s,
        std::size_t l, std::uint8_t* w) { ssv_group_sse2(g, st, s, l, w); },
     &forward_rows_sse2, &trace_rows_sse2},
    {SimdTier::kAvx2, 32, 16, 8,
     [](const profile::MsvProfile& p, const std::uint8_t* r, int q,
        const std::uint8_t* s, std::size_t l, std::uint8_t* w) {
       return msv_avx2(p, r, q, s, l, w);
     },
     [](const profile::MsvProfile& p, const std::uint8_t* r, int q,
        bio::PackedResidues s, std::size_t l, std::uint8_t* w) {
       return msv_avx2(p, r, q, s, l, w);
     },
     [](const profile::MsvProfile& p, const std::uint8_t* r, int q,
        const std::uint8_t* s, std::size_t l, std::uint8_t* w) {
       return ssv_avx2(p, r, q, s, l, w);
     },
     [](const profile::MsvProfile& p, const std::uint8_t* r, int q,
        bio::PackedResidues s, std::size_t l, std::uint8_t* w) {
       return ssv_avx2(p, r, q, s, l, w);
     },
     &vit_avx2, &fwd_avx2, &fwd_bwd_avx2,
     [](const simd_kernels::MsvGroupView& g,
        const simd_kernels::MsvGroupState& st, const std::uint8_t* s,
        std::size_t l, std::uint8_t* w) { msv_group_avx2(g, st, s, l, w); },
     [](const simd_kernels::MsvGroupView& g,
        const simd_kernels::MsvGroupState& st, bio::PackedResidues s,
        std::size_t l, std::uint8_t* w) { msv_group_avx2(g, st, s, l, w); },
     [](const simd_kernels::MsvGroupView& g,
        const simd_kernels::MsvGroupState& st, const std::uint8_t* s,
        std::size_t l, std::uint8_t* w) { ssv_group_avx2(g, st, s, l, w); },
     [](const simd_kernels::MsvGroupView& g,
        const simd_kernels::MsvGroupState& st, bio::PackedResidues s,
        std::size_t l, std::uint8_t* w) { ssv_group_avx2(g, st, s, l, w); },
     &forward_rows_avx2, &trace_rows_avx2},
    {SimdTier::kAvx512, 64, 32, 16,
     [](const profile::MsvProfile& p, const std::uint8_t* r, int q,
        const std::uint8_t* s, std::size_t l, std::uint8_t* w) {
       return msv_avx512(p, r, q, s, l, w);
     },
     [](const profile::MsvProfile& p, const std::uint8_t* r, int q,
        bio::PackedResidues s, std::size_t l, std::uint8_t* w) {
       return msv_avx512(p, r, q, s, l, w);
     },
     [](const profile::MsvProfile& p, const std::uint8_t* r, int q,
        const std::uint8_t* s, std::size_t l, std::uint8_t* w) {
       return ssv_avx512(p, r, q, s, l, w);
     },
     [](const profile::MsvProfile& p, const std::uint8_t* r, int q,
        bio::PackedResidues s, std::size_t l, std::uint8_t* w) {
       return ssv_avx512(p, r, q, s, l, w);
     },
     &vit_avx512, &fwd_avx512, &fwd_bwd_avx512,
     [](const simd_kernels::MsvGroupView& g,
        const simd_kernels::MsvGroupState& st, const std::uint8_t* s,
        std::size_t l, std::uint8_t* w) {
       msv_group_avx512(g, st, s, l, w);
     },
     [](const simd_kernels::MsvGroupView& g,
        const simd_kernels::MsvGroupState& st, bio::PackedResidues s,
        std::size_t l, std::uint8_t* w) {
       msv_group_avx512(g, st, s, l, w);
     },
     [](const simd_kernels::MsvGroupView& g,
        const simd_kernels::MsvGroupState& st, const std::uint8_t* s,
        std::size_t l, std::uint8_t* w) {
       ssv_group_avx512(g, st, s, l, w);
     },
     [](const simd_kernels::MsvGroupView& g,
        const simd_kernels::MsvGroupState& st, bio::PackedResidues s,
        std::size_t l, std::uint8_t* w) {
       ssv_group_avx512(g, st, s, l, w);
     },
     &forward_rows_avx512, &trace_rows_avx512},
};

}  // namespace

const TierKernels& tier_kernels(SimdTier tier) {
  const auto idx = static_cast<std::size_t>(tier);
  FH_REQUIRE(idx < std::size(kTable), "unknown SIMD tier");
  return kTable[idx];
}

}  // namespace finehmm::cpu::backend
