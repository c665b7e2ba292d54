// Native filter backend entry points and the per-tier dispatch table.
//
// Each function is one striped filter kernel instantiated with a native
// vector class (vec_sse2.hpp / vec_avx2.hpp / vec_avx512.hpp) inside an
// ISA-specific translation unit; this header itself is plain C++ and safe
// to include anywhere.  All entry points take caller-owned DP scratch and
// perform no heap allocation.  Callers must not invoke a tier whose
// have_*() probe returns false — the dispatcher (cpu::resolve_simd_tier
// and the filter classes) guarantees that; the stubs compiled when a tier
// is absent throw.
//
// Every tier exposes the same signatures (HMMER4-style):
//   * msv/ssv take a re-striped emission table for the tier's byte lane
//     count (cpu::WideMsvStripes<N> layout: residue x at rows + x*Q*N;
//     for SSE2 the MsvProfile's own 16-lane arrays are already that
//     layout and are passed zero-copy).
//   * vit takes a VitStripesView built for the tier's word lane count
//     (cpu::WideVitStripes<N>; SSE2 uses vit_native_view below).
//   * fwd / fwd_bwd take a FwdStripesView built for the tier's float lane
//     count (cpu::WideFwdStripes).
//   * forward_rows / trace_rows are the exact row kernels of the
//     rescoring tail (row_kernels.hpp): they read the SearchProfile's
//     node-major rows directly and reproduce the scalar loops bit for bit.
//
// tier_kernels() maps a SimdTier to its function-pointer row, so the
// filter classes resolve MSV/SSV/Viterbi/Forward/Backward through one
// table instead of per-filter switch ladders.
#pragma once

#include <cstddef>
#include <cstdint>

#include "bio/packed_seq.hpp"
#include "cpu/filter_result.hpp"
#include "cpu/simd_backend/kernels.hpp"
#include "cpu/simd_backend/row_kernels.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "profile/fwd_profile.hpp"
#include "profile/msv_profile.hpp"
#include "profile/vit_profile.hpp"

namespace finehmm::cpu::backend {

/// True when the SSE2 backend is compiled in and this CPU can run it.
bool have_sse2();
/// True when the AVX2 backend is compiled in and this CPU can run it.
bool have_avx2();
/// True when the AVX-512 backend is compiled in and this CPU can run it
/// (requires the F and BW subsets).
bool have_avx512();

/// The VitProfile's native 8-word striping as a VitStripesView (zero-copy;
/// this is what the SSE2 tier consumes).
inline simd_kernels::VitStripesView vit_native_view(
    const profile::VitProfile& prof) {
  simd_kernels::VitStripesView st;
  st.msc = prof.msc_striped(0);
  st.tmm = prof.tmm_striped();
  st.tim = prof.tim_striped();
  st.tdm = prof.tdm_striped();
  st.tmi = prof.tmi_striped();
  st.tii = prof.tii_striped();
  st.tmd = prof.tmd_striped();
  st.tdd = prof.tdd_striped();
  st.Q = prof.striped_segments();
  return st;
}

/// The FwdProfile's native 4-float striping as a FwdStripesView
/// (zero-copy; what the portable and SSE2 tiers consume for plain
/// scoring).  The out-indexed stripes are left null — Backward needs a
/// cpu::WideFwdStripes, which builds them for any lane count.
inline simd_kernels::FwdStripesView fwd_native_view(
    const profile::FwdProfile& prof) {
  simd_kernels::FwdStripesView st;
  st.odds = prof.odds_striped(0);
  st.tmm = prof.tmm_striped();
  st.tim = prof.tim_striped();
  st.tdm = prof.tdm_striped();
  st.tmi = prof.tmi_striped();
  st.tii = prof.tii_striped();
  st.tmd = prof.tmd_in_striped();
  st.tdd = prof.tdd_in_striped();
  st.entry = prof.entry();
  st.Q = prof.striped_segments();
  return st;
}

// ---- SSE2 tier (128-bit: 16 bytes / 8 words / 4 floats) ----
FilterResult msv_sse2(const profile::MsvProfile& prof,
                      const std::uint8_t* rows, int Q,
                      const std::uint8_t* seq, std::size_t L,
                      std::uint8_t* row);
FilterResult ssv_sse2(const profile::MsvProfile& prof,
                      const std::uint8_t* rows, int Q,
                      const std::uint8_t* seq, std::size_t L,
                      std::uint8_t* row);
FilterResult vit_sse2(const profile::VitProfile& prof,
                      const simd_kernels::VitStripesView& st,
                      const std::uint8_t* seq, std::size_t L,
                      std::int16_t* mmx, std::int16_t* imx,
                      std::int16_t* dmx, int* lazyf_passes = nullptr);
float fwd_sse2(const profile::FwdProfile& prof,
               const simd_kernels::FwdStripesView& st,
               const std::uint8_t* seq, std::size_t L, float* mmx,
               float* imx, float* dmx);
float fwd_bwd_sse2(const profile::FwdProfile& prof,
                   const simd_kernels::FwdStripesView& st,
                   const std::uint8_t* seq, std::size_t L,
                   const simd_kernels::FwdBwdScratch& ws, float* mocc);
float forward_rows_sse2(const hmm::SearchProfile& prof,
                        const std::uint8_t* seq, std::size_t L, float* rows);
float trace_rows_sse2(const hmm::SearchProfile& prof,
                      const std::uint8_t* seq, std::size_t L,
                      const simd_kernels::TraceRows& ws);

// Zero-copy overloads for the database scan path: the sequence is a packed
// 5-bit residue view (typically into an mmap'd .fsqdb), consumed in place.
// Bit-identical to the byte-code overloads by construction — both
// instantiate the same kernel, only the Seq accessor differs.
FilterResult msv_sse2(const profile::MsvProfile& prof,
                      const std::uint8_t* rows, int Q,
                      bio::PackedResidues seq, std::size_t L,
                      std::uint8_t* row);
FilterResult ssv_sse2(const profile::MsvProfile& prof,
                      const std::uint8_t* rows, int Q,
                      bio::PackedResidues seq, std::size_t L,
                      std::uint8_t* row);

// Fused multi-model group sweeps (cpu::FusedMsvGroup packing; see
// simd_kernels::msv_group_kernel).
void msv_group_sse2(const simd_kernels::MsvGroupView& g,
                    const simd_kernels::MsvGroupState& st,
                    const std::uint8_t* seq, std::size_t L,
                    std::uint8_t* row);
void ssv_group_sse2(const simd_kernels::MsvGroupView& g,
                    const simd_kernels::MsvGroupState& st,
                    const std::uint8_t* seq, std::size_t L,
                    std::uint8_t* row);
void msv_group_sse2(const simd_kernels::MsvGroupView& g,
                    const simd_kernels::MsvGroupState& st,
                    bio::PackedResidues seq, std::size_t L,
                    std::uint8_t* row);
void ssv_group_sse2(const simd_kernels::MsvGroupView& g,
                    const simd_kernels::MsvGroupState& st,
                    bio::PackedResidues seq, std::size_t L,
                    std::uint8_t* row);

// ---- AVX2 tier (256-bit: 32 bytes / 16 words / 8 floats) ----
FilterResult msv_avx2(const profile::MsvProfile& prof,
                      const std::uint8_t* rows, int Q,
                      const std::uint8_t* seq, std::size_t L,
                      std::uint8_t* row);
FilterResult ssv_avx2(const profile::MsvProfile& prof,
                      const std::uint8_t* rows, int Q,
                      const std::uint8_t* seq, std::size_t L,
                      std::uint8_t* row);
FilterResult vit_avx2(const profile::VitProfile& prof,
                      const simd_kernels::VitStripesView& st,
                      const std::uint8_t* seq, std::size_t L,
                      std::int16_t* mmx, std::int16_t* imx,
                      std::int16_t* dmx, int* lazyf_passes = nullptr);
float fwd_avx2(const profile::FwdProfile& prof,
               const simd_kernels::FwdStripesView& st,
               const std::uint8_t* seq, std::size_t L, float* mmx,
               float* imx, float* dmx);
float fwd_bwd_avx2(const profile::FwdProfile& prof,
                   const simd_kernels::FwdStripesView& st,
                   const std::uint8_t* seq, std::size_t L,
                   const simd_kernels::FwdBwdScratch& ws, float* mocc);
float forward_rows_avx2(const hmm::SearchProfile& prof,
                        const std::uint8_t* seq, std::size_t L, float* rows);
float trace_rows_avx2(const hmm::SearchProfile& prof,
                      const std::uint8_t* seq, std::size_t L,
                      const simd_kernels::TraceRows& ws);

// Packed-residue (zero-copy) overloads; see the SSE2 notes above.
FilterResult msv_avx2(const profile::MsvProfile& prof,
                      const std::uint8_t* rows, int Q,
                      bio::PackedResidues seq, std::size_t L,
                      std::uint8_t* row);
FilterResult ssv_avx2(const profile::MsvProfile& prof,
                      const std::uint8_t* rows, int Q,
                      bio::PackedResidues seq, std::size_t L,
                      std::uint8_t* row);

void msv_group_avx2(const simd_kernels::MsvGroupView& g,
                    const simd_kernels::MsvGroupState& st,
                    const std::uint8_t* seq, std::size_t L,
                    std::uint8_t* row);
void ssv_group_avx2(const simd_kernels::MsvGroupView& g,
                    const simd_kernels::MsvGroupState& st,
                    const std::uint8_t* seq, std::size_t L,
                    std::uint8_t* row);
void msv_group_avx2(const simd_kernels::MsvGroupView& g,
                    const simd_kernels::MsvGroupState& st,
                    bio::PackedResidues seq, std::size_t L,
                    std::uint8_t* row);
void ssv_group_avx2(const simd_kernels::MsvGroupView& g,
                    const simd_kernels::MsvGroupState& st,
                    bio::PackedResidues seq, std::size_t L,
                    std::uint8_t* row);

// ---- AVX-512 tier (512-bit: 64 bytes / 32 words / 16 floats) ----
FilterResult msv_avx512(const profile::MsvProfile& prof,
                        const std::uint8_t* rows, int Q,
                        const std::uint8_t* seq, std::size_t L,
                        std::uint8_t* row);
FilterResult ssv_avx512(const profile::MsvProfile& prof,
                        const std::uint8_t* rows, int Q,
                        const std::uint8_t* seq, std::size_t L,
                        std::uint8_t* row);
FilterResult vit_avx512(const profile::VitProfile& prof,
                        const simd_kernels::VitStripesView& st,
                        const std::uint8_t* seq, std::size_t L,
                        std::int16_t* mmx, std::int16_t* imx,
                        std::int16_t* dmx, int* lazyf_passes = nullptr);
float fwd_avx512(const profile::FwdProfile& prof,
                 const simd_kernels::FwdStripesView& st,
                 const std::uint8_t* seq, std::size_t L, float* mmx,
                 float* imx, float* dmx);
float fwd_bwd_avx512(const profile::FwdProfile& prof,
                     const simd_kernels::FwdStripesView& st,
                     const std::uint8_t* seq, std::size_t L,
                     const simd_kernels::FwdBwdScratch& ws, float* mocc);
float forward_rows_avx512(const hmm::SearchProfile& prof,
                          const std::uint8_t* seq, std::size_t L, float* rows);
float trace_rows_avx512(const hmm::SearchProfile& prof,
                        const std::uint8_t* seq, std::size_t L,
                        const simd_kernels::TraceRows& ws);

FilterResult msv_avx512(const profile::MsvProfile& prof,
                        const std::uint8_t* rows, int Q,
                        bio::PackedResidues seq, std::size_t L,
                        std::uint8_t* row);
FilterResult ssv_avx512(const profile::MsvProfile& prof,
                        const std::uint8_t* rows, int Q,
                        bio::PackedResidues seq, std::size_t L,
                        std::uint8_t* row);

void msv_group_avx512(const simd_kernels::MsvGroupView& g,
                      const simd_kernels::MsvGroupState& st,
                      const std::uint8_t* seq, std::size_t L,
                      std::uint8_t* row);
void ssv_group_avx512(const simd_kernels::MsvGroupView& g,
                      const simd_kernels::MsvGroupState& st,
                      const std::uint8_t* seq, std::size_t L,
                      std::uint8_t* row);
void msv_group_avx512(const simd_kernels::MsvGroupView& g,
                      const simd_kernels::MsvGroupState& st,
                      bio::PackedResidues seq, std::size_t L,
                      std::uint8_t* row);
void ssv_group_avx512(const simd_kernels::MsvGroupView& g,
                      const simd_kernels::MsvGroupState& st,
                      bio::PackedResidues seq, std::size_t L,
                      std::uint8_t* row);

// ---- Per-tier dispatch table ----

/// One tier's kernels plus its lane geometry.  The portable row wraps the
/// template kernels with the portable lane classes at 128-bit widths, so
/// every row satisfies the same signatures and the filter classes can
/// dispatch data-driven.  Function pointers, so no default arguments:
/// vit's final parameter is the optional lazyf_passes out-param
/// (nullable), fwd_bwd's mocc must hold L floats.
struct TierKernels {
  SimdTier tier = SimdTier::kPortable;
  int u8_lanes = 0;   // MSV/SSV byte lanes
  int i16_lanes = 0;  // Viterbi word lanes
  int f32_lanes = 0;  // Forward/Backward float lanes

  FilterResult (*msv)(const profile::MsvProfile&, const std::uint8_t*, int,
                      const std::uint8_t*, std::size_t,
                      std::uint8_t*) = nullptr;
  FilterResult (*msv_packed)(const profile::MsvProfile&,
                             const std::uint8_t*, int, bio::PackedResidues,
                             std::size_t, std::uint8_t*) = nullptr;
  FilterResult (*ssv)(const profile::MsvProfile&, const std::uint8_t*, int,
                      const std::uint8_t*, std::size_t,
                      std::uint8_t*) = nullptr;
  FilterResult (*ssv_packed)(const profile::MsvProfile&,
                             const std::uint8_t*, int, bio::PackedResidues,
                             std::size_t, std::uint8_t*) = nullptr;
  FilterResult (*vit)(const profile::VitProfile&,
                      const simd_kernels::VitStripesView&,
                      const std::uint8_t*, std::size_t, std::int16_t*,
                      std::int16_t*, std::int16_t*, int*) = nullptr;
  float (*fwd)(const profile::FwdProfile&,
               const simd_kernels::FwdStripesView&, const std::uint8_t*,
               std::size_t, float*, float*, float*) = nullptr;
  float (*fwd_bwd)(const profile::FwdProfile&,
                   const simd_kernels::FwdStripesView&,
                   const std::uint8_t*, std::size_t,
                   const simd_kernels::FwdBwdScratch&, float*) = nullptr;

  // Fused multi-model sweeps: one call scores every member of a packed
  // group (results come back through MsvGroupState's xj/overflowed).
  void (*msv_group)(const simd_kernels::MsvGroupView&,
                    const simd_kernels::MsvGroupState&, const std::uint8_t*,
                    std::size_t, std::uint8_t*) = nullptr;
  void (*msv_group_packed)(const simd_kernels::MsvGroupView&,
                           const simd_kernels::MsvGroupState&,
                           bio::PackedResidues, std::size_t,
                           std::uint8_t*) = nullptr;
  void (*ssv_group)(const simd_kernels::MsvGroupView&,
                    const simd_kernels::MsvGroupState&, const std::uint8_t*,
                    std::size_t, std::uint8_t*) = nullptr;
  void (*ssv_group_packed)(const simd_kernels::MsvGroupView&,
                           const simd_kernels::MsvGroupState&,
                           bio::PackedResidues, std::size_t,
                           std::uint8_t*) = nullptr;

  // Exact row kernels of the rescoring tail: rows are 6 (forward) or 7
  // (trace) rows of prof.row_stride() floats.
  float (*forward_rows)(const hmm::SearchProfile&, const std::uint8_t*,
                        std::size_t, float*) = nullptr;
  float (*trace_rows)(const hmm::SearchProfile&, const std::uint8_t*,
                      std::size_t, const simd_kernels::TraceRows&) = nullptr;
};

/// The dispatch row for one tier.  The caller is responsible for only
/// asking for tiers that are supported (simd_tier_supported); the
/// returned row's entries for an unavailable tier are the throwing stubs.
const TierKernels& tier_kernels(SimdTier tier);

}  // namespace finehmm::cpu::backend
