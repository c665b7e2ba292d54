// The per-tier kernel table.
//
// Every kernel is written once, as a template over lane classes
// (kernels.hpp, row_kernels.hpp); a tier is only a choice of lane classes.
// make_tier_kernels<U8, I16, F32> fills one TierKernels row with the
// kernels instantiated for those classes.  Each ISA translation unit
// (backend_sse2/avx2/avx512.cpp) instantiates it with its native classes
// (vec_*.hpp), so every kernel body is compiled with that TU's -m flags,
// and exports only that row plus its have_*() cpuid probe;
// dispatch.cpp instantiates the portable row from cpu/simd_vec.hpp's
// <16, 8, 4> lane classes.  This header itself is plain C++ and safe to
// include anywhere.
//
// Every row has the same signatures (HMMER4-style): the byte stage
// (msv_group/ssv_group) takes a cpu::FusedMsvGroup view built for the
// row's byte lane count — a single model is a one-member group — vit a
// cpu::VitStripes view, fwd/fwd_bwd a cpu::FwdStripes view;
// forward_rows/trace_rows are the exact row kernels of the rescoring
// tail and read the SearchProfile's node-major rows directly.
// All take caller-owned DP scratch and allocate nothing.
//
// Adding a kernel: declare its pointer in TierKernels and add one line to
// make_tier_kernels.
#pragma once

#include <cstddef>
#include <cstdint>

#include "bio/packed_seq.hpp"
#include "cpu/filter_result.hpp"
#include "cpu/simd_backend/kernels.hpp"
#include "cpu/simd_backend/row_kernels.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "profile/fwd_profile.hpp"
#include "profile/vit_profile.hpp"

namespace finehmm::cpu::backend {

/// One tier's kernels plus its lane geometry.  Function pointers, so no
/// default arguments: vit's final parameter is the optional lazyf_passes
/// out-param (nullable), fwd_bwd's mocc must hold L floats.  The
/// *_packed entries score a zero-copy bio::PackedResidues view (the
/// database scan path) with the same kernel as the byte-code entry.
struct TierKernels {
  SimdTier tier = SimdTier::kPortable;
  int u8_lanes = 0;   // MSV/SSV byte lanes
  int i16_lanes = 0;  // Viterbi word lanes
  int f32_lanes = 0;  // Forward/Backward float lanes

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

  // The byte stage: one call scores every member of a packed group
  // (results come back through MsvGroupState's xj/overflowed).
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

/// The row of one tier: every entry is the shared template kernel
/// instantiated with that tier's byte / word / float lane classes.
template <class U8, class I16, class F32>
constexpr TierKernels make_tier_kernels(SimdTier tier) {
  using Bytes = const std::uint8_t*;
  using Packed = bio::PackedResidues;
  namespace sk = simd_kernels;
  TierKernels k;
  k.tier = tier;
  k.u8_lanes = U8::kLanes;
  k.i16_lanes = I16::kLanes;
  k.f32_lanes = F32::kLanes;
  constexpr auto kSsv = sk::ByteStage::kSsv;
  k.vit = &sk::vit_kernel<I16, Bytes>;
  k.fwd = &sk::fwd_kernel<F32, Bytes>;
  k.fwd_bwd = &sk::fwd_bwd_kernel<F32, Bytes>;
  k.msv_group = &sk::msv_group_kernel<U8, Bytes>;
  k.msv_group_packed = &sk::msv_group_kernel<U8, Packed>;
  k.ssv_group = &sk::msv_group_kernel<U8, Bytes, kSsv>;
  k.ssv_group_packed = &sk::msv_group_kernel<U8, Packed, kSsv>;
  k.forward_rows = &sk::forward_rows_kernel<F32>;
  k.trace_rows = &sk::trace_rows_kernel<F32>;
  return k;
}

// Exported by each ISA TU.  The *_kernels() row is nullptr when the
// compiler did not build that backend; have_*() is additionally false
// when this CPU cannot run it.  Only simd_tier.cpp consults the probes —
// everything else asks simd_tier_supported() / tier_kernels().
bool have_sse2();
bool have_avx2();
/// Requires the F and BW subsets.
bool have_avx512();
const TierKernels* sse2_kernels();
const TierKernels* avx2_kernels();
const TierKernels* avx512_kernels();

/// The dispatch row for one tier.  Callers must only ask for tiers that
/// are supported (simd_tier_supported); asking for one that was not
/// compiled in throws.
const TierKernels& tier_kernels(SimdTier tier);

}  // namespace finehmm::cpu::backend
