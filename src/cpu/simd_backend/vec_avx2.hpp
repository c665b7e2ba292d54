// Native AVX2 lane classes satisfying the simd_kernels vector contract.
//
// 32 byte lanes for MSV/SSV, 16 word lanes for the ViterbiFilter and 8
// float lanes for Forward/Backward — the same re-striping HMMER shipped
// when it grew AVX2 support.  The only
// genuinely AVX2-specific wrinkle is shift_lanes_up: VPALIGNR operates
// within each 128-bit half, so the byte that crosses the half boundary
// has to be carried over with a VPERM2I128 first (the standard idiom).
// Only include from TUs compiled with -mavx2 (see backend_avx2.cpp).
#pragma once

#include <immintrin.h>

#include <cstdint>

#include "profile/vit_profile.hpp"

namespace finehmm::cpu::backend {

/// 32 unsigned bytes in one YMM register (MSV lane type, AVX2 tier).
struct AvxU8x32 {
  static constexpr int kLanes = 32;
  __m256i v;

  static AvxU8x32 splat(std::uint8_t x) {
    return {_mm256_set1_epi8(static_cast<char>(x))};
  }
  static AvxU8x32 load(const std::uint8_t* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  void store(std::uint8_t* p) const {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }

  friend AvxU8x32 max_u8(AvxU8x32 a, AvxU8x32 b) {
    return {_mm256_max_epu8(a.v, b.v)};
  }
  friend AvxU8x32 adds_u8(AvxU8x32 a, AvxU8x32 b) {
    return {_mm256_adds_epu8(a.v, b.v)};
  }
  friend AvxU8x32 subs_u8(AvxU8x32 a, AvxU8x32 b) {
    return {_mm256_subs_epu8(a.v, b.v)};
  }
  /// Lane j <- lane j-1 across the full 32 lanes, lane 0 <- 0: alignr
  /// against a copy whose high half holds our low half (and whose low
  /// half is zero), so byte 15 flows into byte 16.
  friend AvxU8x32 shift_lanes_up(AvxU8x32 a) {
    __m256i carry = _mm256_permute2x128_si256(a.v, a.v, 0x08);
    return {_mm256_alignr_epi8(a.v, carry, 15)};
  }
  friend std::uint8_t hmax_u8(AvxU8x32 a) {
    __m128i m = _mm_max_epu8(_mm256_castsi256_si128(a.v),
                             _mm256_extracti128_si256(a.v, 1));
    m = _mm_max_epu8(m, _mm_srli_si128(m, 8));
    m = _mm_max_epu8(m, _mm_srli_si128(m, 4));
    m = _mm_max_epu8(m, _mm_srli_si128(m, 2));
    m = _mm_max_epu8(m, _mm_srli_si128(m, 1));
    return static_cast<std::uint8_t>(_mm_cvtsi128_si32(m) & 0xff);
  }
  /// a > b (unsigned) exactly where the saturating difference is nonzero.
  friend bool any_gt_u8(AvxU8x32 a, AvxU8x32 b) {
    const __m256i d = _mm256_subs_epu8(a.v, b.v);
    return _mm256_testz_si256(d, d) == 0;
  }
};

/// 16 signed words in one YMM register (ViterbiFilter lane type, AVX2).
struct AvxI16x16 {
  static constexpr int kLanes = 16;
  __m256i v;

  static AvxI16x16 splat(std::int16_t x) { return {_mm256_set1_epi16(x)}; }
  static AvxI16x16 neg_inf() { return splat(profile::kWordNegInf); }
  static AvxI16x16 load(const std::int16_t* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  void store(std::int16_t* p) const {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }

  friend AvxI16x16 max_i16(AvxI16x16 a, AvxI16x16 b) {
    return {_mm256_max_epi16(a.v, b.v)};
  }
  /// Sticky -inf saturating add (lane-wise profile::sat_add_word).
  friend AvxI16x16 adds_w(AvxI16x16 a, AvxI16x16 b) {
    const __m256i ninf = _mm256_set1_epi16(profile::kWordNegInf);
    __m256i sum = _mm256_adds_epi16(a.v, b.v);
    sum = _mm256_max_epi16(sum, _mm256_set1_epi16(-32767));
    __m256i is_ninf = _mm256_or_si256(_mm256_cmpeq_epi16(a.v, ninf),
                                      _mm256_cmpeq_epi16(b.v, ninf));
    return {_mm256_blendv_epi8(sum, ninf, is_ninf)};
  }
  /// Word lane j <- lane j-1 across all 16 lanes, lane 0 <- fill: the
  /// carry copy's low half must expose `fill` as its top word so the
  /// alignr pulls it into lane 0.
  friend AvxI16x16 shift_lanes_up(AvxI16x16 a,
                                  std::int16_t fill = profile::kWordNegInf) {
    __m256i carry = _mm256_permute2x128_si256(a.v, a.v, 0x08);
    carry = _mm256_insert_epi16(carry, fill, 7);
    return {_mm256_alignr_epi8(a.v, carry, 14)};
  }
  friend std::int16_t hmax_i16(AvxI16x16 a) {
    __m128i m = _mm_max_epi16(_mm256_castsi256_si128(a.v),
                              _mm256_extracti128_si256(a.v, 1));
    m = _mm_max_epi16(m, _mm_srli_si128(m, 8));
    m = _mm_max_epi16(m, _mm_srli_si128(m, 4));
    m = _mm_max_epi16(m, _mm_srli_si128(m, 2));
    return static_cast<std::int16_t>(_mm_cvtsi128_si32(m) & 0xffff);
  }
  friend bool any_gt_i16(AvxI16x16 a, AvxI16x16 b) {
    return _mm256_movemask_epi8(_mm256_cmpgt_epi16(a.v, b.v)) != 0;
  }
};

/// 8 floats in one YMM register (Forward/Backward lane type, AVX2 tier).
struct AvxF32x8 {
  static constexpr int kLanes = 8;
  __m256 v;
  /// All-ones lanes where a comparison held.
  using Mask = __m256;

  static AvxF32x8 splat(float x) { return {_mm256_set1_ps(x)}; }
  static AvxF32x8 load(const float* p) { return {_mm256_loadu_ps(p)}; }
  void store(float* p) const { _mm256_storeu_ps(p, v); }

  friend AvxF32x8 add_f(AvxF32x8 a, AvxF32x8 b) {
    return {_mm256_add_ps(a.v, b.v)};
  }
  friend AvxF32x8 mul_f(AvxF32x8 a, AvxF32x8 b) {
    return {_mm256_mul_ps(a.v, b.v)};
  }
  /// Lane j <- lane j-1 across all 8 lanes, lane 0 <- 0.0f: same
  /// VPERM2I128 carry idiom as the byte shift, four bytes at a time.
  friend AvxF32x8 shift_lanes_up(AvxF32x8 a) {
    const __m256i ai = _mm256_castps_si256(a.v);
    __m256i carry = _mm256_permute2x128_si256(ai, ai, 0x08);
    return {_mm256_castsi256_ps(_mm256_alignr_epi8(ai, carry, 12))};
  }
  /// Lane j <- lane j+1, lane 7 <- 0.0f: the carry copy holds [hi, 0] so
  /// lane 3 pulls from lane 4 and the top lane drains to zero.
  friend AvxF32x8 shift_lanes_down(AvxF32x8 a) {
    const __m256i ai = _mm256_castps_si256(a.v);
    __m256i carry = _mm256_permute2x128_si256(ai, ai, 0x81);
    return {_mm256_castsi256_ps(_mm256_alignr_epi8(carry, ai, 4))};
  }
  /// In-order lane sum starting from 0.0f: bit-identical to the portable
  /// 8-lane F32xN::hsum_f (portable and native runs of the same width
  /// must agree exactly; see docs/simd_dispatch.md).
  friend float hsum_f(AvxF32x8 a) {
    alignas(32) float t[8];
    _mm256_store_ps(t, a.v);
    float s = 0.0f;
    for (int i = 0; i < 8; ++i) s += t[i];
    return s;
  }

  friend AvxF32x8 sub_f(AvxF32x8 a, AvxF32x8 b) {
    return {_mm256_sub_ps(a.v, b.v)};
  }
  friend AvxF32x8 abs_f(AvxF32x8 a) {
    return {_mm256_andnot_ps(_mm256_set1_ps(-0.0f), a.v)};
  }
  // Ordered, quiet predicates: false on NaN, like the scalar operators.
  friend Mask gt_f(AvxF32x8 a, AvxF32x8 b) {
    return _mm256_cmp_ps(a.v, b.v, _CMP_GT_OQ);
  }
  friend Mask ge_f(AvxF32x8 a, AvxF32x8 b) {
    return _mm256_cmp_ps(a.v, b.v, _CMP_GE_OQ);
  }
  friend Mask lt_f(AvxF32x8 a, AvxF32x8 b) {
    return _mm256_cmp_ps(a.v, b.v, _CMP_LT_OQ);
  }
  friend AvxF32x8 select_f(Mask m, AvxF32x8 a, AvxF32x8 b) {
    return {_mm256_blendv_ps(b.v, a.v, m)};
  }
  /// Masked VGATHERDPS: lanes outside m keep 0 and are not loaded.
  friend AvxF32x8 gather_f(const float* table, AvxF32x8 x, Mask m) {
    return {_mm256_mask_i32gather_ps(_mm256_setzero_ps(), table,
                                     _mm256_cvttps_epi32(x.v), m, 4)};
  }
};

}  // namespace finehmm::cpu::backend
