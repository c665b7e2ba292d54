// Native SSE2 lane classes satisfying the simd_kernels vector contract.
//
// Drop-in intrinsic twins of cpu/simd_vec.hpp's U8xN<16> / I16xN<8> /
// F32xN<4>.  Only SSE2 instructions are used (baseline on every x86-64),
// so this header needs no special compile flags.  Two operations deserve care:
//   * adds_w must reproduce the library's *sticky -inf* saturating add
//     (profile::sat_add_word), which plain PADDSW does not: -32768 is a
//     dedicated -infinity and the finite range is clamped at -32767.
//   * hsum_f must accumulate lanes in index order starting from 0.0f so
//     float Forward scores are bit-identical to the portable class.
// This header must only be included from translation units that are
// guaranteed SSE2 (x86-64 TUs; see backend_sse2.cpp).
#pragma once

#include <emmintrin.h>

#include <cstdint>

#include "profile/vit_profile.hpp"

namespace finehmm::cpu::backend {

/// 16 unsigned bytes in one XMM register (MSV lane type).
struct SseU8x16 {
  static constexpr int kLanes = 16;
  __m128i v;

  static SseU8x16 splat(std::uint8_t x) {
    return {_mm_set1_epi8(static_cast<char>(x))};
  }
  static SseU8x16 load(const std::uint8_t* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  void store(std::uint8_t* p) const {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }

  friend SseU8x16 max_u8(SseU8x16 a, SseU8x16 b) {
    return {_mm_max_epu8(a.v, b.v)};
  }
  friend SseU8x16 adds_u8(SseU8x16 a, SseU8x16 b) {
    return {_mm_adds_epu8(a.v, b.v)};
  }
  friend SseU8x16 subs_u8(SseU8x16 a, SseU8x16 b) {
    return {_mm_subs_epu8(a.v, b.v)};
  }
  /// Lane j <- lane j-1, lane 0 <- 0.
  friend SseU8x16 shift_lanes_up(SseU8x16 a) {
    return {_mm_slli_si128(a.v, 1)};
  }
  friend std::uint8_t hmax_u8(SseU8x16 a) {
    __m128i m = _mm_max_epu8(a.v, _mm_srli_si128(a.v, 8));
    m = _mm_max_epu8(m, _mm_srli_si128(m, 4));
    m = _mm_max_epu8(m, _mm_srli_si128(m, 2));
    m = _mm_max_epu8(m, _mm_srli_si128(m, 1));
    return static_cast<std::uint8_t>(_mm_cvtsi128_si32(m) & 0xff);
  }
  /// SSE2 has no unsigned byte compare: a > b exactly where the
  /// saturating difference a - b is nonzero.
  friend bool any_gt_u8(SseU8x16 a, SseU8x16 b) {
    const __m128i zero = _mm_cmpeq_epi8(_mm_subs_epu8(a.v, b.v),
                                        _mm_setzero_si128());
    return _mm_movemask_epi8(zero) != 0xffff;
  }
};

/// 8 signed words in one XMM register (ViterbiFilter lane type).
struct SseI16x8 {
  static constexpr int kLanes = 8;
  __m128i v;

  static SseI16x8 splat(std::int16_t x) { return {_mm_set1_epi16(x)}; }
  static SseI16x8 neg_inf() { return splat(profile::kWordNegInf); }
  static SseI16x8 load(const std::int16_t* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  void store(std::int16_t* p) const {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }

  friend SseI16x8 max_i16(SseI16x8 a, SseI16x8 b) {
    return {_mm_max_epi16(a.v, b.v)};
  }
  /// Sticky -inf saturating add (lane-wise profile::sat_add_word).
  friend SseI16x8 adds_w(SseI16x8 a, SseI16x8 b) {
    const __m128i ninf = _mm_set1_epi16(profile::kWordNegInf);
    __m128i sum = _mm_adds_epi16(a.v, b.v);
    sum = _mm_max_epi16(sum, _mm_set1_epi16(-32767));
    __m128i is_ninf = _mm_or_si128(_mm_cmpeq_epi16(a.v, ninf),
                                   _mm_cmpeq_epi16(b.v, ninf));
    return {_mm_or_si128(_mm_and_si128(is_ninf, ninf),
                         _mm_andnot_si128(is_ninf, sum))};
  }
  /// Lane j <- lane j-1, lane 0 <- fill (-inf by default).
  friend SseI16x8 shift_lanes_up(SseI16x8 a,
                                 std::int16_t fill = profile::kWordNegInf) {
    return {_mm_insert_epi16(_mm_slli_si128(a.v, 2), fill, 0)};
  }
  friend std::int16_t hmax_i16(SseI16x8 a) {
    __m128i m = _mm_max_epi16(a.v, _mm_srli_si128(a.v, 8));
    m = _mm_max_epi16(m, _mm_srli_si128(m, 4));
    m = _mm_max_epi16(m, _mm_srli_si128(m, 2));
    return static_cast<std::int16_t>(_mm_cvtsi128_si32(m) & 0xffff);
  }
  friend bool any_gt_i16(SseI16x8 a, SseI16x8 b) {
    return _mm_movemask_epi8(_mm_cmpgt_epi16(a.v, b.v)) != 0;
  }
};

/// 4 floats in one XMM register (Forward lane type).
struct SseF32x4 {
  static constexpr int kLanes = 4;
  __m128 v;
  /// All-ones lanes where a comparison held.
  using Mask = __m128;

  static SseF32x4 splat(float x) { return {_mm_set1_ps(x)}; }
  static SseF32x4 load(const float* p) { return {_mm_loadu_ps(p)}; }
  void store(float* p) const { _mm_storeu_ps(p, v); }

  friend SseF32x4 add_f(SseF32x4 a, SseF32x4 b) {
    return {_mm_add_ps(a.v, b.v)};
  }
  friend SseF32x4 mul_f(SseF32x4 a, SseF32x4 b) {
    return {_mm_mul_ps(a.v, b.v)};
  }
  /// Lane j <- lane j-1, lane 0 <- 0.0f.
  friend SseF32x4 shift_lanes_up(SseF32x4 a) {
    return {_mm_castsi128_ps(_mm_slli_si128(_mm_castps_si128(a.v), 4))};
  }
  /// Lane j <- lane j+1, lane 3 <- 0.0f.
  friend SseF32x4 shift_lanes_down(SseF32x4 a) {
    return {_mm_castsi128_ps(_mm_srli_si128(_mm_castps_si128(a.v), 4))};
  }
  /// In-order lane sum starting from 0.0f: bit-identical to the portable
  /// F32xN<4>::hsum_f, which the Forward score contract depends on.
  friend float hsum_f(SseF32x4 a) {
    alignas(16) float t[4];
    _mm_store_ps(t, a.v);
    float s = 0.0f;
    for (int i = 0; i < 4; ++i) s += t[i];
    return s;
  }

  friend SseF32x4 sub_f(SseF32x4 a, SseF32x4 b) {
    return {_mm_sub_ps(a.v, b.v)};
  }
  friend SseF32x4 abs_f(SseF32x4 a) {
    return {_mm_andnot_ps(_mm_set1_ps(-0.0f), a.v)};
  }
  friend Mask gt_f(SseF32x4 a, SseF32x4 b) { return _mm_cmpgt_ps(a.v, b.v); }
  friend Mask ge_f(SseF32x4 a, SseF32x4 b) { return _mm_cmpge_ps(a.v, b.v); }
  friend Mask lt_f(SseF32x4 a, SseF32x4 b) { return _mm_cmplt_ps(a.v, b.v); }
  friend SseF32x4 select_f(Mask m, SseF32x4 a, SseF32x4 b) {
    return {_mm_or_ps(_mm_and_ps(m, a.v), _mm_andnot_ps(m, b.v))};
  }
  /// SSE2 has no gather: truncate in the register, load lane by lane.
  friend SseF32x4 gather_f(const float* table, SseF32x4 x, Mask m) {
    alignas(16) std::int32_t idx[4];
    alignas(16) float out[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(idx), _mm_cvttps_epi32(x.v));
    const int live = _mm_movemask_ps(m);
    for (int i = 0; i < 4; ++i)
      out[i] = (live >> i & 1) != 0 ? table[idx[i]] : 0.0f;
    return {_mm_load_ps(out)};
  }
};

}  // namespace finehmm::cpu::backend
