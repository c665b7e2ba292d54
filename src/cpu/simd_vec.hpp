// Portable fixed-width SIMD vector types for the striped CPU filters.
//
// HMMER 3.0's MSV filter runs on 16 unsigned bytes per SSE register and the
// ViterbiFilter on 8 signed words.  These classes reproduce those lane
// semantics with plain loops that GCC/Clang auto-vectorize to SSE/AVX on
// x86; they also serve as the specification the SIMT kernels are tested
// against.  Word adds use the library's sticky -inf saturating semantics
// (see profile/vit_profile.hpp) so every implementation agrees exactly.
#pragma once

#include <cmath>
#include <cstdint>

#include "profile/vit_profile.hpp"

namespace finehmm::cpu {

/// 16 unsigned bytes (MSV lane type).
struct U8x16 {
  static constexpr int kLanes = 16;
  std::uint8_t v[kLanes];

  static U8x16 splat(std::uint8_t x) {
    U8x16 r;
    for (auto& e : r.v) e = x;
    return r;
  }
  static U8x16 zero() { return splat(0); }
  static U8x16 load(const std::uint8_t* p) {
    U8x16 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = p[i];
    return r;
  }
  void store(std::uint8_t* p) const {
    for (int i = 0; i < kLanes; ++i) p[i] = v[i];
  }

  friend U8x16 max_u8(U8x16 a, U8x16 b) {
    U8x16 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
    return r;
  }
  friend U8x16 adds_u8(U8x16 a, U8x16 b) {
    U8x16 r;
    for (int i = 0; i < kLanes; ++i) {
      unsigned s = unsigned(a.v[i]) + unsigned(b.v[i]);
      r.v[i] = s > 255u ? 255u : std::uint8_t(s);
    }
    return r;
  }
  friend U8x16 subs_u8(U8x16 a, U8x16 b) {
    U8x16 r;
    for (int i = 0; i < kLanes; ++i)
      r.v[i] = a.v[i] > b.v[i] ? std::uint8_t(a.v[i] - b.v[i]) : 0;
    return r;
  }
  /// Shift lanes up by one (lane j <- lane j-1), filling lane 0 with fill.
  friend U8x16 shift_lanes_up(U8x16 a, std::uint8_t fill = 0) {
    U8x16 r;
    r.v[0] = fill;
    for (int i = 1; i < kLanes; ++i) r.v[i] = a.v[i - 1];
    return r;
  }
  friend std::uint8_t hmax_u8(U8x16 a) {
    std::uint8_t m = 0;
    for (auto e : a.v)
      if (e > m) m = e;
    return m;
  }
};

/// 8 signed words (ViterbiFilter lane type).
struct I16x8 {
  static constexpr int kLanes = 8;
  std::int16_t v[kLanes];

  static I16x8 splat(std::int16_t x) {
    I16x8 r;
    for (auto& e : r.v) e = x;
    return r;
  }
  static I16x8 neg_inf() { return splat(profile::kWordNegInf); }
  static I16x8 load(const std::int16_t* p) {
    I16x8 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = p[i];
    return r;
  }
  void store(std::int16_t* p) const {
    for (int i = 0; i < kLanes; ++i) p[i] = v[i];
  }

  friend I16x8 max_i16(I16x8 a, I16x8 b) {
    I16x8 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
    return r;
  }
  /// Sticky -inf saturating add (matches profile::sat_add_word lane-wise).
  friend I16x8 adds_w(I16x8 a, I16x8 b) {
    I16x8 r;
    for (int i = 0; i < kLanes; ++i)
      r.v[i] = profile::sat_add_word(a.v[i], b.v[i]);
    return r;
  }
  /// Shift lanes up by one, filling lane 0 with -inf.
  friend I16x8 shift_lanes_up(I16x8 a,
                              std::int16_t fill = profile::kWordNegInf) {
    I16x8 r;
    r.v[0] = fill;
    for (int i = 1; i < kLanes; ++i) r.v[i] = a.v[i - 1];
    return r;
  }
  friend std::int16_t hmax_i16(I16x8 a) {
    std::int16_t m = profile::kWordNegInf;
    for (auto e : a.v)
      if (e > m) m = e;
    return m;
  }
  /// True if any lane of a is strictly greater than the same lane of b.
  friend bool any_gt_i16(I16x8 a, I16x8 b) {
    for (int i = 0; i < kLanes; ++i)
      if (a.v[i] > b.v[i]) return true;
    return false;
  }
};

/// 4 floats (Forward filter lane type, probability space; also the
/// log-space lane type of the exact row kernels, which use the compare /
/// select / gather half below).
struct F32x4 {
  static constexpr int kLanes = 4;
  float v[kLanes];
  /// Per-lane predicate of a comparison.
  struct Mask {
    bool v[kLanes];
  };

  static F32x4 splat(float x) {
    F32x4 r;
    for (auto& e : r.v) e = x;
    return r;
  }
  static F32x4 zero() { return splat(0.0f); }
  static F32x4 load(const float* p) {
    F32x4 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = p[i];
    return r;
  }
  void store(float* p) const {
    for (int i = 0; i < kLanes; ++i) p[i] = v[i];
  }

  friend F32x4 add_f(F32x4 a, F32x4 b) {
    F32x4 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
  }
  friend F32x4 mul_f(F32x4 a, F32x4 b) {
    F32x4 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = a.v[i] * b.v[i];
    return r;
  }
  /// Shift lanes up by one (lane j <- lane j-1), lane 0 <- fill.
  friend F32x4 shift_lanes_up(F32x4 a, float fill = 0.0f) {
    F32x4 r;
    r.v[0] = fill;
    for (int i = 1; i < kLanes; ++i) r.v[i] = a.v[i - 1];
    return r;
  }
  /// Shift lanes down by one (lane j <- lane j+1), top lane <- 0.0f.
  friend F32x4 shift_lanes_down(F32x4 a) {
    F32x4 r;
    for (int i = 0; i + 1 < kLanes; ++i) r.v[i] = a.v[i + 1];
    r.v[kLanes - 1] = 0.0f;
    return r;
  }
  friend float hsum_f(F32x4 a) {
    float s = 0.0f;
    for (auto e : a.v) s += e;
    return s;
  }
  friend float hmax_f(F32x4 a) {
    float m = a.v[0];
    for (auto e : a.v)
      if (e > m) m = e;
    return m;
  }

  friend F32x4 sub_f(F32x4 a, F32x4 b) {
    F32x4 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = a.v[i] - b.v[i];
    return r;
  }
  friend F32x4 abs_f(F32x4 a) {
    F32x4 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = std::fabs(a.v[i]);
    return r;
  }
  friend Mask gt_f(F32x4 a, F32x4 b) {
    Mask m;
    for (int i = 0; i < kLanes; ++i) m.v[i] = a.v[i] > b.v[i];
    return m;
  }
  friend Mask ge_f(F32x4 a, F32x4 b) {
    Mask m;
    for (int i = 0; i < kLanes; ++i) m.v[i] = a.v[i] >= b.v[i];
    return m;
  }
  friend Mask lt_f(F32x4 a, F32x4 b) {
    Mask m;
    for (int i = 0; i < kLanes; ++i) m.v[i] = a.v[i] < b.v[i];
    return m;
  }
  /// m ? a : b, lane-wise.
  friend F32x4 select_f(Mask m, F32x4 a, F32x4 b) {
    F32x4 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = m.v[i] ? a.v[i] : b.v[i];
    return r;
  }
  /// table[int(x)] (truncating) in the lanes of m, 0 elsewhere; lanes
  /// outside m are not read.
  friend F32x4 gather_f(const float* table, F32x4 x, Mask m) {
    F32x4 r;
    for (int i = 0; i < kLanes; ++i)
      r.v[i] = m.v[i] ? table[static_cast<int>(x.v[i])] : 0.0f;
    return r;
  }
};

}  // namespace finehmm::cpu
