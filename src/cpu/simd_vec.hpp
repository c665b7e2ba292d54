// Portable SIMD lane classes: the executable specification of every tier.
//
// HMMER 3.0's MSV filter runs on 16 unsigned bytes per SSE register and the
// ViterbiFilter on 8 signed words; later releases re-striped the same
// algorithms for 32/64 bytes (AVX2/AVX-512).  U8xN / I16xN / F32xN
// reproduce those lane semantics for any power-of-two width N with plain
// loops that GCC/Clang auto-vectorize.  The portable tier is the
// <16, 8, 4> instance (the SSE2 geometry), and the native classes
// (simd_backend/vec_*.hpp) are tested against the instance of their own
// width.  Word adds use the library's sticky -inf saturating semantics
// (see profile/vit_profile.hpp) so every implementation agrees exactly,
// and hsum_f sums lanes in order so a portable and a native run of the
// same width are bit-identical.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>

#include "profile/vit_profile.hpp"

namespace finehmm::cpu {

/// N unsigned bytes (MSV/SSV lane type).
template <int N>
struct U8xN {
  static_assert(N >= 2 && (N & (N - 1)) == 0, "lane count: power of two");
  static constexpr int kLanes = N;
  std::uint8_t v[N];

  static U8xN splat(std::uint8_t x) {
    U8xN r;
    for (auto& e : r.v) e = x;
    return r;
  }
  static U8xN load(const std::uint8_t* p) {
    U8xN r;
    std::memcpy(r.v, p, N);
    return r;
  }
  void store(std::uint8_t* p) const { std::memcpy(p, v, N); }

  friend U8xN max_u8(U8xN a, U8xN b) {
    U8xN r;
    for (int i = 0; i < N; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
    return r;
  }
  friend U8xN adds_u8(U8xN a, U8xN b) {
    U8xN r;
    for (int i = 0; i < N; ++i) {
      unsigned s = unsigned(a.v[i]) + unsigned(b.v[i]);
      r.v[i] = s > 255u ? 255u : std::uint8_t(s);
    }
    return r;
  }
  friend U8xN subs_u8(U8xN a, U8xN b) {
    U8xN r;
    for (int i = 0; i < N; ++i)
      r.v[i] = a.v[i] > b.v[i] ? std::uint8_t(a.v[i] - b.v[i]) : 0;
    return r;
  }
  /// Shift lanes up by one (lane j <- lane j-1), filling lane 0 with fill.
  friend U8xN shift_lanes_up(U8xN a, std::uint8_t fill = 0) {
    U8xN r;
    r.v[0] = fill;
    for (int i = 1; i < N; ++i) r.v[i] = a.v[i - 1];
    return r;
  }
  friend std::uint8_t hmax_u8(U8xN a) {
    std::uint8_t m = 0;
    for (auto e : a.v)
      if (e > m) m = e;
    return m;
  }
  /// True if some lane of a is (unsigned, strictly) greater than b's.
  /// Branch-free over the lanes so the loop vectorizes.
  friend bool any_gt_u8(U8xN a, U8xN b) {
    unsigned any = 0;
    for (int i = 0; i < N; ++i) any |= a.v[i] > b.v[i] ? 1u : 0u;
    return any != 0;
  }
};

/// N signed words (ViterbiFilter lane type).
template <int N>
struct I16xN {
  static_assert(N >= 2 && (N & (N - 1)) == 0, "lane count: power of two");
  static constexpr int kLanes = N;
  std::int16_t v[N];

  static I16xN splat(std::int16_t x) {
    I16xN r;
    for (auto& e : r.v) e = x;
    return r;
  }
  static I16xN neg_inf() { return splat(profile::kWordNegInf); }
  static I16xN load(const std::int16_t* p) {
    I16xN r;
    std::memcpy(r.v, p, N * sizeof(std::int16_t));
    return r;
  }
  void store(std::int16_t* p) const {
    std::memcpy(p, v, N * sizeof(std::int16_t));
  }

  friend I16xN max_i16(I16xN a, I16xN b) {
    I16xN r;
    for (int i = 0; i < N; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
    return r;
  }
  /// Sticky -inf saturating add (matches profile::sat_add_word lane-wise).
  friend I16xN adds_w(I16xN a, I16xN b) {
    I16xN r;
    for (int i = 0; i < N; ++i)
      r.v[i] = profile::sat_add_word(a.v[i], b.v[i]);
    return r;
  }
  /// Shift lanes up by one, filling lane 0 with fill (default -inf).
  friend I16xN shift_lanes_up(I16xN a,
                              std::int16_t fill = profile::kWordNegInf) {
    I16xN r;
    r.v[0] = fill;
    for (int i = 1; i < N; ++i) r.v[i] = a.v[i - 1];
    return r;
  }
  friend std::int16_t hmax_i16(I16xN a) {
    std::int16_t m = profile::kWordNegInf;
    for (auto e : a.v)
      if (e > m) m = e;
    return m;
  }
  /// True if any lane of a is strictly greater than the same lane of b.
  friend bool any_gt_i16(I16xN a, I16xN b) {
    for (int i = 0; i < N; ++i)
      if (a.v[i] > b.v[i]) return true;
    return false;
  }
};

/// N floats (Forward/Backward lane type, probability space; also the
/// log-space lane type of the exact row kernels, which use the compare /
/// select / gather half below).
template <int N>
struct F32xN {
  static_assert(N >= 2 && (N & (N - 1)) == 0, "lane count: power of two");
  static constexpr int kLanes = N;
  float v[N];
  /// Per-lane predicate of a comparison.
  struct Mask {
    bool v[N];
  };

  static F32xN splat(float x) {
    F32xN r;
    for (auto& e : r.v) e = x;
    return r;
  }
  static F32xN load(const float* p) {
    F32xN r;
    std::memcpy(r.v, p, N * sizeof(float));
    return r;
  }
  void store(float* p) const { std::memcpy(p, v, N * sizeof(float)); }

  friend F32xN add_f(F32xN a, F32xN b) {
    F32xN r;
    for (int i = 0; i < N; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
  }
  friend F32xN sub_f(F32xN a, F32xN b) {
    F32xN r;
    for (int i = 0; i < N; ++i) r.v[i] = a.v[i] - b.v[i];
    return r;
  }
  friend F32xN mul_f(F32xN a, F32xN b) {
    F32xN r;
    for (int i = 0; i < N; ++i) r.v[i] = a.v[i] * b.v[i];
    return r;
  }
  friend F32xN abs_f(F32xN a) {
    F32xN r;
    for (int i = 0; i < N; ++i) r.v[i] = std::fabs(a.v[i]);
    return r;
  }
  /// Shift lanes up by one (lane j <- lane j-1), lane 0 <- fill.
  friend F32xN shift_lanes_up(F32xN a, float fill = 0.0f) {
    F32xN r;
    r.v[0] = fill;
    for (int i = 1; i < N; ++i) r.v[i] = a.v[i - 1];
    return r;
  }
  /// Shift lanes down by one (lane j <- lane j+1), top lane <- 0.0f.
  friend F32xN shift_lanes_down(F32xN a) {
    F32xN r;
    for (int i = 0; i + 1 < N; ++i) r.v[i] = a.v[i + 1];
    r.v[N - 1] = 0.0f;
    return r;
  }
  /// In-order lane sum starting from 0.0f — part of the score contract.
  friend float hsum_f(F32xN a) {
    float s = 0.0f;
    for (auto e : a.v) s += e;
    return s;
  }

  friend Mask gt_f(F32xN a, F32xN b) {
    Mask m;
    for (int i = 0; i < N; ++i) m.v[i] = a.v[i] > b.v[i];
    return m;
  }
  friend Mask ge_f(F32xN a, F32xN b) {
    Mask m;
    for (int i = 0; i < N; ++i) m.v[i] = a.v[i] >= b.v[i];
    return m;
  }
  friend Mask lt_f(F32xN a, F32xN b) {
    Mask m;
    for (int i = 0; i < N; ++i) m.v[i] = a.v[i] < b.v[i];
    return m;
  }
  /// m ? a : b, lane-wise.
  friend F32xN select_f(Mask m, F32xN a, F32xN b) {
    F32xN r;
    for (int i = 0; i < N; ++i) r.v[i] = m.v[i] ? a.v[i] : b.v[i];
    return r;
  }
  /// table[int(x)] (truncating) in the lanes of m, 0 elsewhere; lanes
  /// outside m are not read.
  friend F32xN gather_f(const float* table, F32xN x, Mask m) {
    F32xN r;
    for (int i = 0; i < N; ++i)
      r.v[i] = m.v[i] ? table[static_cast<int>(x.v[i])] : 0.0f;
    return r;
  }
};

}  // namespace finehmm::cpu
