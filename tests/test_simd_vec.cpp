// Portable SIMD lane semantics, on the <16, 8, 4> instances the portable
// tier runs, plus the SSE2 byte compare checked against its portable twin.
#include <gtest/gtest.h>

#include <algorithm>

#include "cpu/simd_vec.hpp"
#include "util/rng.hpp"
#if defined(__SSE2__)
#include "cpu/simd_backend/vec_sse2.hpp"
#endif

namespace {

using namespace finehmm::cpu;
using U8x16 = U8xN<16>;
using I16x8 = I16xN<8>;
using F32x4 = F32xN<4>;

TEST(U8x16, SaturatingOps) {
  auto a = U8x16::splat(200);
  auto b = U8x16::splat(100);
  EXPECT_EQ(adds_u8(a, b).v[7], 255);
  EXPECT_EQ(subs_u8(b, a).v[7], 0);
  EXPECT_EQ(subs_u8(a, b).v[7], 100);
  EXPECT_EQ(max_u8(a, b).v[0], 200);
}

TEST(U8x16, ShiftLanesUp) {
  U8x16 a;
  for (int i = 0; i < 16; ++i) a.v[i] = static_cast<std::uint8_t>(i + 1);
  auto s = shift_lanes_up(a, 99);
  EXPECT_EQ(s.v[0], 99);
  for (int i = 1; i < 16; ++i) EXPECT_EQ(s.v[i], i);
}

TEST(U8x16, HorizontalMax) {
  U8x16 a = U8x16::splat(0);
  a.v[11] = 42;
  EXPECT_EQ(hmax_u8(a), 42);
  EXPECT_EQ(hmax_u8(U8x16::splat(0)), 0);
}

TEST(U8x16, AnyGtIsStrictAndUnsigned) {
  // Equal operands never compare greater, at any byte value.
  for (int x : {0, 1, 0x7f, 0x80, 0xc1, 0xfe, 0xff})
    EXPECT_FALSE(any_gt_u8(U8x16::splat(static_cast<std::uint8_t>(x)),
                           U8x16::splat(static_cast<std::uint8_t>(x))))
        << x;
  // Bytes >= 0x80 are large, not negative: 0x80 > 0x7f and 0xff > 0xfe.
  U8x16 a = U8x16::splat(0x7f);
  const U8x16 b = U8x16::splat(0x7f);
  EXPECT_FALSE(any_gt_u8(a, b));
  a.v[9] = 0x80;
  EXPECT_TRUE(any_gt_u8(a, b));
  EXPECT_FALSE(any_gt_u8(b, a));
  U8x16 hi = U8x16::splat(0xfe);
  hi.v[15] = 0xff;
  EXPECT_TRUE(any_gt_u8(hi, U8x16::splat(0xfe)));
  EXPECT_FALSE(any_gt_u8(U8x16::splat(0xfe), hi));
  // A single lane decides, wherever it sits.
  for (int lane = 0; lane < 16; ++lane) {
    U8x16 one = U8x16::splat(193);
    one.v[lane] = 194;
    EXPECT_TRUE(any_gt_u8(one, U8x16::splat(193))) << lane;
  }
}

#if defined(__SSE2__)
// SSE2 has no unsigned byte compare; its any_gt_u8 goes through a
// saturating subtract and must agree with the portable loop everywhere,
// high bytes and ties included.
TEST(U8x16, SseAnyGtMatchesPortable) {
  using finehmm::cpu::backend::SseU8x16;
  finehmm::Pcg32 rng(17);
  for (int rep = 0; rep < 2000; ++rep) {
    std::uint8_t a[16], b[16];
    for (int i = 0; i < 16; ++i) {
      a[i] = static_cast<std::uint8_t>(rng.below(256));
      // Mostly ties or near-ties, so single-lane decisions are common.
      const int d = static_cast<int>(rng.below(5)) - 3;
      b[i] = static_cast<std::uint8_t>(std::clamp(a[i] - d, 0, 255));
    }
    EXPECT_EQ(any_gt_u8(SseU8x16::load(a), SseU8x16::load(b)),
              any_gt_u8(U8x16::load(a), U8x16::load(b)))
        << rep;
  }
  EXPECT_FALSE(any_gt_u8(SseU8x16::splat(0xff), SseU8x16::splat(0xff)));
  EXPECT_TRUE(any_gt_u8(SseU8x16::splat(0x80), SseU8x16::splat(0x7f)));
  EXPECT_FALSE(any_gt_u8(SseU8x16::splat(0x7f), SseU8x16::splat(0x80)));
}
#endif

TEST(U8x16, LoadStoreRoundTrip) {
  std::uint8_t buf[16];
  for (int i = 0; i < 16; ++i) buf[i] = static_cast<std::uint8_t>(i * 3);
  auto v = U8x16::load(buf);
  std::uint8_t out[16];
  v.store(out);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(out[i], buf[i]);
}

TEST(I16x8, StickyNegInfAdd) {
  auto ninf = I16x8::neg_inf();
  auto big = I16x8::splat(30000);
  EXPECT_EQ(adds_w(ninf, big).v[3], finehmm::profile::kWordNegInf);
  EXPECT_EQ(adds_w(big, big).v[3], 32767);
  auto small = I16x8::splat(-30000);
  EXPECT_EQ(adds_w(small, small).v[3], -32767);
}

TEST(I16x8, ShiftAndMax) {
  I16x8 a;
  for (int i = 0; i < 8; ++i) a.v[i] = static_cast<std::int16_t>(i * 100);
  auto s = shift_lanes_up(a);
  EXPECT_EQ(s.v[0], finehmm::profile::kWordNegInf);
  EXPECT_EQ(s.v[7], 600);
  EXPECT_EQ(hmax_i16(a), 700);
}

TEST(I16x8, AnyGt) {
  auto a = I16x8::splat(5);
  auto b = I16x8::splat(5);
  EXPECT_FALSE(any_gt_i16(a, b));
  a.v[6] = 6;
  EXPECT_TRUE(any_gt_i16(a, b));
  EXPECT_FALSE(any_gt_i16(b, a));
}

TEST(F32x4, CompareSelectGather) {
  const float table[4] = {10.0f, 11.0f, 12.0f, 13.0f};
  F32x4 a;
  for (int i = 0; i < 4; ++i) a.v[i] = static_cast<float>(i) + 0.5f;
  const F32x4 two = F32x4::splat(2.0f);
  const auto lt = lt_f(a, two);  // lanes 0, 1
  auto s = select_f(lt, a, two);
  EXPECT_EQ(s.v[1], 1.5f);
  EXPECT_EQ(s.v[3], 2.0f);
  auto g = gather_f(table, a, lt);  // truncating index, 0 outside lt
  EXPECT_EQ(g.v[0], 10.0f);
  EXPECT_EQ(g.v[1], 11.0f);
  EXPECT_EQ(g.v[2], 0.0f);
  EXPECT_EQ(hsum_f(a), 0.5f + 1.5f + 2.5f + 3.5f);
  auto d = shift_lanes_down(a);
  EXPECT_EQ(d.v[0], 1.5f);
  EXPECT_EQ(d.v[3], 0.0f);
}

}  // namespace
