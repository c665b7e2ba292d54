// Vectorized profile construction: byteification/wordification properties
// and layout consistency.
#include <gtest/gtest.h>

#include <cmath>

#include "cpu/msv_group.hpp"
#include "cpu/stripes.hpp"
#include "hmm/generator.hpp"
#include "profile/fwd_profile.hpp"
#include "profile/msv_profile.hpp"
#include "profile/vit_profile.hpp"

namespace {

using namespace finehmm;

struct ProfFixture {
  hmm::Plan7Hmm model;
  hmm::SearchProfile prof;
  profile::MsvProfile msv;
  profile::VitProfile vit;
  profile::FwdProfile fwd;
  explicit ProfFixture(int M)
      : model(hmm::paper_model(M)),
        prof(model, hmm::AlignMode::kLocalMultihit, 400),
        msv(prof),
        vit(prof),
        fwd(prof) {}
};

class ProfileQuantization : public ::testing::TestWithParam<int> {};

TEST_P(ProfileQuantization, ByteCostsInvertToScoresWithinHalfUnit) {
  ProfFixture fx(GetParam());
  for (int k = 1; k <= fx.prof.length(); ++k) {
    for (int x = 0; x < bio::kK; ++x) {
      float sc = fx.prof.msc(k, x);
      std::uint8_t cost = fx.msv.cost(x, k);
      if (cost == 255) continue;  // clipped: score below representable range
      float recovered = (static_cast<float>(fx.msv.bias()) - cost) /
                        fx.msv.scale();
      EXPECT_NEAR(recovered, sc, 0.5f / fx.msv.scale() + 1e-4f)
          << "k=" << k << " x=" << x;
    }
  }
}

TEST_P(ProfileQuantization, WordScoresInvertWithinHalfUnit) {
  ProfFixture fx(GetParam());
  for (int k = 1; k <= fx.prof.length(); ++k) {
    for (int x = 0; x < bio::kK; ++x) {
      float sc = fx.prof.msc(k, x);
      std::int16_t w = fx.vit.msc(x, k);
      if (w == profile::kWordNegInf) {
        // -inf proper, or a finite score below the representable floor.
        EXPECT_LE(sc, -32767.0f / fx.vit.scale() + 1.0f);
        continue;
      }
      EXPECT_NEAR(static_cast<float>(w) / fx.vit.scale(), sc,
                  0.5f / fx.vit.scale() + 1e-5f);
    }
  }
}

// One stripes builder serves every tier: at each lane count, position k
// must land in stripe (k-1)%Q, lane (k-1)/Q, and padding must be inert.
// The byte stage's is a one-member group, which must be that layout.
TEST_P(ProfileQuantization, StripedLayoutPermutesLinear) {
  ProfFixture fx(GetParam());
  const int M = fx.prof.length();
  for (int lanes : {4, 16, 32, 64}) {
    const cpu::FusedMsvGroup st(fx.msv, lanes);
    const int Q = st.segments();
    ASSERT_EQ(Q, (M + lanes - 1) / lanes);
    for (int x = 0; x < bio::kKp; ++x) {
      const std::uint8_t* striped =
          st.view().rows + static_cast<std::size_t>(x) * Q * lanes;
      for (int k = 1; k <= M; ++k)
        EXPECT_EQ(striped[(k - 1) % Q * lanes + (k - 1) / Q],
                  fx.msv.cost(x, k))
            << "lanes=" << lanes << " x=" << x << " k=" << k;
      for (int slot = M; slot < Q * lanes; ++slot)
        EXPECT_EQ(striped[slot % Q * lanes + slot / Q], 255)
            << "lanes=" << lanes << " pad slot " << slot;
    }
  }
  for (int lanes : {8, 16, 32}) {
    cpu::VitStripes st(fx.vit, lanes);
    const auto view = st.view();
    const int Q = view.Q;
    for (int k = 1; k <= M; ++k) {
      const std::size_t at = (k - 1) % Q * lanes + (k - 1) / Q;
      EXPECT_EQ(view.tmm[at], fx.vit.tmm_in(k)) << "lanes=" << lanes;
      EXPECT_EQ(view.tdd[at], fx.vit.tdd_out(k)) << "lanes=" << lanes;
      for (int x = 0; x < bio::kKp; ++x)
        EXPECT_EQ(view.msc[static_cast<std::size_t>(x) * Q * lanes + at],
                  fx.vit.msc(x, k))
            << "lanes=" << lanes << " x=" << x << " k=" << k;
    }
  }
  for (int lanes : {4, 8, 16}) {
    cpu::FwdStripes st(fx.fwd, lanes);
    const auto view = st.view();
    const int Q = view.Q;
    for (int k = 1; k <= M; ++k) {
      const std::size_t at = (k - 1) % Q * lanes + (k - 1) / Q;
      EXPECT_EQ(view.tmm[at], fx.fwd.tmm_at(k)) << "lanes=" << lanes;
      EXPECT_EQ(view.tmm_out[at], k < M ? fx.fwd.tmm_at(k + 1) : 0.0f)
          << "lanes=" << lanes;
      for (int x = 0; x < bio::kKp; ++x)
        EXPECT_EQ(view.odds[static_cast<std::size_t>(x) * Q * lanes + at],
                  fx.fwd.odds_at(x, k))
            << "lanes=" << lanes << " x=" << x << " k=" << k;
    }
  }
}

TEST_P(ProfileQuantization, PaddedTailIsInert) {
  ProfFixture fx(GetParam());
  const int M = fx.prof.length();
  for (int x = 0; x < bio::kKp; ++x) {
    const std::uint8_t* row = fx.msv.linear_row(x);
    for (int k = M; k < fx.msv.padded_length(); ++k)
      EXPECT_EQ(row[k], 255) << "pad cell must cost 255";
    const std::int16_t* wrow = fx.vit.msc_row(x);
    for (int k = M; k < fx.vit.padded_length(); ++k)
      EXPECT_EQ(wrow[k], profile::kWordNegInf);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ProfileQuantization,
                         ::testing::Values(1, 16, 17, 100, 333),
                         ::testing::PrintToStringParamName());

TEST(ProfileQuantization, TjbGrowsWithLength) {
  // tjb is the byte COST of the N/J->B move, -log(3/(L+3)) scaled: longer
  // targets make the move less probable, so the cost grows.
  ProfFixture fx(50);
  std::uint8_t prev = fx.msv.tjb_for(1);
  for (int L : {10, 100, 1000, 10000}) {
    std::uint8_t cur = fx.msv.tjb_for(L);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(ProfileQuantization, WordLengthModelChargesLoops) {
  // The word scale is fine enough that the per-residue loop cost must be
  // nonzero for realistic lengths (unlike the byte filter).
  ProfFixture fx(50);
  auto lm = fx.vit.length_model_for(400);
  EXPECT_LT(lm.loop, 0);
  EXPECT_GT(lm.loop, -20);
  auto lm_short = fx.vit.length_model_for(50);
  EXPECT_LT(lm_short.loop, lm.loop) << "shorter targets pay more per loop";
}

TEST(ProfileQuantization, StickyNegInfAddSemantics) {
  using profile::sat_add_word;
  EXPECT_EQ(sat_add_word(profile::kWordNegInf, 32767), profile::kWordNegInf);
  EXPECT_EQ(sat_add_word(10, profile::kWordNegInf), profile::kWordNegInf);
  EXPECT_EQ(sat_add_word(30000, 10000), 32767);
  EXPECT_EQ(sat_add_word(-30000, -10000), -32767) << "reserve -32768 for -inf";
  EXPECT_EQ(sat_add_word(5, -3), 2);
}

}  // namespace
