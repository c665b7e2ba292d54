// Striped MSV at every lane count: the one byte-stage kernel with the
// portable lane class on a one-member group, and the MsvFilter of every
// supported native tier, must reproduce the scalar reference
// byte-exactly.  The model lengths sit on the stripe edges of the
// 16/32/64-byte geometries (16 and 64 fill M = N*Q with no pad).
#include <gtest/gtest.h>

#include <vector>

#include "bio/synthetic.hpp"
#include "cpu/msv_filter.hpp"
#include "cpu/msv_group.hpp"
#include "cpu/msv_scalar.hpp"
#include "cpu/simd_backend/kernels.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "group_sweep.hpp"
#include "hmm/generator.hpp"
#include "hmm/sampler.hpp"

namespace {

using namespace finehmm;

/// Portable N-lane MSV of a one-member group through the shared
/// template kernel.
template <int N>
cpu::FilterResult msv_width(const cpu::FusedMsvGroup& group,
                            const bio::Sequence& seq) {
  return test::sweep_width<N, cpu::simd_kernels::ByteStage::kMsv>(
      group, seq.codes.data(), seq.length())[0];
}

/// Runs `score(msv, seq)` on homologs and random draws of one model and
/// checks every result against msv_scalar.
template <class Score>
void check_against_scalar(int M, std::uint64_t seed, const char* what,
                          Score&& score) {
  auto model = hmm::paper_model(M);
  hmm::SearchProfile prof(model, hmm::AlignMode::kLocalMultihit, 400);
  profile::MsvProfile msv(prof);
  Pcg32 rng(seed);
  for (int rep = 0; rep < 12; ++rep) {
    auto seq = rep % 3 == 0 ? hmm::sample_homolog(model, rng)
                            : bio::random_sequence(1 + rng.below(400), rng);
    auto ref = cpu::msv_scalar(msv, seq.codes.data(), seq.length());
    auto got = score(msv, seq);
    EXPECT_EQ(got.overflowed, ref.overflowed)
        << what << " M=" << M << " rep=" << rep;
    EXPECT_FLOAT_EQ(got.score_nats, ref.score_nats)
        << what << " M=" << M << " rep=" << rep;
  }
}

template <int N>
void check_width(int M, std::uint64_t seed) {
  check_against_scalar(M, seed, "portable width", [](const auto& msv,
                                                     const auto& seq) {
    const cpu::FusedMsvGroup group(msv, N);
    return msv_width<N>(group, seq);
  });
}

class WideMsv : public ::testing::TestWithParam<int> {};

TEST_P(WideMsv, SseWidthMatchesScalar) { check_width<16>(GetParam(), 3); }
TEST_P(WideMsv, Avx2WidthMatchesScalar) { check_width<32>(GetParam(), 4); }
TEST_P(WideMsv, Avx512WidthMatchesScalar) { check_width<64>(GetParam(), 5); }
TEST_P(WideMsv, TinyWidthMatchesScalar) { check_width<4>(GetParam(), 6); }

TEST_P(WideMsv, EverySupportedTierMatchesScalar) {
  for (cpu::SimdTier tier : cpu::supported_simd_tiers())
    check_against_scalar(
        GetParam(), 8, cpu::simd_tier_name(tier),
        [tier](const auto& msv, const auto& seq) {
          cpu::MsvFilter filter(msv, tier);
          return filter.score(seq.codes.data(), seq.length());
        });
}

INSTANTIATE_TEST_SUITE_P(Sizes, WideMsv,
                         ::testing::Values(1, 15, 16, 17, 63, 64, 65, 200),
                         ::testing::PrintToStringParamName());

TEST(WideMsv, AllWidthsAgreeWithEachOther) {
  auto model = hmm::paper_model(100);
  hmm::SearchProfile prof(model, hmm::AlignMode::kLocalMultihit, 400);
  profile::MsvProfile msv(prof);
  const cpu::FusedMsvGroup s16(msv, 16);
  const cpu::FusedMsvGroup s32(msv, 32);
  const cpu::FusedMsvGroup s64(msv, 64);
  Pcg32 rng(7);
  auto seq = bio::random_sequence(333, rng);
  auto a = msv_width<16>(s16, seq);
  auto b = msv_width<32>(s32, seq);
  auto c = msv_width<64>(s64, seq);
  EXPECT_FLOAT_EQ(a.score_nats, b.score_nats);
  EXPECT_FLOAT_EQ(b.score_nats, c.score_nats);
}

}  // namespace
