// Striped ViterbiFilter at every lane count: the width-N template kernel
// with the portable lane class, and the VitFilter of every supported
// native tier, must be bit-exact with the scalar reference, including
// delete-heavy Lazy-F stress.  The model lengths sit on the stripe edges
// of the 8/16/32-word geometries.
#include <gtest/gtest.h>

#include <vector>

#include "bio/synthetic.hpp"
#include "cpu/simd_backend/kernels.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "cpu/simd_vec.hpp"
#include "cpu/stripes.hpp"
#include "cpu/vit_filter.hpp"
#include "cpu/vit_scalar.hpp"
#include "hmm/generator.hpp"
#include "hmm/sampler.hpp"

namespace {

using namespace finehmm;

/// Runs `score(vit, seq)` on homologs and random draws of one generated
/// model and checks every result against vit_scalar.
template <class Score>
void check_against_scalar(int M, double delete_extend, std::uint64_t seed,
                          const char* what, Score&& score) {
  hmm::RandomHmmSpec spec;
  spec.length = M;
  spec.seed = seed;
  spec.delete_extend = delete_extend;
  spec.indel_open = delete_extend > 0.7 ? 0.1 : 0.02;
  auto model = hmm::generate_hmm(spec);
  hmm::SearchProfile prof(model, hmm::AlignMode::kLocalMultihit, 300);
  profile::VitProfile vit(prof);
  Pcg32 rng(seed + 1);
  for (int rep = 0; rep < 10; ++rep) {
    auto seq = rep % 3 == 0 ? hmm::sample_homolog(model, rng)
                            : bio::random_sequence(1 + rng.below(350), rng);
    auto ref = cpu::vit_scalar(vit, seq.codes.data(), seq.length());
    auto got = score(vit, seq);
    EXPECT_FLOAT_EQ(got.score_nats, ref.score_nats)
        << what << " M=" << M << " rep=" << rep;
  }
}

/// Portable N-lane Viterbi through the shared template kernel.
template <int N>
void check_width(int M, double delete_extend, std::uint64_t seed) {
  check_against_scalar(
      M, delete_extend, seed, "portable width",
      [](const auto& vit, const auto& seq) {
        cpu::VitStripes stripes(vit, N);
        const std::size_t n = static_cast<std::size_t>(stripes.segments()) * N;
        std::vector<std::int16_t> mmx(n), imx(n), dmx(n);
        return cpu::simd_kernels::vit_kernel<cpu::I16xN<N>>(
            vit, stripes.view(), seq.codes.data(), seq.length(), mmx.data(),
            imx.data(), dmx.data());
      });
}

void check_every_tier(int M, double delete_extend, std::uint64_t seed) {
  for (cpu::SimdTier tier : cpu::supported_simd_tiers())
    check_against_scalar(M, delete_extend, seed, cpu::simd_tier_name(tier),
                         [tier](const auto& vit, const auto& seq) {
                           cpu::VitFilter filter(vit, tier);
                           return filter.score(seq.codes.data(),
                                               seq.length());
                         });
}

class WideVit : public ::testing::TestWithParam<int> {};

TEST_P(WideVit, SseWidthMatchesScalar) { check_width<8>(GetParam(), 0.5, 3); }
TEST_P(WideVit, Avx2WidthMatchesScalar) {
  check_width<16>(GetParam(), 0.5, 4);
}
TEST_P(WideVit, Avx512WidthMatchesScalar) {
  check_width<32>(GetParam(), 0.5, 5);
}
TEST_P(WideVit, DeleteHeavyLazyFAllWidths) {
  check_width<8>(GetParam(), 0.85, 6);
  check_width<16>(GetParam(), 0.85, 6);
  check_width<32>(GetParam(), 0.85, 6);
}
TEST_P(WideVit, EverySupportedTierMatchesScalar) {
  check_every_tier(GetParam(), 0.5, 7);
  check_every_tier(GetParam(), 0.85, 6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, WideVit,
                         ::testing::Values(1, 7, 8, 9, 31, 33, 128),
                         ::testing::PrintToStringParamName());

}  // namespace
