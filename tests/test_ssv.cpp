// SSV filter (extension): scalar == striped (BatchScanner) == warp kernel,
// and the structural property SSV <= MSV (removing the J state can only
// lose).
#include <gtest/gtest.h>

#include "bio/synthetic.hpp"
#include "cpu/msv_scalar.hpp"
#include "cpu/ssv.hpp"
#include "gpu/search.hpp"
#include "hmm/generator.hpp"
#include "hmm/sampler.hpp"
#include "pipeline/batch_scanner.hpp"

namespace {

using namespace finehmm;

struct SsvFixture {
  hmm::Plan7Hmm model;
  hmm::SearchProfile prof;
  profile::MsvProfile msv;

  explicit SsvFixture(int M, std::uint64_t seed = 13)
      : model([&] {
          hmm::RandomHmmSpec spec;
          spec.length = M;
          spec.seed = seed;
          return hmm::generate_hmm(spec);
        }()),
        prof(model, hmm::AlignMode::kLocalMultihit, 400),
        msv(prof) {}
};

class SsvEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SsvEquivalence, StripedMatchesScalar) {
  SsvFixture fx(GetParam());
  const profile::VitProfile vit(fx.prof);
  pipeline::BatchScanner scanner(fx.msv, vit);
  Pcg32 rng(7);
  for (int rep = 0; rep < 15; ++rep) {
    std::size_t L = 1 + rng.below(500);
    auto seq = bio::random_sequence(L, rng);
    auto a = cpu::ssv_scalar(fx.msv, seq.codes.data(), L);
    auto b = scanner.ssv(0, seq.codes.data(), L);
    EXPECT_EQ(a.overflowed, b.overflowed);
    EXPECT_FLOAT_EQ(a.score_nats, b.score_nats)
        << "M=" << GetParam() << " L=" << L;
  }
}

TEST_P(SsvEquivalence, SsvNeverExceedsMsv) {
  SsvFixture fx(GetParam());
  Pcg32 rng(9);
  for (int rep = 0; rep < 15; ++rep) {
    auto seq = rep % 3 == 0 ? hmm::sample_homolog(fx.model, rng)
                            : bio::random_sequence(30 + rng.below(400), rng);
    auto ssv = cpu::ssv_scalar(fx.msv, seq.codes.data(), seq.length());
    auto msv = cpu::msv_scalar(fx.msv, seq.codes.data(), seq.length());
    if (ssv.overflowed || msv.overflowed) {
      // An overflowing SSV implies an overflowing MSV.
      EXPECT_TRUE(!ssv.overflowed || msv.overflowed);
      continue;
    }
    // Byte rounding of tec/tjb is shared, so the inequality is exact.
    EXPECT_LE(ssv.score_nats, msv.score_nats + 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(ModelSizes, SsvEquivalence,
                         ::testing::Values(5, 16, 31, 33, 100, 200),
                         ::testing::PrintToStringParamName());

TEST(Ssv, WarpKernelMatchesScalar) {
  SsvFixture fx(96);
  Pcg32 rng(17);
  bio::SequenceDatabase db;
  for (int i = 0; i < 30; ++i) {
    if (i % 3 == 0)
      db.add(hmm::sample_homolog(fx.model, rng));
    else
      db.add(bio::random_sequence(10 + rng.below(300), rng));
  }
  bio::PackedDatabase packed(db);
  gpu::GpuSearch search(simt::DeviceSpec::tesla_k40());
  for (auto placement :
       {gpu::ParamPlacement::kShared, gpu::ParamPlacement::kGlobal}) {
    auto run = search.run_ssv(fx.msv, packed, placement);
    for (std::size_t s = 0; s < db.size(); ++s) {
      auto ref = cpu::ssv_scalar(fx.msv, db[s].codes.data(), db[s].length());
      EXPECT_EQ(run.overflow[s] != 0, ref.overflowed) << "seq " << s;
      EXPECT_FLOAT_EQ(run.scores[s], ref.score_nats) << "seq " << s;
    }
  }
}

TEST(Ssv, SingleSegmentSequencesScoreLikeMsv) {
  // A sequence with exactly one strong segment: MSV's J adds nothing, so
  // the two scores coincide up to the shared byte quantization.
  SsvFixture fx(64);
  Pcg32 rng(23);
  hmm::SampleOptions opts;
  opts.fragment_prob = 0.0;  // one full-length traversal
  auto seq = hmm::sample_homolog(fx.model, rng, opts);
  auto ssv = cpu::ssv_scalar(fx.msv, seq.codes.data(), seq.length());
  auto msv = cpu::msv_scalar(fx.msv, seq.codes.data(), seq.length());
  if (!ssv.overflowed && !msv.overflowed) {
    EXPECT_NEAR(ssv.score_nats, msv.score_nats, 0.5f);
  }
}

}  // namespace
