// Consolidated cross-engine consistency matrix.
//
// One fixture, every engine, one sweep: the scalar references anchor the
// striped CPU filters, the SIMT kernels (both architectures, both
// placements, both D-chain strategies), SSV, and the float Forward
// filter.  Any regression anywhere in the scoring stack fails here first.
#include <gtest/gtest.h>

#include <tuple>

#include "bio/synthetic.hpp"
#include "cpu/fwd_filter.hpp"
#include "cpu/generic.hpp"
#include "cpu/msv_filter.hpp"
#include "cpu/msv_scalar.hpp"
#include "cpu/ssv.hpp"
#include "cpu/vit_filter.hpp"
#include "cpu/vit_scalar.hpp"
#include "gpu/search.hpp"
#include "hmm/generator.hpp"
#include "hmm/sampler.hpp"
#include "pipeline/batch_scanner.hpp"

namespace {

using namespace finehmm;

struct Engines {
  hmm::Plan7Hmm model;
  hmm::SearchProfile prof;
  profile::MsvProfile msv;
  profile::VitProfile vit;
  profile::FwdProfile fwd;
  bio::SequenceDatabase db;
  bio::PackedDatabase packed;

  Engines(int M, std::uint64_t seed)
      : model([&] {
          hmm::RandomHmmSpec spec;
          spec.length = M;
          spec.seed = seed;
          spec.delete_extend = 0.6;
          spec.indel_open = 0.03;
          return hmm::generate_hmm(spec);
        }()),
        prof(model, hmm::AlignMode::kLocalMultihit, 250),
        msv(prof),
        vit(prof),
        fwd(prof) {
    Pcg32 rng(seed + 17);
    for (int i = 0; i < 18; ++i) {
      if (i % 3 == 0)
        db.add(hmm::sample_homolog(model, rng));
      else
        db.add(bio::random_sequence(5 + rng.below(300), rng));
    }
    packed = bio::PackedDatabase(db);
  }
};

class CrossEngine
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(CrossEngine, EveryEngineAgrees) {
  auto [M, seed] = GetParam();
  Engines fx(M, seed);

  // Reference scores per sequence.
  std::vector<float> ref_msv(fx.db.size()), ref_vit(fx.db.size());
  std::vector<bool> ref_ovf(fx.db.size());
  cpu::MsvFilter msv_striped_f(fx.msv);
  cpu::VitFilter vit_striped_f(fx.vit);
  cpu::FwdFilter fwd_f(fx.fwd);
  pipeline::BatchScanner scanner(fx.msv, fx.vit);
  for (std::size_t s = 0; s < fx.db.size(); ++s) {
    const auto& seq = fx.db[s];
    auto m = cpu::msv_scalar(fx.msv, seq.codes.data(), seq.length());
    ref_msv[s] = m.score_nats;
    ref_ovf[s] = m.overflowed;
    auto v = cpu::vit_scalar(fx.vit, seq.codes.data(), seq.length());
    ref_vit[s] = v.score_nats;

    // CPU striped engines: bit-exact.
    auto ms = msv_striped_f.score(seq.codes.data(), seq.length());
    EXPECT_FLOAT_EQ(ms.score_nats, ref_msv[s]);
    auto vs = vit_striped_f.score(seq.codes.data(), seq.length());
    EXPECT_FLOAT_EQ(vs.score_nats, ref_vit[s]);

    // SSV <= MSV.
    auto ss = cpu::ssv_scalar(fx.msv, seq.codes.data(), seq.length());
    if (!ss.overflowed && !m.overflowed) {
      EXPECT_LE(ss.score_nats, ref_msv[s] + 1e-4f);
    }
    auto ssp = scanner.ssv(0, seq.codes.data(), seq.length());
    EXPECT_FLOAT_EQ(ssp.score_nats, ss.score_nats);

    // Forward filter tracks the exact log-space Forward.
    float fwd_ref =
        cpu::generic_forward(fx.prof, seq.codes.data(), seq.length(), true);
    float fwd_fast = fwd_f.score(seq.codes.data(), seq.length());
    EXPECT_NEAR(fwd_fast, fwd_ref, 0.05f + 2e-4f * seq.length());
    // Forward >= Viterbi (within word quantization).
    EXPECT_GE(fwd_ref, ref_vit[s] - 0.1f);
  }

  // SIMT kernels on both architectures and placements.
  for (const auto& dev :
       {simt::DeviceSpec::tesla_k40(), simt::DeviceSpec::gtx580()}) {
    gpu::GpuSearch search(dev);
    for (auto placement :
         {gpu::ParamPlacement::kShared, gpu::ParamPlacement::kGlobal}) {
      auto mr = search.run_msv(fx.msv, fx.packed, placement);
      auto vr = search.run_vit(fx.vit, fx.packed, placement);
      auto pr = search.run_vit_prefix(fx.vit, fx.packed, placement);
      for (std::size_t s = 0; s < fx.db.size(); ++s) {
        EXPECT_FLOAT_EQ(mr.scores[s], ref_msv[s])
            << dev.name << " " << gpu::placement_name(placement) << " seq "
            << s;
        EXPECT_EQ(mr.overflow[s] != 0, ref_ovf[s]);
        EXPECT_FLOAT_EQ(vr.scores[s], ref_vit[s]);
        EXPECT_FLOAT_EQ(pr.scores[s], ref_vit[s]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CrossEngine,
    ::testing::Combine(::testing::Values(2, 31, 33, 130),
                       ::testing::Values(1u, 2u)));

}  // namespace
