// Tier-differential tests of the exact row kernels
// (cpu/simd_backend/row_kernels.hpp) behind generic_forward and the
// workspace viterbi_trace.  On every supported tier the kernels must
// match the scalar loops bit for bit, not within a tolerance:
//   * Forward score bits against generic_forward_scalar;
//   * trace score bits, step list and every packed backpointer byte
//     against viterbi_trace_scalar;
// over M in {1, lanes-1, lanes, lanes+1, 200, 400} (the row's vector
// tail at every offset), L = 1, local and glocal/unihit profiles (whose
// J and wing transitions are -inf), homologs and random sequences, and a
// model of duplicated columns that forces argmax ties.  The callers that
// pick the kernels up — stats::calibrate and define_domains — must give
// exactly what the scalar oracles give.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <vector>

#include "bio/synthetic.hpp"
#include "cpu/checkpoint.hpp"
#include "cpu/generic.hpp"
#include "cpu/posterior.hpp"
#include "cpu/simd_backend/backend.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "cpu/trace.hpp"
#include "hmm/generator.hpp"
#include "hmm/sampler.hpp"
#include "stats/calibrate.hpp"

namespace {

using namespace finehmm;
using cpu::SimdTier;

std::uint32_t bits_of(float x) { return std::bit_cast<std::uint32_t>(x); }

/// Forces one tier for the enclosing scope.
struct TierScope {
  explicit TierScope(SimdTier t) { cpu::set_simd_tier(t); }
  ~TierScope() { cpu::reset_simd_tier(); }
  TierScope(const TierScope&) = delete;
  TierScope& operator=(const TierScope&) = delete;
};

hmm::Plan7Hmm random_model(int M, std::uint64_t seed) {
  hmm::RandomHmmSpec spec;
  spec.length = M;
  spec.seed = seed;
  return hmm::generate_hmm(spec);
}

/// Every column a copy of column 1: equal candidates across k and
/// across predecessors, so the strict-greater and first-k rules decide.
hmm::Plan7Hmm duplicated_columns(int M) {
  hmm::Plan7Hmm model = random_model(M, 77);
  for (int k = 2; k <= M; ++k) {
    for (int a = 0; a < bio::kK; ++a) {
      model.mat(k, a) = model.mat(1, a);
      model.ins(k, a) = model.ins(1, a);
    }
    if (k < M)
      for (int t = 0; t < hmm::kNTransitions; ++t)
        model.tr(k, static_cast<hmm::Plan7Transition>(t)) =
            model.tr(1, static_cast<hmm::Plan7Transition>(t));
  }
  return model;
}

std::vector<bio::Sequence> sequences_for(const hmm::Plan7Hmm& model,
                                         std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<bio::Sequence> out;
  out.push_back(bio::random_sequence(1, rng));
  out.push_back(bio::random_sequence(2, rng));
  out.push_back(hmm::sample_homolog(model, rng));
  out.push_back(hmm::sample_homolog(model, rng));
  out.push_back(bio::random_sequence(40 + rng.below(200), rng));
  bio::Sequence poly;  // a homopolymer: ties everywhere on copied columns
  poly.name = "poly";
  poly.codes.assign(37, out[2].codes.empty() ? 0 : out[2].codes[0]);
  out.push_back(poly);
  return out;
}

std::vector<int> model_lengths(SimdTier tier) {
  const int lanes = cpu::backend::tier_kernels(tier).f32_lanes;
  const std::set<int> ms = {1, lanes - 1, lanes, lanes + 1, 200, 400};
  std::vector<int> out;
  for (int m : ms)
    if (m >= 1) out.push_back(m);
  return out;
}

const hmm::AlignMode kModes[] = {hmm::AlignMode::kLocalMultihit,
                                 hmm::AlignMode::kGlocalUnihit};

void expect_kernels_match_scalar(const hmm::Plan7Hmm& model,
                                 hmm::AlignMode mode,
                                 const std::vector<bio::Sequence>& seqs,
                                 const std::string& what) {
  const hmm::SearchProfile prof(model, mode, 400);
  cpu::TraceWorkspace kernel_ws, scalar_ws;
  for (std::size_t n = 0; n < seqs.size(); ++n) {
    const std::uint8_t* seq = seqs[n].codes.data();
    const std::size_t L = seqs[n].length();
    SCOPED_TRACE(what + " seq=" + std::to_string(n) +
                 " L=" + std::to_string(L));

    EXPECT_EQ(bits_of(cpu::generic_forward(prof, seq, L)),
              bits_of(cpu::generic_forward_scalar(prof, seq, L)));

    const cpu::ViterbiTrace got = cpu::viterbi_trace(prof, seq, L, kernel_ws);
    const cpu::ViterbiTrace want =
        cpu::viterbi_trace_scalar(prof, seq, L, scalar_ws);
    EXPECT_EQ(bits_of(got.score), bits_of(want.score));
    ASSERT_EQ(got.steps.size(), want.steps.size());
    for (std::size_t s = 0; s < want.steps.size(); ++s) {
      ASSERT_EQ(got.steps[s].state, want.steps[s].state) << "step " << s;
      ASSERT_EQ(got.steps[s].k, want.steps[s].k) << "step " << s;
      ASSERT_EQ(got.steps[s].i, want.steps[s].i) << "step " << s;
    }
    const int M = prof.length();
    for (std::size_t i = 1; i <= L; ++i)
      for (int k = 1; k <= M; ++k)
        ASSERT_EQ(kernel_ws.packed_row(i)[k], scalar_ws.packed_row(i)[k])
            << "backpointer i=" << i << " k=" << k;
  }
}

class RowKernelTiers : public ::testing::TestWithParam<SimdTier> {
 protected:
  void SetUp() override {
    if (!cpu::simd_tier_supported(GetParam()))
      GTEST_SKIP() << cpu::simd_tier_name(GetParam()) << " not supported";
  }
};

TEST_P(RowKernelTiers, ForwardAndTraceMatchScalarLoops) {
  const TierScope scope(GetParam());
  for (int M : model_lengths(GetParam())) {
    const hmm::Plan7Hmm model = random_model(M, 100 + M);
    const auto seqs = sequences_for(model, 7 + M);
    for (hmm::AlignMode mode : kModes)
      expect_kernels_match_scalar(
          model, mode, seqs,
          "M=" + std::to_string(M) + (hmm::is_local(mode) ? " local"
                                                           : " glocal"));
  }
}

TEST_P(RowKernelTiers, ArgmaxTiesResolveLikeScalarLoop) {
  const TierScope scope(GetParam());
  for (int M : model_lengths(GetParam())) {
    if (M < 2) continue;
    const hmm::Plan7Hmm model = duplicated_columns(M);
    const auto seqs = sequences_for(model, 3 + M);
    for (hmm::AlignMode mode : kModes)
      expect_kernels_match_scalar(model, mode, seqs,
                                  "dup M=" + std::to_string(M));
  }
}

TEST_P(RowKernelTiers, CalibrationIsBitIdenticalToScalarForward) {
  const hmm::Plan7Hmm model = random_model(90, 5);
  const hmm::SearchProfile prof(model, hmm::AlignMode::kLocalMultihit, 400);
  const profile::MsvProfile msv(prof);
  const profile::VitProfile vit(prof);
  stats::CalibrateOptions opts;
  opts.n_samples = 60;

  // The Forward fit as calibrate() makes it, with the scalar loop.
  Pcg32 rng(opts.seed);
  std::vector<double> fwd_bits;
  for (int i = 0; i < opts.n_samples; ++i) {
    const auto seq = bio::random_sequence(opts.sample_length, rng);
    fwd_bits.push_back(hmm::nats_to_bits(
        cpu::generic_forward_scalar(prof, seq.codes.data(), seq.length()),
        opts.sample_length));
  }
  const auto want_fwd =
      stats::ExponentialTail::fit_tail(fwd_bits, opts.fwd_tail_mass);

  stats::ModelStats portable;
  {
    const TierScope scope(SimdTier::kPortable);
    portable = stats::calibrate(prof, msv, vit, opts);
  }
  const TierScope scope(GetParam());
  const stats::ModelStats got = stats::calibrate(prof, msv, vit, opts);
  EXPECT_EQ(got.fwd.mu, want_fwd.mu);
  EXPECT_EQ(got.fwd.lambda, want_fwd.lambda);
  for (const auto& [g, p] : {std::pair{got.ssv, portable.ssv},
                             std::pair{got.msv, portable.msv},
                             std::pair{got.vit, portable.vit}}) {
    EXPECT_EQ(g.mu, p.mu);
    EXPECT_EQ(g.lambda, p.lambda);
  }
}

/// define_domains with the scalar loops: same envelope rule, each
/// envelope rescored by generic_forward_scalar and aligned by the
/// reference viterbi_trace.
std::vector<cpu::Domain> oracle_domains(const hmm::SearchProfile& prof,
                                        const std::uint8_t* seq,
                                        std::size_t L) {
  const cpu::DomainDefOptions opts;
  const auto ck = cpu::model_occupancy_checkpointed(prof, seq, L);
  const std::vector<float>& mocc = ck.mocc;
  std::vector<cpu::Domain> out;
  for (std::size_t i = 0; i < L;) {
    if (mocc[i] < opts.rt1) {
      ++i;
      continue;
    }
    std::size_t lo = i, hi = i;
    while (lo > 0 && mocc[lo - 1] >= opts.rt2) --lo;
    while (hi + 1 < L && mocc[hi + 1] >= opts.rt2) ++hi;
    cpu::Domain d;
    d.i_start = lo + 1;
    d.i_end = hi + 1;
    const std::size_t len = hi - lo + 1;
    d.bits = hmm::nats_to_bits(
        cpu::generic_forward_scalar(prof, seq + lo, len),
        static_cast<int>(len));
    d.alignments = cpu::trace_alignments(
        cpu::viterbi_trace(prof, seq + lo, len), prof, seq + lo);
    for (auto& a : d.alignments) {
      a.i_start += lo;
      a.i_end += lo;
    }
    out.push_back(std::move(d));
    i = hi + 1;
  }
  return out;
}

TEST_P(RowKernelTiers, DefineDomainsMatchesScalarOraclePath) {
  const hmm::Plan7Hmm model = random_model(120, 9);
  const hmm::SearchProfile prof(model, hmm::AlignMode::kLocalMultihit, 400);
  Pcg32 rng(41);
  // Two planted homologs between random flanks.
  std::vector<std::uint8_t> seq;
  for (int part = 0; part < 5; ++part) {
    const bio::Sequence piece = part % 2 == 1
                                    ? hmm::sample_homolog(model, rng)
                                    : bio::random_sequence(60, rng);
    seq.insert(seq.end(), piece.codes.begin(), piece.codes.end());
  }
  const auto want = oracle_domains(prof, seq.data(), seq.size());
  ASSERT_GE(want.size(), 1u);

  const TierScope scope(GetParam());
  const auto got = cpu::define_domains(prof, seq.data(), seq.size());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t d = 0; d < want.size(); ++d) {
    SCOPED_TRACE(d);
    EXPECT_EQ(got[d].i_start, want[d].i_start);
    EXPECT_EQ(got[d].i_end, want[d].i_end);
    EXPECT_EQ(bits_of(got[d].bits), bits_of(want[d].bits));
    ASSERT_EQ(got[d].alignments.size(), want[d].alignments.size());
    for (std::size_t a = 0; a < want[d].alignments.size(); ++a) {
      const cpu::Alignment& g = got[d].alignments[a];
      const cpu::Alignment& w = want[d].alignments[a];
      EXPECT_EQ(g.k_start, w.k_start);
      EXPECT_EQ(g.k_end, w.k_end);
      EXPECT_EQ(g.i_start, w.i_start);
      EXPECT_EQ(g.i_end, w.i_end);
      EXPECT_EQ(g.model_line, w.model_line);
      EXPECT_EQ(g.match_line, w.match_line);
      EXPECT_EQ(g.seq_line, w.seq_line);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, RowKernelTiers,
    ::testing::Values(SimdTier::kPortable, SimdTier::kSse2, SimdTier::kAvx2,
                      SimdTier::kAvx512),
    [](const ::testing::TestParamInfo<SimdTier>& tier) {
      return std::string(cpu::simd_tier_name(tier.param));
    });

}  // namespace
