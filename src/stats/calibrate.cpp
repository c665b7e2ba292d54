#include "stats/calibrate.hpp"

#include "bio/synthetic.hpp"
#include "cpu/generic.hpp"
#include "pipeline/batch_scanner.hpp"
#include "util/error.hpp"

namespace finehmm::stats {

ModelStats calibrate(const hmm::SearchProfile& prof,
                     const profile::MsvProfile& msv,
                     const profile::VitProfile& vit,
                     const CalibrateOptions& opts) {
  FH_REQUIRE(opts.n_samples >= 10, "need at least 10 calibration samples");
  FH_REQUIRE(opts.sample_length >= 10, "calibration length too short");
  Pcg32 rng(opts.seed);
  const int L = opts.sample_length;

  std::vector<double> ssv_bits, msv_bits, vit_bits, fwd_bits;
  ssv_bits.reserve(opts.n_samples);
  msv_bits.reserve(opts.n_samples);
  vit_bits.reserve(opts.n_samples);
  if (opts.with_forward) fwd_bits.reserve(opts.n_samples);

  // One 1-worker scanner at the active tier scores all three byte/word
  // filters; SSV/MSV/Viterbi are bit-exact at every tier, so the fitted
  // statistics do not depend on which tier ran.
  pipeline::BatchScanner scanner(msv, vit);

  for (int i = 0; i < opts.n_samples; ++i) {
    auto seq = bio::random_sequence(L, rng);
    auto m = scanner.msv(0, seq.codes.data(), L);
    // Random sequences should never overflow the byte filter; if one does,
    // cap at the overflow ceiling rather than +inf to keep the fit finite.
    double mb = m.overflowed
                    ? hmm::nats_to_bits(
                          (255.0f - msv.bias() - msv.base()) / msv.scale(), L)
                    : hmm::nats_to_bits(m.score_nats, L);
    msv_bits.push_back(mb);

    auto sv = scanner.ssv(0, seq.codes.data(), L);
    double sb = sv.overflowed
                    ? hmm::nats_to_bits(
                          (255.0f - msv.bias() - msv.base()) / msv.scale(), L)
                    : hmm::nats_to_bits(sv.score_nats, L);
    ssv_bits.push_back(sb);

    auto v = scanner.vit(0, seq.codes.data(), L);
    vit_bits.push_back(hmm::nats_to_bits(v.score_nats, L));

    if (opts.with_forward) {
      float f = cpu::generic_forward(prof, seq.codes.data(), L);
      fwd_bits.push_back(hmm::nats_to_bits(f, L));
    }
  }

  ModelStats out;
  out.ssv = Gumbel::fit_mu_given_lambda(ssv_bits);
  out.msv = Gumbel::fit_mu_given_lambda(msv_bits);
  out.vit = Gumbel::fit_mu_given_lambda(vit_bits);
  if (opts.with_forward)
    out.fwd = ExponentialTail::fit_tail(fwd_bits, opts.fwd_tail_mass);
  return out;
}

}  // namespace finehmm::stats
