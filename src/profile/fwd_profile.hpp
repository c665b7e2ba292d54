// Probability-space profile for the float Forward filter.
//
// The Forward stage sums over all alignments, so it runs in probability
// (odds-ratio) space rather than log space: emissions are odds
// exp(msc) = mat/bg, transitions are plain probabilities, and underflow
// over long targets is handled by the filter's per-row rescaling (the
// profile just supplies the numbers).  Parameters are kept in model
// position order, "in"-indexed D arrays targeting position k; the SIMD
// filters re-stripe them once per (model, tier) for their float lane
// count (cpu/stripes.hpp).
#pragma once

#include <cmath>

#include "hmm/profile.hpp"
#include "util/aligned.hpp"

namespace finehmm::profile {

class FwdProfile {
 public:
  FwdProfile() = default;
  explicit FwdProfile(const hmm::SearchProfile& prof);

  int length() const noexcept { return M_; }

  /// Uniform local entry probability 2/(M(M+1)).
  float entry() const noexcept { return entry_; }

  // Per-position parameters, 1-based k (1 <= k <= length()).
  float odds_at(int x, int k) const {
    return odds_[static_cast<std::size_t>(x) * M_ + (k - 1)];
  }
  float tmm_at(int k) const { return tmm_[k - 1]; }
  float tim_at(int k) const { return tim_[k - 1]; }
  float tdm_at(int k) const { return tdm_[k - 1]; }
  float tmi_at(int k) const { return tmi_[k - 1]; }
  float tii_at(int k) const { return tii_[k - 1]; }
  float tmd_in_at(int k) const { return tmd_in_[k - 1]; }
  float tdd_in_at(int k) const { return tdd_in_[k - 1]; }

  /// Length-model probabilities for one target length.
  struct LengthModel {
    float loop;    // N/C/J self loop
    float move;    // N->B, J->B, C->T
    float e_c;     // E->C
    float e_j;     // E->J
  };
  LengthModel length_model_for(int L) const;

 private:
  int M_ = 0;
  float entry_ = 0.0f;
  aligned_vector<float> odds_;  // Kp x M
  aligned_vector<float> tmm_, tim_, tdm_, tmi_, tii_;  // M each
  aligned_vector<float> tmd_in_, tdd_in_;              // M each
};

}  // namespace finehmm::profile
