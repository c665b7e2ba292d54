#include "profile/vit_profile.hpp"

#include <cmath>

#include "util/error.hpp"

namespace finehmm::profile {

std::int16_t VitProfile::wordify(float sc) const {
  if (sc == kNegInf) return kWordNegInf;
  float w = std::round(scale_ * sc);
  if (w <= static_cast<float>(kWordNegInf)) return kWordNegInf;
  if (w > 32767.0f) return 32767;
  return static_cast<std::int16_t>(w);
}

VitProfile::VitProfile(const hmm::SearchProfile& prof)
    : M_(prof.length()),
      Mpad_((prof.length() + 31) / 32 * 32) {
  FH_REQUIRE(hmm::is_local(prof.mode()),
             "vectorized filters are local-mode only (as in HMMER)");
  scale_ = 500.0f / static_cast<float>(M_LN2);  // 1/500-bit units per nat

  msc_.assign(static_cast<std::size_t>(bio::kKp) * Mpad_, kWordNegInf);
  tmm_.assign(Mpad_, kWordNegInf);
  tim_.assign(Mpad_, kWordNegInf);
  tdm_.assign(Mpad_, kWordNegInf);
  tmi_.assign(Mpad_, kWordNegInf);
  tii_.assign(Mpad_, kWordNegInf);
  tmd_.assign(Mpad_, kWordNegInf);
  tdd_.assign(Mpad_, kWordNegInf);
  tmd_in_.assign(Mpad_, kWordNegInf);
  tdd_in_.assign(Mpad_, kWordNegInf);

  for (int x = 0; x < bio::kKp; ++x)
    for (int k = 1; k <= M_; ++k)
      msc_[static_cast<std::size_t>(x) * Mpad_ + (k - 1)] =
          wordify(prof.msc(k, x));

  entry_ = wordify(prof.tsc(0, hmm::kPTBM));  // uniform over k

  for (int k = 1; k <= M_; ++k) {
    // Incoming into position k: transitions out of node k-1.
    tmm_[k - 1] = wordify(prof.tsc(k - 1, hmm::kPTMM));
    tim_[k - 1] = wordify(prof.tsc(k - 1, hmm::kPTIM));
    tdm_[k - 1] = wordify(prof.tsc(k - 1, hmm::kPTDM));
    if (k < M_) {
      // At node k (inserts exist below M only).
      tmi_[k - 1] = wordify(prof.tsc(k, hmm::kPTMI));
      tii_[k - 1] = wordify(prof.tsc(k, hmm::kPTII));
      // Leaving node k toward D_{k+1}.
      tmd_[k - 1] = wordify(prof.tsc(k, hmm::kPTMD));
      tdd_[k - 1] = wordify(prof.tsc(k, hmm::kPTDD));
    }
    // Target-indexed copies: reaching D_k from node k-1 (k >= 2).
    if (k >= 2) {
      tmd_in_[k - 1] = tmd_[k - 2];
      tdd_in_[k - 1] = tdd_[k - 2];
    }
  }

  // Length-independent specials.
  e_c_ = wordify(prof.xsc().e_c);
  e_j_ = wordify(prof.xsc().e_j);

  reconfig_length(prof.target_length());
}

VitProfile::LengthModel VitProfile::length_model_for(int L) const {
  FH_REQUIRE(L >= 1, "target length must be >= 1");
  float lf = static_cast<float>(L);
  // Multihit length model; the word scale is fine enough to charge loop
  // costs per residue (no -3 nat approximation needed).
  LengthModel lm;
  lm.loop = wordify(std::log(lf / (lf + 3.0f)));
  lm.move = wordify(std::log(3.0f / (lf + 3.0f)));
  return lm;
}

void VitProfile::reconfig_length(int L) {
  L_ = L;
  LengthModel lm = length_model_for(L);
  n_loop_ = c_loop_ = j_loop_ = lm.loop;
  n_move_ = c_move_ = j_move_ = lm.move;
}

}  // namespace finehmm::profile
