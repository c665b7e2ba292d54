#include "hmm/profile.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace finehmm::hmm {

namespace {

float safe_log(float p) { return p > 0.0f ? std::log(p) : kNegInf; }

}  // namespace

SearchProfile::SearchProfile(const Plan7Hmm& hmm, AlignMode mode, int L)
    : M_(hmm.length()), mode_(mode), name_(hmm.name()) {
  FH_REQUIRE(M_ >= 1, "profile needs a non-empty model");
  const auto& bg = bio::background_frequencies();

  stride_ = static_cast<std::size_t>(M_) + 1 + kRowPad;
  auto msc = [this](int k, int x) -> float& {
    return msc_[static_cast<std::size_t>(x) * stride_ + k];
  };
  auto tsc = [this](int k, ProfileTransition t) -> float& {
    return tsc_[static_cast<std::size_t>(t) * stride_ + k];
  };

  // --- Match emission log-odds, expanded over the full alphabet. ---
  msc_.assign(static_cast<std::size_t>(bio::kKp) * stride_, kNegInf);
  min_msc_ = 0.0f;
  max_msc_ = kNegInf;
  for (int k = 1; k <= M_; ++k) {
    for (int a = 0; a < bio::kK; ++a) {
      const float sc = safe_log(hmm.mat(k, a) / bg[a]);
      msc(k, a) = sc;
      if (sc != kNegInf && sc < min_msc_) min_msc_ = sc;
      if (sc > max_msc_) max_msc_ = sc;
    }
    // Degenerate codes score the background-weighted average of their
    // expansion's scores (matches HMMER's esl_abc average-score rule).
    for (int x = bio::kK; x < 26; ++x) {
      const auto& exp = bio::expansion(static_cast<std::uint8_t>(x));
      double wsum = 0.0, ssum = 0.0;
      for (auto a : exp) {
        if (msc(k, a) == kNegInf) continue;
        wsum += bg[a];
        ssum += bg[a] * msc(k, a);
      }
      msc(k, x) = wsum > 0.0 ? static_cast<float>(ssum / wsum) : kNegInf;
    }
    // Gap / special codes (x >= 26) are unalignable: left at -inf.
  }

  // --- Core transitions (log probabilities). ---
  tsc_.assign(static_cast<std::size_t>(kNProfileTransitions) * stride_,
              kNegInf);
  for (int k = 0; k < M_; ++k) {
    tsc(k, kPTMM) = safe_log(hmm.tr(k, kTMM));
    tsc(k, kPTIM) = safe_log(hmm.tr(k, kTIM));
    tsc(k, kPTDM) = safe_log(hmm.tr(k, kTDM));
    tsc(k, kPTMD) = safe_log(hmm.tr(k, kTMD));
    tsc(k, kPTDD) = safe_log(hmm.tr(k, kTDD));
    tsc(k, kPTMI) = safe_log(hmm.tr(k, kTMI));
    tsc(k, kPTII) = safe_log(hmm.tr(k, kTII));
  }
  // Node 0 has no delete state to leave from.
  tsc(0, kPTDM) = kNegInf;
  tsc(0, kPTDD) = kNegInf;

  // --- Entry and exit distributions ---
  esc_.assign(stride_, kNegInf);
  std::fill(esc_.begin(), esc_.begin() + M_ + 1, 0.0f);
  if (is_local(mode)) {
    // Uniform fragment entry, free local exit.
    float entry = std::log(2.0f / (static_cast<float>(M_) *
                                   (static_cast<float>(M_) + 1.0f)));
    for (int k = 0; k < M_; ++k) tsc(k, kPTBM) = entry;
  } else {
    // Glocal: wing-retracted delete paths.
    //   B -> M_k  =  B->D_1 . D_1->D_2 ... D_{k-1}->M_k
    //   M_k -> E  =  M_k->D_{k+1} . D->D ... (D_M -> E = 1)
    float acc = safe_log(hmm.tr(0, kTMD));  // B -> D_1
    tsc(0, kPTBM) = safe_log(hmm.tr(0, kTMM));  // B -> M_1 directly
    for (int k = 2; k <= M_; ++k) {
      // Entry to M_k: path through D_1..D_{k-1}.
      tsc(k - 1, kPTBM) = acc + safe_log(hmm.tr(k - 1, kTDM));
      acc += safe_log(hmm.tr(k - 1, kTDD));
    }
    esc_[M_] = 0.0f;  // M_M -> E
    float out = 0.0f;  // accumulated D_{k+1} -> ... -> D_M chain
    for (int k = M_ - 1; k >= 1; --k) {
      // Exit from M_k: M_k -> D_{k+1} -> D_{k+2} ... -> D_M -> E.
      esc_[k] = safe_log(hmm.tr(k, kTMD)) + out;
      out += safe_log(hmm.tr(k, kTDD));  // extend the chain by D_k -> D_{k+1}
    }
  }

  reconfig_length(L);
}

SpecialScores SearchProfile::xsc_for(int L) const {
  FH_REQUIRE(L >= 1, "target length must be >= 1");
  SpecialScores xs{};
  float lf = static_cast<float>(L);
  if (is_multihit(mode_)) {
    float ploop = lf / (lf + 3.0f);
    float pmove = 3.0f / (lf + 3.0f);
    xs.n_loop = xs.c_loop = xs.j_loop = std::log(ploop);
    xs.n_move = xs.c_move = xs.j_move = std::log(pmove);
    xs.e_c = xs.e_j = std::log(0.5f);
  } else {
    float ploop = lf / (lf + 2.0f);
    float pmove = 2.0f / (lf + 2.0f);
    xs.n_loop = xs.c_loop = std::log(ploop);
    xs.n_move = xs.c_move = std::log(pmove);
    xs.j_loop = xs.j_move = kNegInf;
    xs.e_c = 0.0f;
    xs.e_j = kNegInf;
  }
  return xs;
}

void SearchProfile::reconfig_length(int L) {
  L_ = L;
  xsc_ = xsc_for(L);
}

float null1_score(int L) {
  float lf = static_cast<float>(L);
  float p1 = lf / (lf + 1.0f);
  return lf * std::log(p1) + std::log(1.0f - p1);
}

float nats_to_bits(float raw_nats, int L) {
  return (raw_nats - null1_score(L)) / static_cast<float>(M_LN2);
}

}  // namespace finehmm::hmm
