#include "profile/msv_profile.hpp"

#include <cmath>

#include "util/error.hpp"

namespace finehmm::profile {

namespace {

/// Cost representation of a (negative) score: round(-scale * sc), clamped.
std::uint8_t unbiased_byteify(float scale, float sc) {
  if (sc == kNegInf) return 255;
  float c = std::round(-scale * sc);
  if (c < 0.0f) c = 0.0f;
  if (c > 255.0f) c = 255.0f;
  return static_cast<std::uint8_t>(c);
}

/// Biased cost for emission scores (positive scores dip below the bias).
std::uint8_t biased_byteify(float scale, std::uint8_t bias, float sc) {
  if (sc == kNegInf) return 255;
  float c = std::round(-scale * sc) + static_cast<float>(bias);
  if (c < 0.0f) c = 0.0f;
  if (c > 255.0f) c = 255.0f;
  return static_cast<std::uint8_t>(c);
}

}  // namespace

MsvProfile::MsvProfile(const hmm::SearchProfile& prof)
    : M_(prof.length()),
      Mpad_((prof.length() + 31) / 32 * 32) {
  FH_REQUIRE(hmm::is_local(prof.mode()),
             "vectorized filters are local-mode only (as in HMMER)");
  scale_ = 3.0f / static_cast<float>(M_LN2);  // 1/3-bit units per nat
  // The bias must cover the most POSITIVE emission score so that biased
  // costs are non-negative; scores far below -(255-bias)/scale simply clip
  // to cost 255 (effectively -inf), which is harmless for a max filter.
  bias_ = unbiased_byteify(scale_, -prof.max_emission_score());
  float entry = std::log(2.0f / (static_cast<float>(M_) *
                                 (static_cast<float>(M_) + 1.0f)));
  tbm_ = unbiased_byteify(scale_, entry);
  tec_ = unbiased_byteify(scale_, std::log(0.5f));

  linear_.assign(static_cast<std::size_t>(bio::kKp) * Mpad_, 255);
  for (int x = 0; x < bio::kKp; ++x)
    for (int k = 1; k <= M_; ++k)
      linear_[static_cast<std::size_t>(x) * Mpad_ + (k - 1)] =
          biased_byteify(scale_, bias_, prof.msc(k, x));
  reconfig_length(prof.target_length());
}

std::uint8_t MsvProfile::tjb_for(int L) const {
  FH_REQUIRE(L >= 1, "target length must be >= 1");
  float lf = static_cast<float>(L);
  return unbiased_byteify(scale_, std::log(3.0f / (lf + 3.0f)));
}

void MsvProfile::reconfig_length(int L) {
  L_ = L;
  tjb_ = tjb_for(L);
}

}  // namespace finehmm::profile
