#include "cpu/vit_filter.hpp"

#include "cpu/vit_wide.hpp"
#include "util/error.hpp"

namespace finehmm::cpu {

SharedVitStripes make_shared_vit_stripes(const profile::VitProfile& prof,
                                         int lanes) {
  SharedVitStripes out;
  out.lanes = lanes;
  switch (lanes) {
    case 8:
      out.view = backend::vit_native_view(prof);
      return out;
    case 16: {
      auto wide = std::make_shared<const WideVitStripes<16>>(prof);
      out.view = wide->view();
      out.owner = std::move(wide);
      return out;
    }
    case 32: {
      auto wide = std::make_shared<const WideVitStripes<32>>(prof);
      out.view = wide->view();
      out.owner = std::move(wide);
      return out;
    }
    default:
      throw Error("unsupported Viterbi word lane count");
  }
}

VitFilter::VitFilter(const profile::VitProfile& prof, SimdTier tier)
    : VitFilter(prof, tier, SharedVitStripes{}) {}

VitFilter::VitFilter(const profile::VitProfile& prof, SimdTier tier,
                     SharedVitStripes wide)
    : prof_(prof),
      ops_(&backend::tier_kernels(resolve_simd_tier(tier))),
      wide_(std::move(wide)) {
  if (wide_.view.msc == nullptr)
    wide_ = make_shared_vit_stripes(prof, ops_->i16_lanes);
  FH_REQUIRE(wide_.lanes == ops_->i16_lanes,
             "shared Viterbi stripes built for a different lane count");
  const std::size_t n =
      static_cast<std::size_t>(wide_.view.Q) * wide_.lanes;
  mmx_.assign(n, profile::kWordNegInf);
  imx_.assign(n, profile::kWordNegInf);
  dmx_.assign(n, profile::kWordNegInf);
}

FilterResult VitFilter::score(const std::uint8_t* seq, std::size_t L) {
  return ops_->vit(prof_, wide_.view, seq, L, mmx_.data(), imx_.data(),
                   dmx_.data(), &lazyf_passes_);
}

}  // namespace finehmm::cpu
