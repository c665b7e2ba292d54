#include "cpu/vit_filter.hpp"

namespace finehmm::cpu {

VitFilter::VitFilter(const profile::VitProfile& prof, SimdTier tier)
    : VitFilter(prof, tier, nullptr) {}

VitFilter::VitFilter(const profile::VitProfile& prof, SimdTier tier,
                     std::shared_ptr<const VitStripes> stripes)
    : prof_(prof),
      ops_(&backend::tier_kernels(resolve_simd_tier(tier))),
      stripes_(stripes_for(prof, ops_->i16_lanes, std::move(stripes))),
      view_(stripes_->view()) {
  const std::size_t n =
      static_cast<std::size_t>(stripes_->segments()) * stripes_->lanes();
  mmx_.assign(n, profile::kWordNegInf);
  imx_.assign(n, profile::kWordNegInf);
  dmx_.assign(n, profile::kWordNegInf);
}

FilterResult VitFilter::score(const std::uint8_t* seq, std::size_t L) {
  return ops_->vit(prof_, view_, seq, L, mmx_.data(), imx_.data(),
                   dmx_.data(), &lazyf_passes_);
}

}  // namespace finehmm::cpu
