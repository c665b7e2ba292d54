#include "cpu/msv_filter.hpp"

namespace finehmm::cpu {

MsvFilter::MsvFilter(const profile::MsvProfile& prof, SimdTier tier)
    : MsvFilter(prof, tier, nullptr) {}

MsvFilter::MsvFilter(const profile::MsvProfile& prof, SimdTier tier,
                     std::shared_ptr<const MsvStripes> stripes)
    : prof_(prof),
      ops_(&backend::tier_kernels(resolve_simd_tier(tier))),
      stripes_(stripes_for(prof, ops_->u8_lanes, std::move(stripes))) {
  row_.assign(static_cast<std::size_t>(stripes_->segments()) *
                  stripes_->lanes(),
              0);
}

FilterResult MsvFilter::score(const std::uint8_t* seq, std::size_t L) {
  return ops_->msv(prof_, stripes_->row(0), stripes_->segments(), seq, L,
                   row_.data());
}

FilterResult MsvFilter::score(bio::PackedResidues seq, std::size_t L) {
  return ops_->msv_packed(prof_, stripes_->row(0), stripes_->segments(),
                          seq, L, row_.data());
}

FilterResult MsvFilter::ssv(const std::uint8_t* seq, std::size_t L) {
  return ops_->ssv(prof_, stripes_->row(0), stripes_->segments(), seq, L,
                   row_.data());
}

FilterResult MsvFilter::ssv(bio::PackedResidues seq, std::size_t L) {
  return ops_->ssv_packed(prof_, stripes_->row(0), stripes_->segments(),
                          seq, L, row_.data());
}

}  // namespace finehmm::cpu
