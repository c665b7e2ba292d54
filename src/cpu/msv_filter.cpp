#include "cpu/msv_filter.hpp"

#include "cpu/stripes.hpp"
#include "util/error.hpp"

namespace finehmm::cpu {

MsvFilter::MsvFilter(const profile::MsvProfile& prof, SimdTier tier)
    : MsvFilter(prof, tier, nullptr) {}

MsvFilter::MsvFilter(const profile::MsvProfile& prof, SimdTier tier,
                     std::shared_ptr<const FusedMsvGroup> group)
    : group_(stripes_for(
          prof, backend::tier_kernels(resolve_simd_tier(tier)).u8_lanes,
          std::move(group))),
      fused_(*group_, tier) {
  FH_REQUIRE(group_->size() == 1 && &group_->member(0) == &prof,
             "a shared MSV group must hold this model alone");
}

FilterResult MsvFilter::score(const std::uint8_t* seq, std::size_t L) {
  FilterResult r;
  fused_.msv(seq, L, &r);
  return r;
}

FilterResult MsvFilter::score(bio::PackedResidues seq, std::size_t L) {
  FilterResult r;
  fused_.msv(seq, L, &r);
  return r;
}

FilterResult MsvFilter::ssv(const std::uint8_t* seq, std::size_t L) {
  FilterResult r;
  fused_.ssv(seq, L, &r);
  return r;
}

FilterResult MsvFilter::ssv(bio::PackedResidues seq, std::size_t L) {
  FilterResult r;
  fused_.ssv(seq, L, &r);
  return r;
}

}  // namespace finehmm::cpu
