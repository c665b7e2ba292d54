#include "cpu/msv_filter.hpp"

#include "cpu/msv_wide.hpp"
#include "util/error.hpp"

namespace finehmm::cpu {

SharedMsvRows make_shared_msv_rows(const profile::MsvProfile& prof,
                                   int lanes) {
  SharedMsvRows out;
  out.lanes = lanes;
  switch (lanes) {
    case 16:
      out.rows = prof.striped_row(0);
      out.Q = prof.striped_segments();
      return out;
    case 32: {
      auto wide = std::make_shared<const WideMsvStripes<32>>(prof);
      out.rows = wide->row(0);
      out.Q = wide->segments();
      out.owner = std::move(wide);
      return out;
    }
    case 64: {
      auto wide = std::make_shared<const WideMsvStripes<64>>(prof);
      out.rows = wide->row(0);
      out.Q = wide->segments();
      out.owner = std::move(wide);
      return out;
    }
    default:
      throw Error("unsupported MSV byte lane count");
  }
}

MsvFilter::MsvFilter(const profile::MsvProfile& prof, SimdTier tier)
    : MsvFilter(prof, tier, SharedMsvRows{}) {}

MsvFilter::MsvFilter(const profile::MsvProfile& prof, SimdTier tier,
                     SharedMsvRows wide)
    : prof_(prof),
      ops_(&backend::tier_kernels(resolve_simd_tier(tier))),
      wide_(std::move(wide)) {
  if (wide_.rows == nullptr)
    wide_ = make_shared_msv_rows(prof, ops_->u8_lanes);
  FH_REQUIRE(wide_.lanes == ops_->u8_lanes,
             "shared MSV rows built for a different lane count");
  row_.assign(static_cast<std::size_t>(wide_.Q) * wide_.lanes, 0);
}

FilterResult MsvFilter::score(const std::uint8_t* seq, std::size_t L) {
  return ops_->msv(prof_, wide_.rows, wide_.Q, seq, L, row_.data());
}

FilterResult MsvFilter::score(bio::PackedResidues seq, std::size_t L) {
  return ops_->msv_packed(prof_, wide_.rows, wide_.Q, seq, L, row_.data());
}

}  // namespace finehmm::cpu
