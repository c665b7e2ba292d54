#include "cpu/fwd_filter.hpp"

#include <algorithm>
#include <cmath>

#include "cpu/simd_backend/denormals.hpp"
#include "cpu/simd_backend/kernels.hpp"

namespace finehmm::cpu {

FwdFilter::FwdFilter(const profile::FwdProfile& prof, SimdTier tier)
    : FwdFilter(prof, tier, nullptr) {}

FwdFilter::FwdFilter(const profile::FwdProfile& prof, SimdTier tier,
                     std::shared_ptr<const FwdStripes> stripes)
    : prof_(prof),
      ops_(&backend::tier_kernels(resolve_simd_tier(tier))),
      stripes_(stripes_for(prof, ops_->f32_lanes, std::move(stripes))) {
  mmx_.assign(stripes_->row_floats(), 0.0f);
  imx_.assign(stripes_->row_floats(), 0.0f);
  dmx_.assign(stripes_->row_floats(), 0.0f);
}

float FwdFilter::score(const std::uint8_t* seq, std::size_t L) {
  backend::ScopedFlushDenormals ftz;
  return ops_->fwd(prof_, stripes_->view(), seq, L, mmx_.data(),
                   imx_.data(), dmx_.data());
}

void FwdFilter::grow_decode_workspace(std::size_t L) {
  const int block =
      static_cast<int>(std::ceil(std::sqrt(static_cast<double>(L))));
  const int n_blocks =
      static_cast<int>((L + static_cast<std::size_t>(block) - 1) /
                       static_cast<std::size_t>(block));
  block_ = block;
  n_blocks_ = n_blocks;
  const std::size_t n = stripes_->row_floats();
  const std::size_t snap_need = static_cast<std::size_t>(n_blocks) * 3 * n;
  const std::size_t blk_need = static_cast<std::size_t>(block) * n;
  if (snap_.size() < snap_need) snap_.resize(snap_need);
  if (blk_m_.size() < blk_need) {
    blk_m_.resize(blk_need);
    blk_i_.resize(blk_need);
  }
  if (bwd_.size() < 4 * n) bwd_.resize(4 * n);
  if (decode_rows_ < L) {
    row_xb_.resize(L + 1);
    row_inv_.resize(L + 1);
    row_scale_.resize(L + 1);
    decode_rows_ = L;
  }
}

float FwdFilter::decode(const std::uint8_t* seq, std::size_t L,
                        std::vector<float>& mocc) {
  grow_decode_workspace(L);
  if (mocc.size() < L) mocc.resize(L);
  const std::size_t n = stripes_->row_floats();
  simd_kernels::FwdBwdScratch ws;
  ws.mmx = mmx_.data();
  ws.imx = imx_.data();
  ws.dmx = dmx_.data();
  ws.snap = snap_.data();
  ws.blk_m = blk_m_.data();
  ws.blk_i = blk_i_.data();
  ws.row_xb = row_xb_.data();
  ws.row_inv = row_inv_.data();
  ws.row_scale = row_scale_.data();
  ws.bwd_m = bwd_.data();
  ws.bwd_i = bwd_.data() + n;
  ws.bwd_d = bwd_.data() + 2 * n;
  ws.bwd_on = bwd_.data() + 3 * n;
  ws.block = block_;
  ws.n_blocks = n_blocks_;
  backend::ScopedFlushDenormals ftz;
  return ops_->fwd_bwd(prof_, stripes_->view(), seq, L, ws, mocc.data());
}

}  // namespace finehmm::cpu
