#include "gpu/ssv_kernel.hpp"

#include <limits>

#include "util/error.hpp"

namespace finehmm::gpu {

using simt::kWarpSize;
using simt::WarpContext;
using simt::WarpReg;

SsvWarpKernel::SsvWarpKernel(const profile::MsvProfile& prof,
                             const bio::PackedDatabase& db,
                             ParamPlacement placement, MsvSmemLayout layout,
                             std::vector<float>* out_scores,
                             std::vector<std::uint8_t>* out_overflow,
                             const std::vector<std::size_t>* items)
    : prof_(prof),
      db_(db),
      placement_(placement),
      layout_(layout),
      out_scores_(out_scores),
      out_overflow_(out_overflow),
      items_(items) {
  FH_REQUIRE(layout_.mpad == prof.padded_length(), "layout/profile mismatch");
  FH_REQUIRE(out_scores_ != nullptr, "output vector required");
}

void SsvWarpKernel::stage_params(WarpContext& ctx) const {
  if (placement_ != ParamPlacement::kShared) return;
  const int mpad = layout_.mpad;
  for (int x = 0; x < bio::kKp; ++x) {
    const std::uint8_t* row = prof_.linear_row(x);
    for (int p0 = 0; p0 < mpad; p0 += kWarpSize) {
      auto v = ctx.gmem_read_seq(row, p0, kWarpSize);
      ctx.smem_write_seq<std::uint8_t>(layout_.param_row_offset(x), p0, v);
    }
  }
}

void SsvWarpKernel::operator()(WarpContext& ctx, std::size_t item) const {
  const std::size_t seq = items_ ? (*items_)[item] : item;
  const int mpad = layout_.mpad;
  const std::uint32_t L = db_.length(seq);
  const std::size_t row_base = layout_.row_offset(ctx.warp_slot());

  const std::uint8_t bias = prof_.bias();
  const std::uint8_t tec = prof_.tec();
  const std::uint8_t tjb = prof_.tjb_for(static_cast<int>(L));
  std::uint8_t xb = prof_.base() > tjb ? std::uint8_t(prof_.base() - tjb) : 0;
  xb = xb > prof_.tbm() ? std::uint8_t(xb - prof_.tbm()) : 0;
  const WarpReg<std::uint8_t> xBv = ctx.splat<std::uint8_t>(xb);
  const WarpReg<std::uint8_t> biasv = ctx.splat<std::uint8_t>(bias);
  const WarpReg<std::uint8_t> zerov = ctx.splat<std::uint8_t>(0);

  for (int e = 0;; e += kWarpSize) {
    int start = e + kWarpSize <= mpad + 1 ? e : mpad + 1 - kWarpSize;
    if (start < 0) start = 0;
    ctx.smem_write_seq<std::uint8_t>(row_base, start, zerov);
    if (start != e) break;
  }

  const std::uint32_t* words = db_.words(seq);
  std::uint32_t packed = 0;
  bool overflowed = false;
  WarpReg<std::uint8_t> xEv = zerov;

  for (std::uint32_t i = 0; i < L; ++i) {
    std::uint32_t sub = i % bio::kResiduesPerWord;
    if (sub == 0) packed = ctx.gmem_read_scalar(&words[i / 6]);
    std::uint8_t res = static_cast<std::uint8_t>(
        (packed >> (sub * bio::kBitsPerResidue)) & bio::kResidueMask);
    ctx.tick_alu(2);

    WarpReg<std::uint8_t> mmx =
        ctx.smem_read_seq<std::uint8_t>(row_base, 0);
    for (int p0 = 0; p0 < mpad; p0 += kWarpSize) {
      WarpReg<std::uint8_t> cost;
      if (placement_ == ParamPlacement::kShared) {
        cost = ctx.smem_read_seq<std::uint8_t>(layout_.param_row_offset(res),
                                               p0);
      } else {
        cost = ctx.gmem_read_param(prof_.linear_row(res), p0);
      }
      WarpReg<std::uint8_t> temp = ctx.max_u8(mmx, xBv);
      temp = ctx.adds_u8(temp, biasv);
      temp = ctx.subs_u8(temp, cost);
      xEv = ctx.max_u8(xEv, temp);
      if (p0 + kWarpSize < mpad)
        mmx = ctx.smem_read_seq<std::uint8_t>(row_base, p0 + kWarpSize);
      ctx.smem_write_seq<std::uint8_t>(row_base, p0 + 1, temp);
    }
    // Only the overflow check needs the row maximum (no J feedback).
    std::uint8_t xE = ctx.reduce_max(xEv);
    ctx.tick_alu(1);
    ctx.counters().residues += 1;
    ctx.counters().cells += static_cast<std::uint64_t>(prof_.length());
    if (prof_.overflowed(xE)) {
      // The score is settled: stop scanning, as MsvWarpKernel does.
      overflowed = true;
      break;
    }
  }

  float score;
  if (overflowed) {
    score = std::numeric_limits<float>::infinity();
  } else {
    std::uint8_t xE = ctx.reduce_max(xEv);
    std::uint8_t xJ = xE > tec ? std::uint8_t(xE - tec) : 0;
    score = prof_.score_from_bytes(xJ, static_cast<int>(L));
    ctx.tick_alu(2);
  }
  (*out_scores_)[item] = score;
  if (out_overflow_) (*out_overflow_)[item] = overflowed ? 1 : 0;
  ctx.counters().gmem_transactions += 1;
  ctx.counters().gmem_bytes += 32;
}

}  // namespace finehmm::gpu
