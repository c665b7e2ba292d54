#include "cpu/msv_group.hpp"

#include <algorithm>
#include <limits>

#include "bio/alphabet.hpp"
#include "util/error.hpp"

namespace finehmm::cpu {

namespace {

/// Q for one model alone: ceil(M / lanes) stripes.
int single_model_segments(int M, int lanes) {
  FH_REQUIRE(lanes >= 1, "lane count must be positive");
  return (M + lanes - 1) / lanes;
}

}  // namespace

FusedMsvGroup::FusedMsvGroup(
    std::vector<const profile::MsvProfile*> members, int lane_width, int Q)
    : members_(std::move(members)), lanes_(lane_width), Q_(Q) {
  using simd_kernels::ByteStage;
  using simd_kernels::byte_trigger;
  FH_REQUIRE(!members_.empty(), "fused group needs at least one model");
  FH_REQUIRE(Q_ >= 1, "fused group needs at least one stripe");
  FH_REQUIRE(lanes_ >= 1 && lanes_ <= 64 && (lanes_ & (lanes_ - 1)) == 0,
             "fused group needs a power-of-two byte lane width up to 64");

  models_.resize(members_.size());
  int lane = 0;
  for (std::size_t m = 0; m < members_.size(); ++m) {
    const profile::MsvProfile& prof = *members_[m];
    const int M = prof.length();
    FH_REQUIRE(M >= 1, "cannot fuse an empty model");
    // One scale means one tjb_for(L) for the whole group (see run()).
    FH_REQUIRE(prof.scale() == members_[0]->scale(),
               "fused members must share the byte score scale");
    // The pad lane only stops a span's shifted-out cell from reaching the
    // next span; the last member has none.
    const bool last = m + 1 == members_.size();
    const int span = last ? (M + Q_ - 1) / Q_ : M / Q_ + 1;
    FH_REQUIRE(span <= lanes_ - lane,
               "fused group overflows its lane budget");
    simd_kernels::MsvGroupModel& md = models_[m];
    md.lane_lo = static_cast<std::uint8_t>(lane);
    md.lanes = static_cast<std::uint8_t>(span);
    md.tbm = prof.tbm();
    md.tec = prof.tec();
    md.base = prof.base();
    md.sat = static_cast<std::uint8_t>(255 - prof.bias());
    lane += span;
  }

  // Cost 255 everywhere a model cell isn't: those cells are forced to
  // zero every row, which is what keeps neighbouring spans independent.
  const std::size_t N = static_cast<std::size_t>(lanes_);
  rows_.assign(static_cast<std::size_t>(bio::kKp) * Q_ * N, 255);
  lane_consts_.assign(5 * N, 0);
  std::uint8_t* bias = lane_consts_.data();
  std::uint8_t* base = bias + N;
  std::uint8_t* tbm = base + N;
  std::uint8_t* trig_msv = tbm + N;
  std::uint8_t* trig_ssv = trig_msv + N;
  std::fill(trig_msv, trig_msv + 2 * N, 255);
  for (std::size_t m = 0; m < members_.size(); ++m) {
    const profile::MsvProfile& prof = *members_[m];
    const simd_kernels::MsvGroupModel& md = models_[m];
    // sat == 0 (bias 255) overflows on row 0: trigger 255, never fires.
    const std::uint8_t cap = static_cast<std::uint8_t>(md.sat - 1);
    for (int j = md.lane_lo; j < md.lane_lo + md.lanes; ++j) {
      bias[j] = prof.bias();
      base[j] = md.base;
      tbm[j] = md.tbm;
      if (md.sat == 0) continue;
      trig_msv[j] = byte_trigger<ByteStage::kMsv>(md.base, md.tec, cap);
      trig_ssv[j] = byte_trigger<ByteStage::kSsv>(md.base, md.tec, cap);
    }
    // Position k = (j - lane_lo) * Q + q + 1 lives at stripe q, lane j.
    for (int x = 0; x < bio::kKp; ++x) {
      const std::uint8_t* lin = prof.linear_row(x);
      std::uint8_t* dst = rows_.data() + static_cast<std::size_t>(x) * Q_ * N;
      for (int k0 = 0, j = md.lane_lo; k0 < prof.length(); k0 += Q_, ++j)
        for (int q = 0; q < Q_ && k0 + q < prof.length(); ++q)
          dst[static_cast<std::size_t>(q) * N + j] = lin[k0 + q];
    }
  }

  view_.rows = rows_.data();
  view_.bias = bias;
  view_.base = base;
  view_.tbm = tbm;
  view_.trig_msv = trig_msv;
  view_.trig_ssv = trig_ssv;
  view_.models = models_.data();
  view_.n_models = static_cast<int>(members_.size());
  view_.Q = Q_;
}

FusedMsvGroup::FusedMsvGroup(const profile::MsvProfile& prof, int lane_width)
    : FusedMsvGroup({&prof}, lane_width,
                    single_model_segments(prof.length(), lane_width)) {}

FusedMsvFilter::FusedMsvFilter(const FusedMsvGroup& group, SimdTier tier)
    : group_(group),
      ops_(&backend::tier_kernels(resolve_simd_tier(tier))) {
  FH_REQUIRE(group_.lanes() == ops_->u8_lanes,
             "fused group built for a different lane count");
  const std::size_t lanes = static_cast<std::size_t>(group_.lanes());
  row_.assign(static_cast<std::size_t>(group_.segments()) * lanes, 0);
  // xb / trigger / xe share one aligned block, a lane width each.
  lanes_.assign(3 * lanes, 0);
  xj_.assign(group_.size(), 0);
  overflowed_.assign(group_.size(), 0);
}

template <class Seq>
void FusedMsvFilter::run(Kernel<Seq> kernel, Seq seq, std::size_t L,
                         FilterResult* results) {
  if (L == 0) {
    for (std::size_t m = 0; m < group_.size(); ++m)
      results[m] = FilterResult{};
    return;
  }
  // The state points at this object's scratch, recomputed per call so
  // copies stay valid.
  const std::size_t lanes = static_cast<std::size_t>(group_.lanes());
  simd_kernels::MsvGroupState st;
  st.xb = lanes_.data();
  st.trigger = lanes_.data() + lanes;
  st.xe = lanes_.data() + 2 * lanes;
  st.xj = xj_.data();
  st.overflowed = overflowed_.data();
  // tjb_for(L) depends only on L and the scale the members share.
  st.tjb = group_.member(0).tjb_for(static_cast<int>(L));
  kernel(group_.view(), st, seq, L, row_.data());
  for (std::size_t m = 0; m < group_.size(); ++m) {
    if (overflowed_[m]) {
      results[m].score_nats = std::numeric_limits<float>::infinity();
      results[m].overflowed = true;
    } else {
      results[m].score_nats =
          group_.member(m).score_from_bytes_tjb(xj_[m], st.tjb);
      results[m].overflowed = false;
    }
  }
}

void FusedMsvFilter::msv(const std::uint8_t* seq, std::size_t L,
                         FilterResult* results) {
  run(ops_->msv_group, seq, L, results);
}

void FusedMsvFilter::msv(bio::PackedResidues seq, std::size_t L,
                         FilterResult* results) {
  run(ops_->msv_group_packed, seq, L, results);
}

void FusedMsvFilter::ssv(const std::uint8_t* seq, std::size_t L,
                         FilterResult* results) {
  run(ops_->ssv_group, seq, L, results);
}

void FusedMsvFilter::ssv(bio::PackedResidues seq, std::size_t L,
                         FilterResult* results) {
  run(ops_->ssv_group_packed, seq, L, results);
}

}  // namespace finehmm::cpu
