#include "pipeline/batch_scanner.hpp"

#include <memory>

#include "cpu/simd_backend/backend.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace finehmm::pipeline {

BatchScanner::BatchScanner(const profile::MsvProfile& msv,
                           const profile::VitProfile& vit,
                           const profile::FwdProfile* fwd,
                           std::size_t workers, cpu::SimdTier tier)
    : tier_(cpu::resolve_simd_tier(tier)),
      ops_(&cpu::backend::tier_kernels(tier_)),
      workers_(workers) {
  FH_REQUIRE(workers >= 1, "need at least one worker");
  msv_.prof = &msv;
  vit_.prof = &vit;
  fwd_.prof = fwd;
}

template <class Filter, class Stripes, class Profile>
Filter& BatchScanner::filter(std::optional<Filter>& slot,
                             Shared<Stripes, Profile>& shared, int lanes) {
  if (!slot) {
    // A worker alone touches its slot; the shared stripes are built once.
    std::call_once(shared.once, [&shared, lanes] {
      shared.stripes = std::make_shared<const Stripes>(*shared.prof, lanes);
    });
    slot.emplace(*shared.prof, tier_, shared.stripes);
  }
  return *slot;
}

cpu::MsvFilter& BatchScanner::msv_filter(std::size_t w) {
  FINEHMM_CHECK(w < workers_.size(), "worker id out of range");
  return filter(workers_[w].msv, msv_, ops_->u8_lanes);
}

cpu::VitFilter& BatchScanner::vit_filter(std::size_t w) {
  FINEHMM_CHECK(w < workers_.size(), "worker id out of range");
  return filter(workers_[w].vit, vit_, ops_->i16_lanes);
}

cpu::FwdFilter& BatchScanner::fwd_filter(std::size_t w) {
  FINEHMM_CHECK(w < workers_.size(), "worker id out of range");
  FH_REQUIRE(fwd_.prof != nullptr,
             "BatchScanner built without a Forward profile");
  return filter(workers_[w].fwd, fwd_, ops_->f32_lanes);
}

namespace {

// Kernels require L >= 1; an empty sequence cannot contain a match, so
// every stage scores it as the default no-hit result (-inf nats).
constexpr bool empty_no_hit(std::size_t L) { return L == 0; }

}  // namespace

// The byte filters score a zero-length sequence as a no-hit themselves.
cpu::FilterResult BatchScanner::ssv(std::size_t w, const std::uint8_t* seq,
                                    std::size_t L) {
  return msv_filter(w).ssv(seq, L);
}

cpu::FilterResult BatchScanner::ssv(std::size_t w, bio::PackedResidues seq,
                                    std::size_t L) {
  return msv_filter(w).ssv(seq, L);
}

cpu::FilterResult BatchScanner::msv(std::size_t w, const std::uint8_t* seq,
                                    std::size_t L) {
  return msv_filter(w).score(seq, L);
}

cpu::FilterResult BatchScanner::msv(std::size_t w, bio::PackedResidues seq,
                                    std::size_t L) {
  return msv_filter(w).score(seq, L);
}

cpu::FilterResult BatchScanner::vit(std::size_t w, const std::uint8_t* seq,
                                    std::size_t L) {
  cpu::VitFilter& f = vit_filter(w);
  if (empty_no_hit(L)) return {};
  return f.score(seq, L);
}

float BatchScanner::fwd(std::size_t w, const std::uint8_t* seq,
                        std::size_t L) {
  cpu::FwdFilter& f = fwd_filter(w);
  if (empty_no_hit(L)) return cpu::FilterResult{}.score_nats;
  return f.score(seq, L);
}

float BatchScanner::decode(std::size_t w, const std::uint8_t* seq,
                           std::size_t L, std::vector<float>& mocc) {
  cpu::FwdFilter& f = fwd_filter(w);
  if (empty_no_hit(L)) {
    mocc.clear();
    return cpu::FilterResult{}.score_nats;
  }
  return f.decode(seq, L, mocc);
}

}  // namespace finehmm::pipeline
