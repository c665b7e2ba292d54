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
      ops_(&cpu::backend::tier_kernels(tier_)) {
  FH_REQUIRE(workers >= 1, "need at least one worker");
  msv_.prof = &msv;
  fwd_.prof = fwd;

  // The Viterbi striping for the resolved tier, built once and shared by
  // every worker.
  auto vit_stripes =
      std::make_shared<const cpu::VitStripes>(vit, ops_->i16_lanes);
  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    workers_.push_back(Worker{std::nullopt,
                              cpu::VitFilter(vit, tier_, vit_stripes),
                              std::nullopt, WorkerLoad{}});
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

cpu::FilterResult BatchScanner::ssv(std::size_t w, const std::uint8_t* seq,
                                    std::size_t L) {
  cpu::MsvFilter& f = msv_filter(w);
  if (empty_no_hit(L)) return {};
  ++workers_[w].load.ssv_calls;
  workers_[w].load.residues += L;
  return f.ssv(seq, L);
}

cpu::FilterResult BatchScanner::ssv(std::size_t w, bio::PackedResidues seq,
                                    std::size_t L) {
  cpu::MsvFilter& f = msv_filter(w);
  if (empty_no_hit(L)) return {};
  ++workers_[w].load.ssv_calls;
  workers_[w].load.residues += L;
  return f.ssv(seq, L);
}

cpu::FilterResult BatchScanner::msv(std::size_t w, const std::uint8_t* seq,
                                    std::size_t L) {
  cpu::MsvFilter& f = msv_filter(w);
  if (empty_no_hit(L)) return {};
  ++workers_[w].load.msv_calls;
  workers_[w].load.residues += L;
  return f.score(seq, L);
}

cpu::FilterResult BatchScanner::msv(std::size_t w, bio::PackedResidues seq,
                                    std::size_t L) {
  cpu::MsvFilter& f = msv_filter(w);
  if (empty_no_hit(L)) return {};
  ++workers_[w].load.msv_calls;
  workers_[w].load.residues += L;
  return f.score(seq, L);
}

cpu::FilterResult BatchScanner::vit(std::size_t w, const std::uint8_t* seq,
                                    std::size_t L) {
  FINEHMM_CHECK(w < workers_.size(), "worker id out of range");
  if (empty_no_hit(L)) return {};
  ++workers_[w].load.vit_calls;
  workers_[w].load.residues += L;
  return workers_[w].vit.score(seq, L);
}

float BatchScanner::fwd(std::size_t w, const std::uint8_t* seq,
                        std::size_t L) {
  cpu::FwdFilter& f = fwd_filter(w);
  if (empty_no_hit(L)) return cpu::FilterResult{}.score_nats;
  ++workers_[w].load.fwd_calls;
  workers_[w].load.residues += L;
  return f.score(seq, L);
}

float BatchScanner::decode(std::size_t w, const std::uint8_t* seq,
                           std::size_t L, std::vector<float>& mocc) {
  cpu::FwdFilter& f = fwd_filter(w);
  if (empty_no_hit(L)) {
    mocc.clear();
    return cpu::FilterResult{}.score_nats;
  }
  ++workers_[w].load.bwd_calls;
  workers_[w].load.residues += L;
  return f.decode(seq, L, mocc);
}

}  // namespace finehmm::pipeline
