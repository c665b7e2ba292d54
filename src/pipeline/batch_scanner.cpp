#include "pipeline/batch_scanner.hpp"

#include <memory>
#include <type_traits>

#include "cpu/simd_backend/backend.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace finehmm::pipeline {

BatchScanner::BatchScanner(const profile::MsvProfile& msv,
                           const profile::VitProfile& vit,
                           const profile::FwdProfile* fwd,
                           std::size_t workers, cpu::SimdTier tier)
    : msv_(msv),
      fwd_(fwd),
      tier_(cpu::resolve_simd_tier(tier)),
      ops_(&cpu::backend::tier_kernels(tier_)) {
  FH_REQUIRE(workers >= 1, "need at least one worker");

  // Immutable re-stripings for the resolved tier, built once and shared
  // by every worker (zero-copy aliases of the profiles' own arrays for
  // the 128-bit tiers).
  ssv_rows_ = cpu::make_shared_msv_rows(msv, ops_->u8_lanes);
  cpu::SharedVitStripes vit_wide =
      cpu::make_shared_vit_stripes(vit, ops_->i16_lanes);

  const std::size_t ssv_row_bytes =
      static_cast<std::size_t>(ssv_rows_.Q) * ssv_rows_.lanes;

  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    Worker worker{cpu::MsvFilter(msv, tier_, ssv_rows_),
                  cpu::VitFilter(vit, tier_, vit_wide),
                  std::nullopt,
                  std::vector<std::uint8_t>(ssv_row_bytes, 0),
                  WorkerLoad{}};
    workers_.push_back(std::move(worker));
  }
}

namespace {

// Kernels require L >= 1; an empty sequence cannot contain a match, so
// every stage scores it as the default no-hit result (-inf nats).
constexpr bool empty_no_hit(std::size_t L) { return L == 0; }

}  // namespace

template <class Seq>
cpu::FilterResult BatchScanner::ssv_impl(std::size_t w, Seq seq,
                                         std::size_t L) {
  Worker& worker = workers_[w];
  if constexpr (std::is_same_v<Seq, bio::PackedResidues>)
    return ops_->ssv_packed(msv_, ssv_rows_.rows, ssv_rows_.Q, seq, L,
                            worker.ssv_row.data());
  else
    return ops_->ssv(msv_, ssv_rows_.rows, ssv_rows_.Q, seq, L,
                     worker.ssv_row.data());
}

cpu::FilterResult BatchScanner::ssv(std::size_t w, const std::uint8_t* seq,
                                    std::size_t L) {
  FINEHMM_CHECK(w < workers_.size(), "worker id out of range");
  if (empty_no_hit(L)) return {};
  ++workers_[w].load.ssv_calls;
  workers_[w].load.residues += L;
  return ssv_impl(w, seq, L);
}

cpu::FilterResult BatchScanner::ssv(std::size_t w, bio::PackedResidues seq,
                                    std::size_t L) {
  FINEHMM_CHECK(w < workers_.size(), "worker id out of range");
  if (empty_no_hit(L)) return {};
  ++workers_[w].load.ssv_calls;
  workers_[w].load.residues += L;
  return ssv_impl(w, seq, L);
}

cpu::FilterResult BatchScanner::msv(std::size_t w, const std::uint8_t* seq,
                                    std::size_t L) {
  FINEHMM_CHECK(w < workers_.size(), "worker id out of range");
  if (empty_no_hit(L)) return {};
  ++workers_[w].load.msv_calls;
  workers_[w].load.residues += L;
  return workers_[w].msv.score(seq, L);
}

cpu::FilterResult BatchScanner::msv(std::size_t w, bio::PackedResidues seq,
                                    std::size_t L) {
  FINEHMM_CHECK(w < workers_.size(), "worker id out of range");
  if (empty_no_hit(L)) return {};
  ++workers_[w].load.msv_calls;
  workers_[w].load.residues += L;
  return workers_[w].msv.score(seq, L);
}

cpu::FilterResult BatchScanner::vit(std::size_t w, const std::uint8_t* seq,
                                    std::size_t L) {
  FINEHMM_CHECK(w < workers_.size(), "worker id out of range");
  if (empty_no_hit(L)) return {};
  ++workers_[w].load.vit_calls;
  workers_[w].load.residues += L;
  return workers_[w].vit.score(seq, L);
}

cpu::FwdFilter& BatchScanner::fwd_filter(std::size_t w) {
  FINEHMM_CHECK(w < workers_.size(), "worker id out of range");
  FH_REQUIRE(fwd_ != nullptr, "BatchScanner built without a Forward profile");
  std::optional<cpu::FwdFilter>& filter = workers_[w].fwd;
  if (!filter) {
    // Worker w alone touches its slot; the shared stripes are built once.
    std::call_once(fwd_once_, [this] {
      fwd_wide_ =
          std::make_shared<const cpu::WideFwdStripes>(*fwd_, ops_->f32_lanes);
    });
    filter.emplace(*fwd_, tier_, fwd_wide_);
  }
  return *filter;
}

float BatchScanner::fwd(std::size_t w, const std::uint8_t* seq,
                        std::size_t L) {
  cpu::FwdFilter& filter = fwd_filter(w);
  if (empty_no_hit(L)) return cpu::FilterResult{}.score_nats;
  ++workers_[w].load.fwd_calls;
  workers_[w].load.residues += L;
  return filter.score(seq, L);
}

float BatchScanner::decode(std::size_t w, const std::uint8_t* seq,
                           std::size_t L, std::vector<float>& mocc) {
  cpu::FwdFilter& filter = fwd_filter(w);
  if (empty_no_hit(L)) {
    mocc.clear();
    return cpu::FilterResult{}.score_nats;
  }
  ++workers_[w].load.bwd_calls;
  workers_[w].load.residues += L;
  return filter.decode(seq, L, mocc);
}

}  // namespace finehmm::pipeline
