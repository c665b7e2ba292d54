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

  // Immutable stripings for the resolved tier, built once and shared by
  // every worker.
  msv_stripes_ = std::make_shared<const cpu::MsvStripes>(msv, ops_->u8_lanes);
  auto vit_stripes =
      std::make_shared<const cpu::VitStripes>(vit, ops_->i16_lanes);

  const std::size_t ssv_row_bytes =
      static_cast<std::size_t>(msv_stripes_->segments()) *
      msv_stripes_->lanes();

  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    Worker worker{cpu::MsvFilter(msv, tier_, msv_stripes_),
                  cpu::VitFilter(vit, tier_, vit_stripes),
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
  std::uint8_t* row = workers_[w].ssv_row.data();
  const std::uint8_t* rows = msv_stripes_->row(0);
  const int Q = msv_stripes_->segments();
  if constexpr (std::is_same_v<Seq, bio::PackedResidues>)
    return ops_->ssv_packed(msv_, rows, Q, seq, L, row);
  else
    return ops_->ssv(msv_, rows, Q, seq, L, row);
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
      fwd_stripes_ =
          std::make_shared<const cpu::FwdStripes>(*fwd_, ops_->f32_lanes);
    });
    filter.emplace(*fwd_, tier_, fwd_stripes_);
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
