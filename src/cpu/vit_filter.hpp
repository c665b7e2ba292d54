// Striped SIMD ViterbiFilter with the Farrar Lazy-F evaluation.
//
// The D->D dependency chain breaks striping: consecutive model positions
// sit in consecutive stripes of the same lane, so in-row propagation works
// within a pass over the stripes, but chains that cross a lane boundary
// need the dcv register wrapped (lane-shifted) and the pass repeated.
// Because most rows take no D->D path at all, the repeat almost never
// fires — the "Lazy-F" insight of Farrar (2007) that HMMER 3.0 and the
// paper's GPU kernel both rely on.  Word values match vit_scalar exactly.
//
// Like MsvFilter, the filter resolves its tier through the backend's
// kernel table and stripes all eight parameter arrays once per (model,
// tier), shareable between workers as one VitStripes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/filter_result.hpp"
#include "cpu/simd_backend/backend.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "cpu/stripes.hpp"
#include "profile/vit_profile.hpp"

namespace finehmm::cpu {

class VitFilter {
 public:
  explicit VitFilter(const profile::VitProfile& prof,
                     SimdTier tier = active_simd_tier());
  /// Share a prebuilt parameter striping between workers; its lane count
  /// must match the resolved tier's.
  VitFilter(const profile::VitProfile& prof, SimdTier tier,
            std::shared_ptr<const VitStripes> stripes);

  FilterResult score(const std::uint8_t* seq, std::size_t L);

  /// Number of Lazy-F wrap passes executed by the last score() call
  /// (diagnostic; 0 means no chain crossed a lane boundary).
  int last_lazyf_passes() const noexcept { return lazyf_passes_; }

  /// The tier score() actually runs (requested clamped to supported).
  SimdTier tier() const noexcept { return ops_->tier; }

 private:
  const profile::VitProfile& prof_;
  const backend::TierKernels* ops_;
  std::shared_ptr<const VitStripes> stripes_;
  simd_kernels::VitStripesView view_;
  std::vector<std::int16_t> mmx_, imx_, dmx_;  // Q stripes x lane words
  int lazyf_passes_ = 0;
};

}  // namespace finehmm::cpu
