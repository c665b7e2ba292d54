// Farrar-striped filter parameters for one lane count, built at runtime.
//
// Every striped CPU kernel reads its model parameters in the Farrar
// layout: with N lanes and Q = ceil(M/N) stripes, model position k
// (1-based) lives in stripe (k-1)%Q, lane (k-1)/Q, and padding slots
// hold the stage's inert value.  One builder per word/float stage
// re-stripes the profile's position-ordered parameters for the lane
// count the resolved tier needs (Viterbi words 8/16/32, Forward floats
// 4/8/16 — or any power of two for the width-N spec tests), once per
// (model, tier); the byte stage's table is a one-member
// cpu::FusedMsvGroup (cpu/msv_group.hpp), the same layout.  The result is
// immutable, so filters and BatchScanner workers share it as
// shared_ptr<const …> and own only their DP rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "cpu/simd_backend/kernels.hpp"
#include "profile/fwd_profile.hpp"
#include "profile/vit_profile.hpp"
#include "util/aligned.hpp"
#include "util/error.hpp"

namespace finehmm::cpu {

/// The eight ViterbiFilter parameter arrays for N word lanes (padding
/// holds -inf).
class VitStripes {
 public:
  VitStripes(const profile::VitProfile& prof, int lanes);

  int lanes() const noexcept { return N_; }
  int segments() const noexcept { return Q_; }
  /// The raw-pointer view the shared Viterbi kernel consumes.
  simd_kernels::VitStripesView view() const;

 private:
  int N_;
  int Q_;
  aligned_vector<std::int16_t> msc_, tmm_, tim_, tdm_, tmi_, tii_, tmd_,
      tdd_;
};

/// The FwdProfile's probability-space parameters for N float lanes
/// (padding holds 0).  Builds both the in-indexed stripes Forward reads
/// and the out-indexed stripes Backward reads (slot(k) holds the
/// k -> k+1 probability, zero at k = M), so one object serves scoring
/// and checkpointed decoding.
class FwdStripes {
 public:
  FwdStripes(const profile::FwdProfile& prof, int lanes);

  int lanes() const noexcept { return N_; }
  int segments() const noexcept { return Q_; }
  std::size_t row_floats() const noexcept {
    return static_cast<std::size_t>(Q_) * N_;
  }
  /// The raw-pointer view the shared Forward/Backward kernels consume.
  simd_kernels::FwdStripesView view() const;

 private:
  int N_;
  int Q_;
  float entry_ = 0.0f;
  aligned_vector<float> odds_;
  aligned_vector<float> tmm_, tim_, tdm_, tmi_, tii_, tmd_, tdd_;
  aligned_vector<float> tmm_out_, tim_out_, tdm_out_, tmd_out_, tdd_out_;
};

/// The stripes (or MSV group) a filter reads: `shared` when given (built
/// by a caller that hands one re-striping to many workers), else a fresh
/// build.  Either way the lane count must be the filter tier's.
template <class Stripes, class Profile>
std::shared_ptr<const Stripes> stripes_for(
    const Profile& prof, int lanes, std::shared_ptr<const Stripes> shared) {
  if (shared == nullptr) return std::make_shared<const Stripes>(prof, lanes);
  FH_REQUIRE(shared->lanes() == lanes,
             "shared stripes built for a different lane count");
  return shared;
}

}  // namespace finehmm::cpu
