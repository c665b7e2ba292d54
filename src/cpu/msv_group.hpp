// The byte stage's model side and per-worker scratch: one or more models
// packed into one shared striped table, scored together by a single
// N-lane MSV/SSV sweep.
//
// Lane-partitioned Farrar layout: model m owns the contiguous lane span
// [lane_lo, lane_lo + lanes) of the N-lane vector; its position k
// (1-based) lives in stripe (k-1) % Q, lane lane_lo + (k-1) / Q, with Q
// shared by the whole group (the auto-tuner in hmm/model_group.hpp picks
// members and Q).  Every member but the last spans M/Q + 1 lanes, so its
// last lane always ends in at least one padding cell; padding carries
// emission cost 255, which forces the cell to zero every row, so the lane
// shift at stripe 0 hands the next span exactly the zero a lone model
// gets at its first lane.  The last member's shifted-out cell reaches no
// span, so it spans ceil(M/Q) lanes.  A single model is a one-member
// group at Q = ceil(M/N), HMMER 3.0's striped layout, and every member's
// scores are bit-identical to scoring it alone (docs/multi_model.md has
// the full argument).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bio/packed_seq.hpp"
#include "cpu/filter_result.hpp"
#include "cpu/simd_backend/backend.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "profile/msv_profile.hpp"
#include "util/aligned.hpp"

namespace finehmm::cpu {

/// The shared striped emission table and per-lane constants for one
/// model group, built once and shared read-only between workers.  Member
/// profiles must outlive the group.
class FusedMsvGroup {
 public:
  /// Pack `members` into one `lane_width`-lane table with stripe count Q.
  /// Requires the spans (length/Q + 1 for every member but the last,
  /// ceil(length/Q) for the last) to fit lane_width — the shapes
  /// hmm::plan_model_groups emits satisfy this by construction.
  FusedMsvGroup(std::vector<const profile::MsvProfile*> members,
                int lane_width, int Q);
  /// `prof` alone: a one-member group at Q = ceil(M / lane_width).
  FusedMsvGroup(const profile::MsvProfile& prof, int lane_width);

  std::size_t size() const { return members_.size(); }
  const profile::MsvProfile& member(std::size_t m) const {
    return *members_[m];
  }
  int lanes() const { return lanes_; }
  int segments() const { return Q_; }
  const simd_kernels::MsvGroupView& view() const { return view_; }

 private:
  std::vector<const profile::MsvProfile*> members_;
  int lanes_ = 0;
  int Q_ = 0;
  aligned_vector<std::uint8_t> rows_;  // residue x at rows + x*Q*lanes
  // bias | base | tbm | MSV trigger | SSV trigger, `lanes` bytes each.
  aligned_vector<std::uint8_t> lane_consts_;
  std::vector<simd_kernels::MsvGroupModel> models_;
  simd_kernels::MsvGroupView view_;
};

/// Per-worker scratch that scores every member of a FusedMsvGroup against
/// one sequence in a single sweep.  results[m] corresponds to
/// group.member(m) and is bit-identical to msv_scalar (MSV) or
/// ssv_scalar (SSV) at every tier; a zero-length sequence yields the
/// default no-hit result for every member, matching BatchScanner.
class FusedMsvFilter {
 public:
  explicit FusedMsvFilter(const FusedMsvGroup& group,
                          SimdTier tier = active_simd_tier());

  void msv(const std::uint8_t* seq, std::size_t L, FilterResult* results);
  void msv(bio::PackedResidues seq, std::size_t L, FilterResult* results);
  void ssv(const std::uint8_t* seq, std::size_t L, FilterResult* results);
  void ssv(bio::PackedResidues seq, std::size_t L, FilterResult* results);

  const FusedMsvGroup& group() const { return group_; }
  SimdTier tier() const noexcept { return ops_->tier; }

 private:
  template <class Seq>
  using Kernel = void (*)(const simd_kernels::MsvGroupView&,
                          const simd_kernels::MsvGroupState&, Seq,
                          std::size_t, std::uint8_t*);
  /// One sweep of `kernel`, its xJ/overflow bytes converted into results.
  template <class Seq>
  void run(Kernel<Seq> kernel, Seq seq, std::size_t L,
           FilterResult* results);

  const FusedMsvGroup& group_;
  const backend::TierKernels* ops_;
  aligned_vector<std::uint8_t> row_;    // Q * lanes DP row
  aligned_vector<std::uint8_t> lanes_;  // xb | trigger | xe, lanes each
  std::vector<std::uint8_t> xj_, overflowed_;  // per model
};

}  // namespace finehmm::cpu
