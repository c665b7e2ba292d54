// Striped SIMD MSV filter — the CPU baseline the paper compares against.
//
// Farrar striping over byte lanes: model position k (1-based) lives in
// stripe q=(k-1)%Q, lane j=(k-1)/Q.  The previous row's diagonal
// dependency is realized by shifting the last stripe's lanes up by one at
// the start of each row.  This mirrors HMMER 3.0's SSE p7_MSVFilter and
// returns xJ bytes bit-identical to msv_scalar.
//
// A single model is a one-member cpu::FusedMsvGroup at Q = ceil(M/N),
// which is exactly that layout, so MsvFilter is a thin wrapper over the
// one byte-stage kernel (msv_group_kernel): it resolves the widest native
// SIMD tier the host supports (portable / SSE2 / AVX2 / AVX-512; see
// cpu/simd_backend/simd_tier.hpp), packs the model once per (model,
// tier) for that tier's byte lane count, and scores through a
// FusedMsvFilter.  Workers scanning the same model share one group.
// Scores are bit-identical at every tier.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "bio/packed_seq.hpp"
#include "cpu/filter_result.hpp"
#include "cpu/msv_group.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "profile/msv_profile.hpp"

namespace finehmm::cpu {

/// Reusable row storage so database scans don't reallocate per sequence.
class MsvFilter {
 public:
  explicit MsvFilter(const profile::MsvProfile& prof,
                     SimdTier tier = active_simd_tier());
  /// Share a prebuilt one-member group of `prof` between workers; its lane
  /// count must match the resolved tier's.
  MsvFilter(const profile::MsvProfile& prof, SimdTier tier,
            std::shared_ptr<const FusedMsvGroup> group);

  /// A zero-length sequence scores as the default no-hit result.
  FilterResult score(const std::uint8_t* seq, std::size_t L);
  /// Zero-copy overload: scores a packed 5-bit residue view in place
  /// (bit-identical to the byte-code overload at every tier).
  FilterResult score(bio::PackedResidues seq, std::size_t L);
  /// SSV (no J state) over the same table and row: bit-identical to
  /// ssv_scalar at every tier.
  FilterResult ssv(const std::uint8_t* seq, std::size_t L);
  FilterResult ssv(bio::PackedResidues seq, std::size_t L);

  /// The tier score() actually runs (the requested tier clamped to what
  /// the host supports).
  SimdTier tier() const noexcept { return fused_.tier(); }

 private:
  std::shared_ptr<const FusedMsvGroup> group_;
  FusedMsvFilter fused_;
};

}  // namespace finehmm::cpu
