// Allocation-free batched database scanning (the CPU engines' hot loop).
//
// A database scan calls the filter cascade millions of times; doing any
// heap allocation per sequence dominates short-sequence throughput and
// serializes threads in the allocator.  BatchScanner owns, per worker,
// every piece of mutable filter state the cascade needs — MSV/SSV byte
// rows, Viterbi word stripes, Forward float stripes and the checkpointed
// Backward workspace — built on the worker's first call of that stage
// (decode workspace grown monotonically), so scoring a sequence is
// allocation-free once a stage is warm, no matter which engine (serial,
// ThreadPool, or MultiSearch) drives it.
//
// The parameter stripings for the resolved tier are built once, by
// whichever worker asks first, and shared across all workers (the MSV
// model's one-member cpu::FusedMsvGroup, cpu::VitStripes / FwdStripes):
// model parameters are immutable during a scan, only DP state is
// per-worker.  This mirrors the paper's GPU decomposition — one
// read-only model in constant/shared memory, one DP slice per warp.
// Work accounting is the driving engine's job: BatchScanner counts
// nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "bio/packed_seq.hpp"
#include "cpu/filter_result.hpp"
#include "cpu/fwd_filter.hpp"
#include "cpu/msv_filter.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "cpu/vit_filter.hpp"
#include "profile/fwd_profile.hpp"
#include "profile/msv_profile.hpp"
#include "profile/vit_profile.hpp"

namespace finehmm::pipeline {

class BatchScanner {
 public:
  /// State for `workers` concurrent scanners over one model's profiles.
  /// `fwd` may be nullptr when the caller never runs the Forward stage.
  /// Every stage follows one rule: its shared striping and the worker's
  /// filter are built on that worker's first call of the stage.  The
  /// byte stage on the first ssv()/msv() (a sweep that scores queries
  /// through its own fuse groups never builds it), Viterbi on the first
  /// vit(), Forward on the first fwd()/decode() — so a many-query sweep
  /// pays for the word stages only on queries that have a survivor.  All
  /// workers score through the same resolved SIMD tier, so results are
  /// identical regardless of which worker scored which sequence.
  BatchScanner(const profile::MsvProfile& msv, const profile::VitProfile& vit,
               const profile::FwdProfile* fwd = nullptr,
               std::size_t workers = 1,
               cpu::SimdTier tier = cpu::active_simd_tier());

  std::size_t workers() const noexcept { return workers_.size(); }
  /// The tier every worker scores with (requested clamped to supported).
  cpu::SimdTier tier() const noexcept { return tier_; }

  /// Each scorer runs on worker `w`'s private state; two calls with the
  /// same `w` must not overlap, calls with different `w` may.  Zero-length
  /// sequences are scored as a no-hit (-inf, no DP touched) rather than
  /// handed to the kernels, which require L >= 1.
  cpu::FilterResult ssv(std::size_t w, const std::uint8_t* seq,
                        std::size_t L);
  cpu::FilterResult msv(std::size_t w, const std::uint8_t* seq,
                        std::size_t L);
  cpu::FilterResult vit(std::size_t w, const std::uint8_t* seq,
                        std::size_t L);
  /// Forward score in nats; requires a FwdProfile at construction.
  float fwd(std::size_t w, const std::uint8_t* seq, std::size_t L);
  /// Checkpointed Forward + Backward: fills mocc (resized to L) with the
  /// per-residue model occupancy and returns the Forward score (equal to
  /// fwd()'s).  Requires a FwdProfile at construction; the caller reuses
  /// mocc across calls so the steady state allocates nothing.
  float decode(std::size_t w, const std::uint8_t* seq, std::size_t L,
               std::vector<float>& mocc);

  /// Zero-copy overloads for the byte-stage filters: the sequence is a
  /// packed 5-bit view (typically straight out of an mmap'd .fsqdb) and is
  /// consumed in place — no decode buffer, no copy, bit-identical scores.
  /// The word stages (vit/fwd) run only on rare survivors, which engines
  /// decode into per-worker scratch instead.
  cpu::FilterResult ssv(std::size_t w, bio::PackedResidues seq,
                        std::size_t L);
  cpu::FilterResult msv(std::size_t w, bio::PackedResidues seq,
                        std::size_t L);

 private:
  /// One stage's model side: the striping every worker's filter reads,
  /// built once, by whichever worker asks first.
  template <class Stripes, class Profile>
  struct Shared {
    const Profile* prof = nullptr;
    std::once_flag once;
    std::shared_ptr<const Stripes> stripes;
  };
  /// The filter in a worker's `slot`, built on its first use.
  template <class Filter, class Stripes, class Profile>
  Filter& filter(std::optional<Filter>& slot,
                 Shared<Stripes, Profile>& shared, int lanes);
  cpu::MsvFilter& msv_filter(std::size_t w);  // MSV and SSV
  cpu::VitFilter& vit_filter(std::size_t w);
  cpu::FwdFilter& fwd_filter(std::size_t w);

  struct Worker {
    std::optional<cpu::MsvFilter> msv;
    std::optional<cpu::VitFilter> vit;
    std::optional<cpu::FwdFilter> fwd;
  };

  cpu::SimdTier tier_;
  const cpu::backend::TierKernels* ops_;
  Shared<cpu::FusedMsvGroup, profile::MsvProfile> msv_;
  Shared<cpu::VitStripes, profile::VitProfile> vit_;
  Shared<cpu::FwdStripes, profile::FwdProfile> fwd_;
  std::vector<Worker> workers_;
};

}  // namespace finehmm::pipeline
