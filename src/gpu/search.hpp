// Database search drivers on one simulated device, plus the residue
// partition that spreads a stage across several.
//
// Each GpuSearch stage runs one filter (SSV, MSV or P7Viterbi) for a set
// of sequences on one device, with the launch plan chosen by the
// occupancy maximizer, and returns scores plus the performance counters
// the cost model consumes.  Multi-GPU runs split each stage's items
// across devices by residue count (sequence scoring is embarrassingly
// parallel across devices, §IV-A of the paper; the cascade lives in
// pipeline::HmmSearch::run_gpu), and the slowest device bounds the wall
// clock.
#pragma once

#include <optional>
#include <vector>

#include "bio/packing.hpp"
#include "gpu/kernel_config.hpp"
#include "gpu/msv_kernel.hpp"
#include "gpu/msv_sync_kernel.hpp"
#include "gpu/ssv_kernel.hpp"
#include "gpu/vit_kernel.hpp"
#include "gpu/vit_prefix_kernel.hpp"
#include "simt/grid.hpp"

namespace finehmm::gpu {

struct StageResult {
  std::vector<float> scores;             // nats, one per work item
  std::vector<std::uint8_t> overflow;    // MSV only: byte filter saturated
  simt::PerfCounters counters;
  LaunchPlan plan;
};

class GpuSearch {
 public:
  explicit GpuSearch(simt::DeviceSpec dev) : dev_(std::move(dev)) {}

  const simt::DeviceSpec& device() const noexcept { return dev_; }

  /// Warp-synchronous MSV over the database (or an item subset).
  StageResult run_msv(const profile::MsvProfile& prof,
                      const bio::PackedDatabase& db, ParamPlacement placement,
                      const std::vector<std::size_t>* items = nullptr) const;

  /// Warp-synchronous SSV (single ungapped segment; extension — the even
  /// faster heuristic HMMER 3.1 later adopted as its first stage).
  StageResult run_ssv(const profile::MsvProfile& prof,
                      const bio::PackedDatabase& db, ParamPlacement placement,
                      const std::vector<std::size_t>* items = nullptr) const;

  /// Warp-synchronous P7Viterbi over an item subset (the MSV survivors).
  StageResult run_vit(const profile::VitProfile& prof,
                      const bio::PackedDatabase& db, ParamPlacement placement,
                      const std::vector<std::size_t>* items = nullptr) const;

  /// P7Viterbi with the prefix-scan D-chain evaluation (the paper's §VI
  /// future work) instead of parallel Lazy-F.  Scores are identical; the
  /// op mix differs (fixed 2*log2(32) shuffle steps per group).
  StageResult run_vit_prefix(
      const profile::VitProfile& prof, const bio::PackedDatabase& db,
      ParamPlacement placement,
      const std::vector<std::size_t>* items = nullptr) const;

  /// Ablation: the synchronized multi-warp MSV of Fig. 4 (one sequence per
  /// block, `coop_warps` warps cooperating with __syncthreads()).
  StageResult run_msv_sync(const profile::MsvProfile& prof,
                           const bio::PackedDatabase& db,
                           ParamPlacement placement, int coop_warps) const;

 private:
  simt::DeviceSpec dev_;
};

/// Split `items` (all of [0, db.size()) when null) into `n_devices`
/// contiguous slices with roughly equal residue counts.  Slices keep the
/// item order, so concatenating them gives `items` back; one device
/// takes everything.
std::vector<std::vector<std::size_t>> partition_by_residues(
    const bio::PackedDatabase& db, std::size_t n_devices,
    const std::vector<std::size_t>* items = nullptr);

}  // namespace finehmm::gpu
