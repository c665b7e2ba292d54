#include "gpu/search.hpp"

#include <string>
#include <type_traits>

#include "util/error.hpp"

namespace finehmm::gpu {

namespace {

/// The one launcher behind the per-warp stages: plan the launch for
/// (stage, placement, model size), lay out shared memory for the planned
/// block, size the results to the item list and run the grid.  The byte
/// kernels (MSV, SSV) also report per-item overflow.
template <class Kernel, class Layout, class Profile>
StageResult launch_stage(const simt::DeviceSpec& dev, const char* name,
                         const Profile& prof, const bio::PackedDatabase& db,
                         ParamPlacement placement,
                         const std::vector<std::size_t>* items) {
  constexpr bool kByte = std::is_same_v<Layout, MsvSmemLayout>;
  constexpr Stage stage = kByte ? Stage::kMsv : Stage::kViterbi;
  StageResult out;
  out.plan = plan_launch(stage, placement, prof.length(), dev);
  FH_REQUIRE(out.plan.feasible,
             std::string(name) +
                 " launch infeasible for this placement/model size");

  Layout layout;
  layout.mpad = prof.padded_length();
  layout.warps = out.plan.cfg.warps_per_block;
  layout.shared_params = placement == ParamPlacement::kShared;
  layout.shuffle_scratch = !dev.has_warp_shuffle;

  const std::size_t n = items ? items->size() : db.size();
  out.scores.assign(n, 0.0f);
  if constexpr (kByte) out.overflow.assign(n, 0);
  const Kernel kernel = [&] {
    if constexpr (kByte)
      return Kernel(prof, db, placement, layout, &out.scores, &out.overflow,
                    items);
    else
      return Kernel(prof, db, placement, layout, &out.scores, items);
  }();
  out.counters = simt::launch_grid(
      dev, out.plan.cfg, n,
      [&kernel](simt::WarpContext& ctx, std::size_t item) {
        kernel(ctx, item);
      },
      [&kernel](simt::WarpContext& ctx) { kernel.stage_params(ctx); });
  return out;
}

}  // namespace

StageResult GpuSearch::run_msv(const profile::MsvProfile& prof,
                               const bio::PackedDatabase& db,
                               ParamPlacement placement,
                               const std::vector<std::size_t>* items) const {
  return launch_stage<MsvWarpKernel, MsvSmemLayout>(dev_, "MSV", prof, db,
                                                    placement, items);
}

StageResult GpuSearch::run_ssv(const profile::MsvProfile& prof,
                               const bio::PackedDatabase& db,
                               ParamPlacement placement,
                               const std::vector<std::size_t>* items) const {
  return launch_stage<SsvWarpKernel, MsvSmemLayout>(dev_, "SSV", prof, db,
                                                    placement, items);
}

StageResult GpuSearch::run_vit(const profile::VitProfile& prof,
                               const bio::PackedDatabase& db,
                               ParamPlacement placement,
                               const std::vector<std::size_t>* items) const {
  return launch_stage<VitWarpKernel, VitSmemLayout>(dev_, "P7Viterbi", prof,
                                                    db, placement, items);
}

StageResult GpuSearch::run_vit_prefix(
    const profile::VitProfile& prof, const bio::PackedDatabase& db,
    ParamPlacement placement, const std::vector<std::size_t>* items) const {
  return launch_stage<VitPrefixKernel, VitSmemLayout>(dev_, "P7Viterbi",
                                                      prof, db, placement,
                                                      items);
}

StageResult GpuSearch::run_msv_sync(const profile::MsvProfile& prof,
                                    const bio::PackedDatabase& db,
                                    ParamPlacement placement,
                                    int coop_warps) const {
  FH_REQUIRE(coop_warps >= 1, "need at least one cooperating warp");
  StageResult out;
  // Resource shape of the real cooperative block.
  out.plan = plan_launch(Stage::kMsv, placement, prof.length(), dev_);
  FH_REQUIRE(out.plan.feasible, "MSV sync launch infeasible");

  MsvSmemLayout layout;
  layout.mpad = prof.padded_length();
  layout.warps = coop_warps;
  layout.shared_params = placement == ParamPlacement::kShared;
  layout.shuffle_scratch = !dev_.has_warp_shuffle;
  FH_REQUIRE(layout.total_bytes() <= dev_.shared_mem_per_block,
             "cooperative block exceeds shared memory");

  // Occupancy of the cooperative shape.
  simt::KernelResources res;
  res.regs_per_thread = kMsvRegsPerThread;
  res.smem_per_block = layout.total_bytes();
  res.threads_per_block = coop_warps * simt::kWarpSize;
  out.plan.res = res;
  out.plan.occ = simt::compute_occupancy(dev_, res);
  out.plan.cfg.warps_per_block = coop_warps;
  out.plan.cfg.smem_bytes_per_block = layout.total_bytes();
  out.plan.cfg.grid_blocks =
      std::max(1, out.plan.occ.blocks_per_sm * dev_.sm_count);

  std::size_t n = db.size();
  out.scores.assign(n, 0.0f);
  out.overflow.assign(n, 0);

  MsvSyncKernel kernel(prof, db, placement, layout, coop_warps, &out.scores,
                       &out.overflow);
  // One context per block: each queue item is processed by the whole
  // cooperating block, so the launcher runs one "warp" per block.
  simt::LaunchConfig drive = out.plan.cfg;
  drive.warps_per_block = 1;
  out.counters = simt::launch_grid(
      dev_, drive, n,
      [&kernel](simt::WarpContext& ctx, std::size_t item) {
        kernel(ctx, item);
      },
      [&kernel](simt::WarpContext& ctx) { kernel.stage_params(ctx); });
  return out;
}

std::vector<std::vector<std::size_t>> partition_by_residues(
    const bio::PackedDatabase& db, std::size_t n_devices,
    const std::vector<std::size_t>* items) {
  FH_REQUIRE(n_devices >= 1, "need at least one device");
  const std::size_t n = items ? items->size() : db.size();
  const auto id = [&](std::size_t i) { return items ? (*items)[i] : i; };
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += db.length(id(i));
  std::vector<std::vector<std::size_t>> parts(n_devices);
  std::uint64_t per_dev = (total + n_devices - 1) / n_devices;
  std::size_t dev = 0;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (acc >= per_dev * (dev + 1) && dev + 1 < n_devices) ++dev;
    parts[dev].push_back(id(i));
    acc += db.length(id(i));
  }
  return parts;
}

}  // namespace finehmm::gpu
