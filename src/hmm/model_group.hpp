// Model-group auto-tuner for fused multi-model sweeps.
//
// A `.fhpdb` library of short Pfam-style models wastes most of a wide
// vector register when scanned one model at a time: a 60-position model
// occupies 4 stripes of an AVX2 sweep but only 2 of its 32 lanes carry
// real cells.  plan_model_groups() packs several models into one shared
// striped table instead — each model gets a contiguous lane span, the
// group shares one stripe count Q, and one MSV/SSV sweep scores every
// member (cpu::FusedMsvGroup holds the table; the kernels live in
// cpu/simd_backend/kernels.hpp).
//
// The tuner works from the model-length histogram alone, the CPU analogue
// of CUDAMPF++'s shared-vs-global crossover study: sort models by length,
// chunk greedily up to the lane budget, and for each chunk binary-search
// the minimal Q whose lane demand sum fits — minimal Q maximizes lane
// occupancy (real cells / padded cells) and minimizes the per-row stripe
// work.  Models too long to profit (longer than what a single-model
// sweep already fills) stay unfused (docs/multi_model.md).
#pragma once

#include <cstddef>
#include <vector>

namespace finehmm::hmm {

/// One fused group: which models (indices into the caller's length/model
/// array), the shared stripe count Q, and the lanes actually claimed.
struct GroupShape {
  std::vector<std::size_t> members;
  int Q = 0;           // shared stripe count
  int lanes_used = 0;  // sum over members of M/Q + 1 (<= lane width)
  double occupancy = 0.0;  // real model cells / (Q * lane width)
};

/// The tuner's decision for one library at one byte-lane width.
struct FusePlan {
  int lane_width = 16;
  std::vector<GroupShape> groups;
  std::vector<std::size_t> unfused;  // scanned per-model as before
  /// Models covered by fused groups.
  std::size_t fused_models() const;
  /// Mean group size (0 when nothing fused).
  double models_per_group() const;
  /// Cell-weighted mean lane occupancy over the fused groups (0..1).
  double lane_occupancy() const;
};

/// Tuner policy knobs.  Defaults implement the auto policy.
struct FuseOptions {
  /// force mode: fuse every model regardless of length, for benchmarking.
  bool forced = false;
  /// Cap on models per group; 0 means the lane width decides (1 fuses
  /// nothing).
  int max_group_models = 0;
  /// Cap on one group's emission-table footprint (bio::kKp * Q * lanes
  /// bytes); keeps a group's working set L1/L2-resident.
  std::size_t max_table_bytes = 256 * 1024;
};

/// Pick group shapes for a library of model lengths at one byte-lane
/// width (16/32/64).  Deterministic: depends only on (lengths, lane
/// width, options).  Every index in [0, lengths.size()) appears exactly
/// once across groups and unfused.
FusePlan plan_model_groups(const std::vector<int>& lengths, int lane_width,
                           const FuseOptions& opts = FuseOptions{});

/// One bucket of the model-length histogram: [lo, hi) half-open.
struct LengthBucket {
  int lo = 0;
  int hi = 0;
  std::size_t count = 0;
};

/// Doubling-width histogram of model lengths ([1,32), [32,64), [64,128),
/// ...), empty buckets skipped.  Drives the press tool's --stat report.
std::vector<LengthBucket> length_histogram(const std::vector<int>& lengths);

}  // namespace finehmm::hmm
