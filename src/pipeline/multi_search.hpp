// hmmscan-style batch search: one database against many profile HMMs.
//
// This is the paper's motivating production workload ("scanning an entire
// database of HMMs for all motifs", §I): Pfam has tens of thousands of
// families.  MultiSearch owns one calibrated HmmSearch per model and scans
// the shared (packed-once) database against each; per-model launch
// placement follows the occupancy policy, so small families run shared
// and large families run global, as Fig. 9's optimal curve prescribes.
#pragma once

#include <vector>

#include "pipeline/pipeline.hpp"

namespace finehmm::pipeline {

struct ModelResult {
  std::string model_name;
  int model_length = 0;
  SearchResult result;
  gpu::ParamPlacement msv_placement = gpu::ParamPlacement::kShared;
};

class MultiSearch {
 public:
  MultiSearch(std::vector<hmm::Plan7Hmm> models, Thresholds thresholds = {},
              stats::CalibrateOptions calib = {});

  std::size_t size() const noexcept { return searches_.size(); }
  const HmmSearch& search(std::size_t i) const { return searches_[i]; }

  /// Scan with the CPU engines.
  std::vector<ModelResult> run_cpu(const bio::SequenceDatabase& db) const;

  /// Model lengths in index order — the input to hmm::plan_model_groups.
  std::vector<int> model_lengths() const;

  /// The multi-threaded many-model scan: short models lane-packed into
  /// shared striped group tables so one MSV/SSV sweep scores a whole
  /// group per sequence (HmmSearch::run_cpu_coalesced with a plan).  Hits
  /// are bit-identical to run_cpu per model.  The sweep runs `threads`
  /// pool threads (0 = hardware concurrency) plus the calling thread, so
  /// threads + 1 workers.  `plan` may pass a cached group shape (null
  /// auto-tunes through plan_fusion); `telemetry`, when non-null,
  /// receives the batch snapshot with the fuse.* counters.
  std::vector<ModelResult> run_cpu_fused(
      const bio::SequenceDatabase& db, std::size_t threads = 0,
      const hmm::FusePlan* plan = nullptr,
      obs::ScanTelemetry* telemetry = nullptr) const;

  /// Scan with the SIMT kernels, auto placement per model.
  std::vector<ModelResult> run_gpu(const simt::DeviceSpec& dev,
                                   const bio::SequenceDatabase& db,
                                   const bio::PackedDatabase& packed) const;

 private:
  std::vector<HmmSearch> searches_;
};

}  // namespace finehmm::pipeline
