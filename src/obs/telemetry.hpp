// ScanTelemetry: the machine-readable performance snapshot every engine
// emits through one schema.
//
// One scan — the serial CPU reference, the overlapped sweep core (one
// query or a batch), or the simulated GPU — fills one ScanTelemetry.  The shape is deliberately
// flat and self-describing so the perf trajectory documents itself:
// bench_throughput embeds it into BENCH_throughput.json, hmmsearch_tool
// dumps it behind --telemetry, and docs/observability.md specifies the
// schema.  The SIMT simulator's PerfCounters surface as per-stage
// counter key/value pairs, so host and device runs read the same way.
#pragma once

#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/recorder.hpp"
#include "simt/counters.hpp"

namespace finehmm::obs {

class MetricSet;

/// True when `units / seconds` is a meaningful rate: a positive,
/// non-denormal, finite elapsed time and a finite numerator.  Guards
/// every throughput computation so a zero-cost stage (nothing survived,
/// clock too coarse) reports "no rate" instead of inf/nan.
inline bool valid_rate(double units, double seconds) {
  return std::isfinite(units) && std::isfinite(seconds) &&
         seconds >= 1e-12;  // < 1 ns cannot be a real measurement
}

/// units/seconds, or 0.0 when the elapsed time is unusable.
inline double safe_rate(double units, double seconds) {
  return valid_rate(units, seconds) ? units / seconds : 0.0;
}

/// JSON fragment for a rate: the number, or `null` when the elapsed
/// time is zero/denormal — never `inf` or `nan`, which are not JSON.
std::string json_rate(double units, double seconds);

/// One pipeline stage as every engine reports it.
struct StageTelemetry {
  std::string stage;            // "ssv" | "msv" | "vit" | "fwd" | "bwd"
  std::uint64_t n_in = 0;       // sequences entering
  std::uint64_t n_passed = 0;   // sequences surviving
  double cells = 0.0;           // DP cells evaluated
  double wall_seconds = 0.0;    // stage wall clock (0 when stages overlap)
  double busy_seconds = 0.0;    // per-thread busy time, merged at drain
  /// Extra per-stage counters (the SIMT simulator's PerfCounters land
  /// here; host stages may add their own).  Keys are schema-stable.
  std::vector<std::pair<std::string, double>> counters;

  double pass_rate() const {
    return n_in ? static_cast<double>(n_passed) / static_cast<double>(n_in)
                : 0.0;
  }
};

/// The sweep core's survivor queue, end-of-scan totals.
/// Invariants (tested): dequeued == enqueued (every produced survivor is
/// drained), enqueue_stalls counts rejected attempts only, and
/// max_depth <= capacity.
struct QueueTelemetry {
  std::uint64_t capacity = 0;
  std::uint64_t enqueued = 0;            // successful pushes
  std::uint64_t dequeued = 0;            // successful pops
  std::uint64_t enqueue_stalls = 0;      // try_push rejections (ring full)
  std::uint64_t help_first_rescues = 0;  // producer drained one itself
  std::uint64_t max_depth = 0;           // high-water occupancy
};

/// One geometric length bucket of the scan schedule, in emission order
/// (longest bucket first).
struct BucketTelemetry {
  std::uint64_t sequences = 0;
  std::uint64_t residues = 0;
};

/// One worker's share of the scan.
struct ThreadTelemetry {
  std::uint32_t thread = 0;
  double stage_busy_seconds[kStageCount] = {};
  std::uint64_t stage_items[kStageCount] = {};
  std::uint64_t sequences_scored = 0;
  std::uint64_t help_first_rescues = 0;
  std::uint64_t decoded_bytes = 0;
  std::uint64_t spans = 0;
  std::uint64_t spans_dropped = 0;
};

struct ScanTelemetry {
  std::string engine;           // "cpu_serial" | "cpu_overlapped" |
                                // "cpu_coalesced" | "cpu_fused" | "gpu_sim"
  std::uint64_t threads = 1;
  std::uint64_t sequences = 0;  // database size
  std::uint64_t residues = 0;   // database residues
  double wall_seconds = 0.0;    // end-to-end scan wall clock

  // Where the residues lived during the scan: bytes resident in the
  // mmap'd .fsqdb (packed 5-bit) vs. decoded on the heap, plus bytes
  // unpacked into per-worker scratch for the word stages.
  bool zero_copy = false;
  std::uint64_t mapped_bytes = 0;
  std::uint64_t heap_bytes = 0;
  std::uint64_t decoded_bytes = 0;

  std::vector<StageTelemetry> stages;
  std::optional<QueueTelemetry> queue;       // sweep core only
  std::vector<BucketTelemetry> buckets;      // bucketed engines only
  std::vector<ThreadTelemetry> per_thread;   // one entry per worker

  /// Total DP cells across all stages.
  double total_cells() const {
    double c = 0.0;
    for (const auto& s : stages) c += s.cells;
    return c;
  }
  /// End-to-end cells/sec (0 when the wall clock is unusable).
  double cells_per_sec() const {
    return safe_rate(total_cells(), wall_seconds);
  }
  const StageTelemetry* stage(const std::string& name) const;

  /// The unified JSON schema (docs/observability.md).  `indent` is the
  /// number of leading spaces on every line, so callers can embed the
  /// object into a larger document.
  void write_json(std::ostream& os, int indent = 0) const;
  /// Declare the snapshot as flat `finehmm_scan_*` / `finehmm_stage_*` /
  /// `finehmm_queue_*` / `finehmm_thread_*` / `finehmm_bucket_*` metric
  /// families labelled by engine/stage/thread, for /metrics.  They carry
  /// no STATS path: STATS embeds write_json's document instead.
  void declare_metrics(MetricSet& m) const;
};

/// Flatten the SIMT simulator's counters into schema-stable key/value
/// pairs for StageTelemetry::counters.
std::vector<std::pair<std::string, double>> counters_kv(
    const simt::PerfCounters& c);

}  // namespace finehmm::obs
