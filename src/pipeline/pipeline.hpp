// The HMMER 3.0 hmmsearch acceleration pipeline (paper Fig. 1).
//
//   100% of sequences -> MSV (P <= 0.02) -> ~2% -> P7Viterbi (P <= 0.001)
//   -> ~0.1% -> Forward -> reported hits with E-values.
//
// Each filter converts its raw score to a bit score against null1 and
// then to a P-value using the model's calibrated Gumbel (filters) or
// exponential-tail (Forward) statistics.  Sequences whose byte MSV
// overflowed pass unconditionally (their score is provably huge).
//
// Three engines share identical semantics and thresholds:
//   * run_cpu — the serial striped-filter reference (the paper's
//     baseline) every other engine is tested against bit for bit;
//   * one overlapped sweep core behind every multi-threaded CPU entry
//     (run_cpu_overlapped for one query, run_cpu_coalesced for many):
//     a length-scheduled byte-filter sweep whose survivors any idle
//     worker rescores from a shared queue;
//   * run_gpu — the warp-synchronous SIMT kernels for SSV, MSV and
//     P7Viterbi on one or more devices (the Forward stage stays on the
//     CPU, as in the paper).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bio/packing.hpp"
#include "bio/sequence.hpp"
#include "cpu/posterior.hpp"
#include "cpu/trace.hpp"
#include "gpu/placement_policy.hpp"
#include "hmm/model_group.hpp"
#include "hmm/plan7.hpp"
#include "hmm/profile.hpp"
#include "obs/telemetry.hpp"
#include "pipeline/scan_source.hpp"
#include "profile/fwd_profile.hpp"
#include "profile/msv_profile.hpp"
#include "profile/vit_profile.hpp"
#include "stats/calibrate.hpp"
#include "util/threadpool.hpp"

namespace finehmm::pipeline {

struct Thresholds {
  double msv_p = 0.02;    // HMMER's F1
  double vit_p = 0.001;   // HMMER's F2
  double report_evalue = 10.0;
  /// Enable the SSV pre-filter ahead of MSV (extension; the design
  /// HMMER 3.1 adopted).  SSV is cheaper per cell — no J bookkeeping and
  /// one reduction per sequence — but blind to multi-segment hits, so it
  /// runs at a looser threshold.
  bool use_ssv_prefilter = false;
  double ssv_p = 0.06;
  /// Run the Viterbi traceback on every reported hit (costs one extra
  /// O(M*L) pass per hit; hits are rare so this is cheap).
  bool compute_alignments = false;
  /// Apply the null2 composition-bias correction to Forward scores
  /// (HMMER does; see pipeline/null2.hpp).
  bool null2_correction = true;
  /// Run posterior decoding on reported hits and attach per-domain
  /// envelopes, scores and alignments (hmmsearch's domain table).
  bool define_domains = false;
  /// Effective database size Z for E-values; 0 = the scanned database's
  /// own sequence count.  A cluster shard holding 1/Nth of a sharded
  /// database scores with the cluster-total Z here so its E-values (and
  /// the e <= report_evalue filter) are bit-identical to an unsharded
  /// scan of the whole database (docs/cluster.md).
  std::uint64_t z_override = 0;
};

struct Hit {
  std::size_t seq_index = 0;
  std::string name;
  float msv_bits = 0.0f;
  float vit_bits = 0.0f;
  float fwd_bits = 0.0f;   // after the null2 correction, when enabled
  float bias_bits = 0.0f;  // the null2 correction itself (hmmsearch "bias")
  double pvalue = 1.0;
  double evalue = 1e9;
  /// Viterbi alignments of the hit (one per matched segment), filled when
  /// Thresholds::compute_alignments is set.
  std::vector<cpu::Alignment> alignments;
  /// Posterior-decoded domain envelopes, filled when
  /// Thresholds::define_domains is set.
  std::vector<cpu::Domain> domains;
};

struct StageStats {
  std::size_t n_in = 0;       // sequences entering the stage
  std::size_t n_passed = 0;   // sequences surviving
  double cells = 0.0;         // DP cells evaluated
  /// Measured host time of this stage.  For the serial engine this is
  /// the stage's wall clock; for the sweep core (where stages have no
  /// wall-clock identity) it is busy time, accumulated per worker or per
  /// survivor during the scan and merged serially at drain — never
  /// written concurrently.
  double seconds = 0.0;
  double pass_rate() const {
    return n_in ? static_cast<double>(n_passed) / n_in : 0.0;
  }
};

struct SearchResult {
  std::vector<Hit> hits;            // sorted by E-value
  StageStats ssv;  // only populated when the SSV pre-filter is enabled
  StageStats msv, vit, fwd;
  /// Checkpointed Backward + posterior decode over reported hits; only
  /// populated when Thresholds::define_domains is set.  `cells` counts
  /// the backward matrix (L*M per decode); the decode also replays the
  /// checkpointed Forward internally, so its time is banked here, not
  /// under fwd.
  StageStats bwd;
  /// Unified performance snapshot (docs/observability.md).  Every engine
  /// fills it on every run, through the same schema; an attached recorder
  /// (set_recorder) only adds its span tallies to the per-thread rows.
  std::optional<obs::ScanTelemetry> telemetry;
};

struct ScanSchedule;  // pipeline/workload.hpp
class BatchScanner;   // pipeline/batch_scanner.hpp

/// A configured, calibrated search: one query model, ready to scan
/// databases with any engine.
class HmmSearch {
 public:
  HmmSearch(const hmm::Plan7Hmm& model, Thresholds thresholds = {},
            stats::CalibrateOptions calib = {});

  /// Construct with precomputed calibration (e.g. STATS lines read from a
  /// .hmm file), skipping the random-sequence simulation.
  HmmSearch(const hmm::Plan7Hmm& model, const stats::ModelStats& model_stats,
            Thresholds thresholds = {});

  /// Attach a span recorder: subsequent runs trace spans into it.  Null
  /// (the default) reduces every instrumentation site to one pointer
  /// test; the telemetry snapshot is filled either way.  The recorder
  /// must outlive the runs and must not be shared by concurrent scans.
  void set_recorder(obs::Recorder* rec) noexcept { recorder_ = rec; }
  obs::Recorder* recorder() const noexcept { return recorder_; }

  const hmm::SearchProfile& profile() const noexcept { return prof_; }
  const profile::MsvProfile& msv_profile() const noexcept { return msv_; }
  const profile::VitProfile& vit_profile() const noexcept { return vit_; }
  const stats::ModelStats& model_stats() const noexcept { return stats_; }
  const Thresholds& thresholds() const noexcept { return thr_; }

  /// Scan with the striped CPU filters (single thread): the reference
  /// every other engine reproduces bit for bit.  All CPU engines take a
  /// ScanSource, so they accept a heap SequenceDatabase or a zero-copy
  /// MappedSeqDb interchangeably and report identical hits.
  SearchResult run_cpu(ScanSource src) const;

  /// Multi-threaded scan through the overlapped sweep core: workers fan
  /// the length-bucketed SSV/MSV sweep out over the pool and push
  /// survivors onto a bounded queue that any worker drains when idle,
  /// rescoring Viterbi -> Forward -> null2 / posterior immediately
  /// instead of in barrier-separated stages — the paper's third
  /// parallelism tier (global work queue) on the host.  Results are
  /// stored per survivor and the stage stats replayed serially, so hits
  /// and stage counts/cells are bit-identical to run_cpu.  Stage
  /// `seconds` are busy time merged at drain (stages overlap, so no
  /// per-stage wall clock exists; the end-to-end wall clock lands in
  /// SearchResult::telemetry).  The crew is the pool's threads plus the
  /// calling thread (pool.workers()): `threads` pool threads (0 =
  /// hardware concurrency) make threads + 1 workers.  The pool overload
  /// reuses a caller-owned crew across scans.
  SearchResult run_cpu_overlapped(ScanSource src,
                                  std::size_t threads = 0) const;
  SearchResult run_cpu_overlapped(ScanSource src, ThreadPool& pool) const;

  /// Many queries (or library models) through the same sweep core in a
  /// SINGLE pass over the database.
  struct CoalescedScan {
    /// Index-aligned with `searches`.  SSV/MSV `seconds` are the shared
    /// sweep's busy time (one pass serves every query, so they are not
    /// additive across queries); vit/fwd/bwd `seconds` are the busy time
    /// of this query's own survivors.
    std::vector<SearchResult> per_model;
    /// One batch-level snapshot (engine "cpu_coalesced", or "cpu_fused"
    /// with a plan): aggregated stage totals plus `batch.queries` /
    /// `batch.sweeps` counters on the msv stage, and with a plan
    /// `fuse.groups` / `fuse.fused_models` / `fuse.models_per_group` /
    /// `fuse.lane_occupancy` (docs/multi_model.md).
    obs::ScanTelemetry telemetry;
  };

  /// The byte-filter stage walks the residue stream once, scoring every
  /// query against each sequence while it is hot in cache; every
  /// (query, sequence) survivor then rescores on whichever worker is
  /// idle.  Hits and stage counts for query i are bit-identical to
  /// `searches[i]->run_cpu(src)`.  This is the search daemon's batching
  /// primitive — N queued requests cost one database pass, not N
  /// (docs/server.md) — and, with a `plan`, the hmmscan dual: short
  /// models lane-packed into shared group tables (cpu::FusedMsvGroup) so
  /// one SSV/MSV sweep scores a whole group per sequence (see
  /// plan_fusion).  Every other query (every query, without a plan) rides
  /// the same byte-stage loop as a one-member group, so the sweep has one
  /// SSV/MSV path.  `schedule` may pass a cached length-bucketed order
  /// for `src`; null builds it.  `rec` attaches span tracing; the
  /// telemetry snapshot is filled either way, its per-thread rows counting
  /// the (query, sequence) pairs each worker scored per stage.
  static CoalescedScan run_cpu_coalesced(
      const std::vector<const HmmSearch*>& searches, ScanSource src,
      ThreadPool& pool, const hmm::FusePlan* plan = nullptr,
      const ScanSchedule* schedule = nullptr, obs::Recorder* rec = nullptr);

  /// The sweep core behind run_cpu_overlapped and run_cpu_coalesced (the
  /// byte stage over fuse groups, one-member groups for unfused queries;
  /// the word stages through one BatchScanner per query) as a resumable
  /// object, so a long sweep can give way to other work between chunks
  /// (the daemon's SCAN verb, docs/server.md §3).  The constructor sets
  /// up once — scanners, fuse groups, keep bytes, per-worker clocks;
  /// advance() runs the crew from the current length-schedule position;
  /// finish() replays the results serially.  Every per-(query, sequence)
  /// decision and the replay are independent of when a chunk runs, so
  /// hits, stage counts and per-thread item totals do not depend on
  /// where advances stopped.
  class Sweep {
   public:
    /// The arguments of run_cpu_coalesced; the crew is pool.workers().
    Sweep(const std::vector<const HmmSearch*>& queries, ScanSource src,
          const ThreadPool& pool, const hmm::FusePlan* plan = nullptr,
          const ScanSchedule* schedule = nullptr,
          obs::Recorder* rec = nullptr);
    ~Sweep();
    Sweep(const Sweep&) = delete;
    Sweep& operator=(const Sweep&) = delete;

    /// Run the crew on `pool` (the construction pool's size) from the
    /// current schedule position.  Each worker scores one chunk, then
    /// polls `yield` before fetching another (from every worker
    /// concurrently, so it must be thread-safe); once it returns true, no
    /// worker fetches again, the survivors already queued are rescored,
    /// and advance returns.  An empty `yield` runs to the end.
    /// Returns whether the byte stage has covered the whole database.
    /// A sweep whose advance threw is unusable.
    bool advance(ThreadPool& pool, const std::function<bool()>& yield = {});
    /// The serial replay, once an advance returned true.  The snapshot is
    /// run_cpu_coalesced's; its wall time is the sweep's own — setup,
    /// advances, replay — without the intervals between advances.
    CoalescedScan finish();

   private:
    struct State;
    std::unique_ptr<State> state_;
  };

  /// Scan with the warp-synchronous SIMT kernels: SSV (when enabled) ->
  /// MSV -> P7Viterbi on `devs`, then Forward on the CPU through the same
  /// rescore as run_cpu.  Each stage's items are split across the devices
  /// by residues (gpu::partition_by_residues, the paper's Fig. 11 setup);
  /// one device takes everything.  `placement` applies to every stage;
  /// nullopt lets the occupancy policy choose per stage and device (the
  /// "optimal strategy" of Fig. 9).  Hits and stage counts are
  /// bit-identical to run_cpu for any device list; the telemetry snapshot
  /// (engine "gpu_sim") carries the SIMT counters summed over devices.
  SearchResult run_gpu(
      const std::vector<simt::DeviceSpec>& devs,
      const bio::SequenceDatabase& db, const bio::PackedDatabase& packed,
      std::optional<gpu::ParamPlacement> placement = std::nullopt) const;

 private:
  /// Serial post-filter logic (run_cpu, run_gpu): P7Viterbi
  /// survivors -> Forward -> hits, on worker 0 of `scanner`.
  void forward_stage(ScanSource src, BatchScanner& scanner,
                     const std::vector<std::size_t>& survivors,
                     const std::vector<float>& vit_bits,
                     SearchResult& out) const;

  obs::Recorder* recorder_ = nullptr;
  hmm::Plan7Hmm model_;
  hmm::SearchProfile prof_;
  profile::MsvProfile msv_;
  profile::VitProfile vit_;
  profile::FwdProfile fwd_;
  stats::ModelStats stats_;
  Thresholds thr_;
};

/// The fuse plan for `searches` (index order) at the active SIMD tier's
/// byte lane width under the default policy (hmm::plan_model_groups):
/// the one place the daemon, MultiSearch and the tools derive a plan for
/// HmmSearch::run_cpu_coalesced.
hmm::FusePlan plan_fusion(const std::vector<const HmmSearch*>& searches);

}  // namespace finehmm::pipeline
