// The resident search daemon's core: databases stay mmap-resident and
// concurrently queued client requests coalesce into shared database
// sweeps.
//
// hmmsearch amortizes nothing across invocations — every query pays the
// full cost of loading and walking the target database.  SearchServer is
// the repo's hmmpgmd analog: it holds .fsqdb databases open (zero-copy,
// page-cache warm), accepts requests over any Transport, and batches the
// requests queued at any instant into ONE HmmSearch::run_cpu_coalesced
// pass per database and verb — N clients cost one sweep, not N
// (docs/server.md).
//
// Threading model (three tiers):
//   * accept loop and connection threads — the shared daemon frontend
//                       (server::Frontend): sessions, PING/STATS, drain,
//                       payload decoding.  on_search/on_scan construct
//                       the per-request HmmSearch (profile build +
//                       calibration happen off the scan path) and push
//                       it onto the admission queue.  try_push failure =
//                       immediate OVERLOAD reply: the daemon sheds,
//                       never stalls.
//   * scheduler thread — pops what is queued (up to max_batch, never
//                       waiting for companions), groups it by database
//                       and verb, drops expired deadlines as each group
//                       starts, runs the coalesced sweep on the shared
//                       ThreadPool, and writes each client its result.
//                       SEARCH groups run at once; SCAN groups wait in
//                       a FIFO, and a running SCAN yields at its next
//                       chunk boundary whenever a request is queued.
//
// Drain (SIGTERM): begin_drain() stops the accept loop and flags new
// SEARCH/SCAN frames for rejection (kShuttingDown); everything already
// admitted still completes because the closed queue keeps delivering
// accepted items.  serve() returns once the scheduler has drained and
// every connection thread has joined — telemetry is complete at that
// point, ready to flush.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bio/seq_db_io.hpp"
#include "hmm/model_db.hpp"
#include "obs/histogram.hpp"
#include "obs/request_trace.hpp"
#include "obs/telemetry.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/workload.hpp"
#include "server/frontend.hpp"
#include "util/mpmc_queue.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/threadpool.hpp"

namespace finehmm::server {

struct ServerConfig {
  /// Threads in the shared scan pool.  Each sweep also runs on the
  /// scheduler thread, so it has scan_threads + 1 workers (a
  /// scan_threads=1 shard sweeps on 2).  0 sizes the crew at the
  /// hardware concurrency (one pool thread fewer): with no coalesce
  /// window the crew is rarely idle, and one worker more than the cores
  /// stalls every sweep's drain on a descheduled worker.
  std::size_t scan_threads = 0;
  /// Admission queue capacity: requests queued beyond this are shed with
  /// an OVERLOAD reply instead of blocking the client.
  std::size_t admission_capacity = 64;
  /// Most requests one batch will carry: the scheduler takes what is
  /// queued when it pops, up to this many, and never waits for more.
  std::size_t max_batch = 16;
  /// Test hook: start with the scheduler paused (set_paused(false) to
  /// release), so tests can deterministically fill the admission queue.
  bool start_paused = false;
  /// Completed requests kept in the trace ring (STATS v2
  /// `recent_traces`, /statusz).  Request-scoped tracing itself is
  /// always on — ids, stage attribution, and histograms cost one clock
  /// read per stage boundary, cheap enough for every request.
  std::size_t trace_ring_capacity = 64;
  /// Requests slower than this (end to end) dump their per-stage
  /// breakdown through the structured log at warn level, rate-limited.
  /// 0 disables the slow-request log.
  double slow_request_seconds = 0.0;
  /// What this node is in a cluster topology, answered in the PONG
  /// handshake so a coordinator can verify it is talking to a shard
  /// worker (finehmmd --shard-id; docs/cluster.md).
  NodeRole role = NodeRole::kStandalone;
  std::uint32_t shard_id = 0;  // meaningful when role == kShard
};

/// Monotonic request/connection accounting ("finehmm.server_stats.v2"),
/// on top of the frontend's shared counters.
struct ServerStats : FrontendCounters {
  std::uint64_t requests_admitted = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t requests_overloaded = 0;         // shed at admission
  std::uint64_t requests_deadline_expired = 0;   // queued past their deadline
  std::uint64_t requests_failed = 0;   // scan raised server-side
  std::uint64_t batches = 0;           // scheduler gathers
  std::uint64_t db_sweeps = 0;         // coalesced database passes
  std::uint64_t max_batch_size = 0;    // largest single coalesced group
  std::uint64_t responses_dropped = 0; // client gone before its reply
  // SCAN verb (fused many-model sweeps over the resident libraries):
  std::uint64_t scan_requests = 0;       // admitted SCAN requests
  std::uint64_t scan_sweeps = 0;         // fused library sweeps run
  std::uint64_t scan_models_scored = 0;  // sum of library size per sweep
  std::uint64_t scan_yields = 0;  // SCAN sweeps paused for queued requests
  std::uint64_t scan_fuse_groups = 0;    // groups in the current fuse plan
  double scan_lane_occupancy = 0.0;      // cell-weighted mean, 0..1
};

class SearchServer final : public Frontend {
 public:
  explicit SearchServer(ServerConfig cfg = {});
  ~SearchServer() override;

  // --- Resident data (load before serve(); not thread-safe against it) --
  /// mmap a .fsqdb and keep it resident; returns the db_id clients name.
  std::uint32_t add_database(const std::string& fsqdb_path);
  /// Adopt a heap database (tests and benches).
  std::uint32_t add_database(bio::SequenceDatabase db);
  /// Load a pressed model library (.fhpdb); models become addressable by
  /// name via ModelRefKind::kPressed.  Models without stored calibration
  /// are calibrated once here (deterministic), not per request.  Returns
  /// the number of models loaded.
  std::size_t add_model_library(const std::string& fhpdb_path);

  std::size_t database_count() const { return dbs_.size(); }
  std::size_t model_count() const { return models_.size(); }

  // --- Lifecycle (serve / begin_drain / draining: server::Frontend) ----
  /// Test hook: freeze/release the scheduler so tests can stage the
  /// admission queue deterministically.  Once set_paused(true) returns,
  /// no request is scheduled until the release (one the scheduler had
  /// already popped waits too) and a yielded SCAN does not resume.
  /// begin_drain() releases a pause.
  void set_paused(bool paused) FINEHMM_EXCLUDES(state_mu_);

  // --- Observability --------------------------------------------------
  ServerStats stats() const FINEHMM_EXCLUDES(stats_mu_);
  /// Batch telemetry aggregated across every coalesced sweep so far
  /// (engine "server"; the `batch.sweeps` / `batch.queries` counters on
  /// the msv stage make coalescing observable).
  obs::ScanTelemetry telemetry() const FINEHMM_EXCLUDES(stats_mu_);

  /// Always-on end-to-end latency (admission -> reply written), ns.
  obs::Histogram latency_histogram() const { return e2e_hist_.snapshot(); }

  /// The most recent completed request traces, oldest first.
  std::vector<obs::RequestTrace> recent_traces() const {
    return trace_ring_.snapshot();
  }

 private:
  struct Db {
    std::unique_ptr<bio::MappedSeqDb> mapped;
    std::unique_ptr<bio::SequenceDatabase> heap;
    pipeline::ScanSchedule schedule;  // cached length-bucketed order
    std::uint64_t sequences = 0;
    std::uint64_t residues = 0;
    pipeline::ScanSource view() const {
      return mapped ? pipeline::ScanSource(*mapped)
                    : pipeline::ScanSource(*heap);
    }
  };

  /// An admitted search waiting for (or riding in) a coalesced sweep.
  /// A SCAN request (is_scan) carries no model of its own: it rides the
  /// fused sweep of the whole resident library instead.
  struct Pending {
    std::uint32_t request_id = 0;
    std::uint32_t db_id = 0;
    std::shared_ptr<pipeline::HmmSearch> search;
    bool is_scan = false;
    double scan_evalue = 10.0;
    std::uint64_t scan_z_override = 0;  // 0 = shard-local Z
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline;
    std::shared_ptr<Session> session;
    // Request-scoped tracing: the id travels with the request from
    // admission through the sweep to the reply; the timestamps become
    // the queue-wait / coalesce-wait spans of its RequestTrace
    // (popped_at: when its group started).
    std::uint64_t trace_id = 0;
    std::chrono::steady_clock::time_point admitted_at;
    std::chrono::steady_clock::time_point popped_at;
  };

  void on_search(const std::shared_ptr<Session>& session,
                 std::uint32_t request_id, SearchRequest req) override
      FINEHMM_EXCLUDES(state_mu_, stats_mu_);
  void on_scan(const std::shared_ptr<Session>& session,
               std::uint32_t request_id, ScanRequest req) override
      FINEHMM_EXCLUDES(state_mu_, stats_mu_);
  /// The one admit path for SEARCH and SCAN: db check, the verb's model
  /// lookup (`resolve` fills the Pending or names the error), deadline,
  /// trace id, try_push / OVERLOAD.
  void admit(const std::shared_ptr<Session>& session,
             std::uint32_t request_id, std::uint32_t db_id,
             std::uint32_t deadline_ms,
             const std::function<std::optional<ErrorInfo>(Pending&)>& resolve)
      FINEHMM_EXCLUDES(state_mu_, stats_mu_);
  void on_drain() override FINEHMM_REQUIRES(state_mu_);
  /// ServerStats, the resident data, the latency histograms and the
  /// merged telemetry; recent traces and the telemetry document ride as
  /// STATS appendices.
  void declare_metrics(obs::MetricSet& m, obs::MetricFamily& events) const
      override FINEHMM_EXCLUDES(stats_mu_);
  /// Close the admission queue (accepted items keep flowing, which IS
  /// "finish in-flight") and join the scheduler once it is empty.
  void on_listener_closed() override;
  void scheduler_loop() FINEHMM_EXCLUDES(state_mu_, stats_mu_);
  /// Block while the scheduler is paused (set_paused).
  void wait_while_paused() FINEHMM_EXCLUDES(state_mu_);
  /// One batch: `first` (may be null) plus what is queued, up to
  /// max_batch.  Its SEARCH groups run now; its SCAN groups go to the
  /// back of scans_.  Runs with NO server lock held — a sweep blocks for
  /// milliseconds and replies re-enter per-session write_mu; holding
  /// state_mu_ or stats_mu_ across it would stall drain and every
  /// observability read.
  void run_batch(std::shared_ptr<Pending> first)
      FINEHMM_EXCLUDES(state_mu_, stats_mu_);
  /// The one group path: deadlines -> sweep -> account -> reply.  SEARCH
  /// and SCAN groups differ only in what the sweep scores, the reply
  /// encoder, and that a SCAN sweep yields to queued requests (running
  /// one run_batch per yield).  Expired requests leave `group`.
  void run_sweep(std::uint32_t db_id, bool scan,
                 std::vector<std::shared_ptr<Pending>>& group)
      FINEHMM_EXCLUDES(state_mu_, stats_mu_);
  static SearchResultWire search_reply(const Pending& p, const Db& db,
                                       const pipeline::SearchResult& r);
  ScanResultWire scan_reply(
      const Pending& p, const Db& db,
      const pipeline::HmmSearch::CoalescedScan& sweep) const;
  void merge_batch_telemetry(const obs::ScanTelemetry& t)
      FINEHMM_EXCLUDES(stats_mu_);
  /// Complete one request's trace: compute its spans from the sweep
  /// timing + its share of the batch's stage busy time, record the
  /// latency histograms, push the ring, and emit the slow-request log.
  void finish_request_trace(const Pending& p, const char* verb,
                            std::chrono::steady_clock::time_point sweep_start,
                            std::chrono::steady_clock::time_point sweep_end,
                            double serialize_seconds,
                            const obs::ScanTelemetry& sweep_telemetry,
                            std::size_t batch_size);

  ServerConfig cfg_;
  ThreadPool pool_;
  BoundedMpmcQueue<std::shared_ptr<Pending>> queue_;

  std::vector<Db> dbs_;
  std::map<std::string, hmm::ModelEntry> models_;
  /// The SCAN verb's resident library: one calibrated HmmSearch per
  /// loaded model (library load order) plus the cached fuse plan.  Built
  /// by add_model_library; the plan is tuned lazily on the first scan
  /// (when the SIMD tier is settled) and reused by every later sweep.
  std::vector<std::unique_ptr<pipeline::HmmSearch>> scan_searches_;
  std::vector<std::string> scan_names_;
  std::optional<hmm::FusePlan> scan_plan_;

  /// SCAN groups set aside by run_batch, run in arrival order after the
  /// SCAN in flight.  Scheduler thread only.
  struct ScanGroup {
    std::uint32_t db_id = 0;
    std::vector<std::shared_ptr<Pending>> group;
  };
  std::deque<ScanGroup> scans_;

  // Under the frontend's state_mu_ / stats_mu_.  The frontend-owned
  // counters live outside stats_, which leaves them at zero; stats()
  // overlays the live values.
  bool paused_ FINEHMM_GUARDED_BY(state_mu_) = false;
  CondVar pause_cv_;  // signals paused_ edges; waited on under state_mu_
  ServerStats stats_ FINEHMM_GUARDED_BY(stats_mu_);
  obs::ScanTelemetry telemetry_ FINEHMM_GUARDED_BY(stats_mu_);

  // Always-on observability.  Histograms record in nanoseconds via
  // relaxed atomic adds (lock-free, zero allocation); the trace ring is
  // mutex-guarded but touched once per completed request.
  obs::ConcurrentHistogram e2e_hist_;
  obs::ConcurrentHistogram queue_hist_;
  obs::ConcurrentHistogram sweep_hist_;
  obs::TraceRing trace_ring_;

  std::thread scheduler_;  // started last in the constructor
};

}  // namespace finehmm::server
