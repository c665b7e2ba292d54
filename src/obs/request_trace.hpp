// Request-scoped tracing for finehmmd.
//
// Every admitted SEARCH/SCAN request gets a 64-bit trace id at
// admission; the id rides through the admission queue, the coalesced or
// fused sweep, and the reply, so one request's life is reconstructable
// end to end.  When the request completes, the server folds its timing
// into one RequestTrace record:
//
//   queue_seconds      admission enqueue -> its group starts (for a
//                      SCAN, this includes waiting in the SCAN FIFO)
//   coalesce_seconds   group start -> sweep start (the deadline check;
//                      about 0 — the scheduler never waits for
//                      companions)
//   sweep_seconds      the sweep this request rode in, without the
//                      intervals a SCAN yielded to other batches
//   sweep_span_seconds sweep start -> sweep end on the wall clock, the
//                      yielded intervals included (the sweep starts at
//                      queue + coalesce)
//   stage_seconds[]    the sweep's ssv/msv/vit/fwd/bwd busy time,
//                      attributed to this request as its share of the
//                      batch (whole-batch seconds / batch_size)
//   serialize_seconds  result encode + socket write
//
// Completed traces land in a bounded TraceRing (newest-wins, fixed
// capacity, one mutex — completion is request-rate, not hot-path) that
// the STATS verb snapshots over the wire, and write_chrome_trace()
// renders any trace set in the same trace_event JSON the in-process
// Recorder emits, so `chrome://tracing` / Perfetto opens both.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/recorder.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace finehmm::obs {

/// One completed request, as recorded by the server.
struct RequestTrace {
  std::uint64_t trace_id = 0;
  std::uint32_t request_id = 0;   // client-chosen frame id
  const char* verb = "?";         // "SEARCH" | "SCAN" (static strings)
  std::uint64_t start_ns = 0;     // admission time, ns since server start
  double queue_seconds = 0.0;
  double coalesce_seconds = 0.0;
  double sweep_seconds = 0.0;
  double sweep_span_seconds = 0.0;
  double serialize_seconds = 0.0;
  double total_seconds = 0.0;     // admission -> reply written
  /// Per-stage busy share of the sweep attributed to this request
  /// (indexed by obs::Stage; zeros when the sweep had no telemetry).
  double stage_seconds[kStageCount] = {};
  std::uint32_t batch_size = 1;   // requests sharing the sweep
};

/// Nonzero, process-unique 64-bit trace id (splitmix64 over an atomic
/// counter seeded from the clock and pid, so restarts don't collide).
std::uint64_t next_trace_id();

/// "0x" + 16 lowercase hex digits — the one rendering every surface
/// (logs, replies, /statusz, chrome traces) uses for a trace id.
std::string trace_id_hex(std::uint64_t trace_id);

/// Bounded ring of the most recent completed traces.  push() overwrites
/// the oldest once full; snapshot() returns oldest-first.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void push(const RequestTrace& trace) FINEHMM_EXCLUDES(mu_);
  std::vector<RequestTrace> snapshot() const FINEHMM_EXCLUDES(mu_);
  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;

  mutable Mutex mu_;
  /// Grows to capacity_, then wraps (next_ is the overwrite cursor).
  std::vector<RequestTrace> ring_ FINEHMM_GUARDED_BY(mu_);
  std::size_t next_ FINEHMM_GUARDED_BY(mu_) = 0;
};

/// Render traces in the Chrome trace_event format (same shape as
/// Recorder::write_chrome_trace: "X" events, microsecond ts/dur, one
/// pid).  Each request gets its own tid so its queue/coalesce/sweep/
/// serialize spans stack on one track; the trace id and batch size ride
/// in `args`.  Spans sit where they happened: the sweep covers its whole
/// wall span (a yielded SCAN's gaps included; its active sweep_seconds
/// ride in `args`), and serialize ends the request.
void write_chrome_trace(std::ostream& os,
                        const std::vector<RequestTrace>& traces);

/// One trace as a JSON object (the STATS v2 `recent_traces` element and
/// the slow-request log share this shape).  `indent` prefixes every
/// line, matching ScanTelemetry::write_json.
void write_trace_json(std::ostream& os, const RequestTrace& trace,
                      int indent = 0);

}  // namespace finehmm::obs
