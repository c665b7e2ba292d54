// Low-overhead scan tracing: per-thread span logs.
//
// The paper's argument is built on fine-grained performance accounting
// (Fig. 1's stage breakdown, Fig. 9's per-stage speedups, the kernel
// counter analysis of §V).  The engines count that work themselves —
// stage busy time and items land in every SearchResult::telemetry —
// and this module adds the one thing they do not keep: a timeline.  A
// Recorder owns one ThreadLog per dense worker id.  Each log is written
// only by its owning worker — no atomics, no locks on the recording
// path — and merged serially after the crew joins.
//
// The only switch is whether a recorder is attached: engines carry a
// `Recorder*` that defaults to null, and every instrumentation site then
// reduces to one pointer test with no heap allocation, which
// tests/test_telemetry.cpp measures rather than asserts.
//
// Concurrency contract: thread-compatible by partitioning, not by
// locking — each ThreadLog has exactly one writer (its dense worker id)
// and is read only after the crew joins, so there is no shared mutable
// state for a mutex to guard and no capability annotations here
// (docs/static_analysis.md §lock-free).  The single-writer rule is the
// invariant; TSan enforces it dynamically in the tsan preset.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "util/check.hpp"

namespace finehmm::obs {

/// Pipeline stages a worker can bank busy time against.  kBwd is the
/// checkpointed Backward + posterior decode over Forward survivors;
/// kOther covers non-cascade work (traceback, report assembly).
enum class Stage : int {
  kSsv = 0,
  kMsv = 1,
  kVit = 2,
  kFwd = 3,
  kBwd = 4,
  kOther = 5
};
inline constexpr int kStageCount = 6;
const char* stage_name(Stage s);

/// Spans one worker may log per Recorder; later ones are dropped and
/// counted, so a runaway scan cannot grow the log without bound.
inline constexpr std::size_t kMaxSpansPerThread = std::size_t{1} << 15;

/// One completed span: a named interval on one worker's timeline, in
/// nanoseconds since the owning Recorder's epoch.  `name` must outlive
/// the Recorder (the instrumentation sites use string literals).
struct SpanEvent {
  const char* name = "";
  std::uint32_t thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

/// Per-worker span log.  Only the owning worker may record into it; the
/// Recorder reads it after the crew joins.  Cacheline-aligned so
/// adjacent workers' logs never share a line.
class alignas(64) ThreadLog {
 public:
  void record_span(const char* name, std::int64_t start_ns,
                   std::int64_t dur_ns) {
    if (events_.size() >= kMaxSpansPerThread) {
      ++spans_dropped_;
      return;
    }
    events_.push_back(SpanEvent{name, thread_, start_ns, dur_ns});
  }

  std::uint32_t thread() const noexcept { return thread_; }
  const std::vector<SpanEvent>& events() const noexcept { return events_; }
  /// Spans discarded past kMaxSpansPerThread.
  std::uint64_t spans_dropped() const noexcept { return spans_dropped_; }

 private:
  friend class Recorder;
  explicit ThreadLog(std::uint32_t thread) : thread_(thread) {
    events_.reserve(1024);
  }

  std::uint32_t thread_;
  std::uint64_t spans_dropped_ = 0;
  std::vector<SpanEvent> events_;
};

/// Owns the per-thread span logs of one or more scans.  Thread-compatible
/// by construction rather than by locking: reserve_threads() and the
/// merging accessors must be called at serial points (before the crew
/// starts / after it joins); log(w) is then safe to use concurrently
/// because distinct workers touch distinct logs.
class Recorder {
 public:
  Recorder() : epoch_(Clock::now()) {}

  /// Ensure logs for workers [0, n) exist.  Serial-point only.
  void reserve_threads(std::size_t n);
  std::size_t threads() const noexcept { return logs_.size(); }

  /// Worker w's log; reserve_threads(w + 1) must have happened.
  ThreadLog* log(std::size_t w) {
    FINEHMM_CHECK(w < logs_.size(),
                  "worker log requested before reserve_threads covered it");
    return logs_[w].get();
  }
  const ThreadLog& log_at(std::size_t w) const { return *logs_[w]; }

  /// Monotonic nanoseconds since this Recorder was constructed.
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  /// All spans from all threads, sorted by (start, thread).  Serial-point
  /// only.
  std::vector<SpanEvent> merged_events() const;

  /// Chrome trace_event JSON ("X" complete events, microsecond
  /// timestamps) — load in chrome://tracing or https://ui.perfetto.dev.
  void write_chrome_trace(std::ostream& os) const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point epoch_;
  // unique_ptr slots: ThreadLog addresses stay stable across
  // reserve_threads growth, so a worker's cached pointer never dangles.
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// RAII span: records one SpanEvent on worker `thread` when it goes out
/// of scope.  Constructing one against a null Recorder is a no-op that
/// touches no memory beyond the object itself.
class ScopedSpan {
 public:
  ScopedSpan(Recorder* rec, std::size_t thread, const char* name) {
    if (rec == nullptr) return;
    rec_ = rec;
    log_ = rec->log(thread);
    name_ = name;
    start_ns_ = rec->now_ns();
  }
  ~ScopedSpan() {
    if (!rec_) return;
    log_->record_span(name_, start_ns_, rec_->now_ns() - start_ns_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Recorder* rec_ = nullptr;
  ThreadLog* log_ = nullptr;
  const char* name_ = "";
  std::int64_t start_ns_ = 0;
};

}  // namespace finehmm::obs

// OBS_SPAN(rec, thread, "name"): scoped trace span on worker `thread`.
#define FINEHMM_OBS_CONCAT_(a, b) a##b
#define FINEHMM_OBS_CONCAT(a, b) FINEHMM_OBS_CONCAT_(a, b)
#define OBS_SPAN(rec, thread, name)                                 \
  ::finehmm::obs::ScopedSpan FINEHMM_OBS_CONCAT(obs_span_, __LINE__)( \
      (rec), (thread), (name))
