// Minimal fixed-size thread pool with a blocking parallel_for.
//
// The SIMT grid launcher uses this to execute thread-blocks concurrently on
// the host.  On a single-core machine it degrades gracefully to serial
// execution (the pool still provides correct semantics).
//
// Concurrency contract: mutex_ guards the task queue and the stop flag;
// the blocking entry points are EXCLUDES(mutex_) — they enqueue under the
// lock, then participate in the work themselves, and must never be
// entered with the pool lock already held (the enqueued bodies would
// deadlock against it).  All three are one fork-join body: run_workers,
// with the two parallel_for forms as shared-cursor loops on top of it.
// See docs/static_analysis.md.
#pragma once

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace finehmm {

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Run fn(i) for i in [0, count) on up to workers() participants (the
  /// pool threads and the caller), each pulling the next index from a
  /// shared cursor.  Blocks until every participant finished.  Exceptions
  /// from fn propagate to the caller (first one wins); the participant
  /// that threw takes no further indices.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn)
      FINEHMM_EXCLUDES(mutex_);

  /// Dynamic chunked scheduling: workers repeatedly grab the next `chunk`
  /// indices from a shared atomic cursor and call
  /// fn(worker, begin, end) for each grabbed range [begin, end).
  ///
  /// `worker` is a dense id in [0, workers()) stable for the duration of
  /// the call, so callers can own per-worker state (filter DP rows,
  /// scratch buffers) allocated once up front instead of per task — the
  /// CPU analogue of the paper's per-warp work queue.  `chunk` == 0 is
  /// treated as 1.  Small chunks keep long-sequence imbalance from
  /// serializing the tail; large chunks amortize the atomic traffic.
  /// Blocks until every participant finished; exceptions propagate (first
  /// one wins, and the participant that threw takes no further chunks).
  void parallel_for_chunked(
      std::size_t count, std::size_t chunk,
      const std::function<void(std::size_t worker, std::size_t begin,
                               std::size_t end)>& fn)
      FINEHMM_EXCLUDES(mutex_);

  /// Participants of every blocking entry point and the upper bound on
  /// the `worker` ids they hand out: the pool threads + the calling
  /// thread, so ThreadPool(n) runs crews of n + 1.
  std::size_t workers() const noexcept { return workers_.size() + 1; }

  /// Run body(worker) exactly once on each of `n` participants (the caller
  /// plus up to n-1 pool threads), with dense worker ids in [0, n).  The
  /// bodies coordinate among themselves (shared cursors, queues); this is
  /// the primitive the pipeline's sweep core builds its
  /// producer/consumer crew on.  n is clamped to [1, workers()].  Blocks
  /// until every body returned; exceptions propagate (first one wins).
  void run_workers(std::size_t n,
                   const std::function<void(std::size_t worker)>& body)
      FINEHMM_EXCLUDES(mutex_);

 private:
  void worker_loop();

  /// Worker threads: written only by the constructor, joined by the
  /// destructor; size() reads are safe once construction completes.
  std::vector<std::thread> workers_;

  Mutex mutex_;
  std::queue<std::function<void()>> tasks_ FINEHMM_GUARDED_BY(mutex_);
  bool stop_ FINEHMM_GUARDED_BY(mutex_) = false;

  CondVar cv_;
};

}  // namespace finehmm
