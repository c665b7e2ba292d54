// Bounded multi-producer/multi-consumer queue.
//
// The pipeline's sweep core hands MSV survivors from filter workers to
// whichever worker goes idle first (the paper's third parallelism tier:
// a global work queue drained opportunistically).  The queue is a fixed
// ring under one mutex — at pipeline survivor rates (a few percent of the
// database) contention is negligible, and a bounded ring gives natural
// backpressure: try_push fails when full and the producer rescores one
// item itself instead of blocking ("help-first"), so the crew can never
// deadlock.
//
// Both the sweep core and the search daemon's admission queue also need
// close() (producers are gone for good, not merely idle) and a timed
// blocking pop (consumers sleep on a condition variable instead of
// spinning, leaving the cores to co-located processes).  A closed queue
// rejects pushes but keeps handing out the items already accepted, so
// "drain then stop" is one natural loop:
//
//   while (q.pop_wait(item, 50ms) != PopStatus::kClosed) { ... }
//
// Concurrency contract (compiler-enforced on Clang, see
// docs/static_analysis.md): every piece of ring state is GUARDED_BY
// mutex_; pop_locked REQUIRES it; the public entry points are EXCLUDES —
// calling them with mutex_ already held would self-deadlock, and on the
// registered lock order (docs/static_analysis.md §registry) this queue's
// mutex nests INSIDE SearchServer::state_mu_ and never the other way.
//
// Checked-build invariants (util/check.hpp, on under the sanitizer
// presets): occupancy never exceeds capacity, pops never outrun pushes,
// and every pop hands out the oldest queued item (global FIFO order,
// verified with per-item tickets).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.hpp"
#include "util/error.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace finehmm {

/// Outcome of a timed blocking pop.
enum class PopStatus {
  kItem,     // an item was handed out
  kTimeout,  // queue stayed empty past the deadline (and is still open)
  kClosed,   // queue is closed AND fully drained: no item will ever come
};

template <class T>
class BoundedMpmcQueue {
 public:
  /// End-of-run telemetry, maintained under the ring mutex (a few
  /// integer bumps on operations that already pay the lock).  Invariants
  /// a drained run must satisfy: pops == pushes, push_failures counts
  /// rejected attempts only (ring full or queue closed), max_depth <=
  /// capacity.
  struct Stats {
    std::uint64_t pushes = 0;         // items accepted
    std::uint64_t pops = 0;           // items handed out
    std::uint64_t push_failures = 0;  // try_push calls rejected
    std::uint64_t max_depth = 0;      // high-water occupancy
  };

  explicit BoundedMpmcQueue(std::size_t capacity)
      : capacity_(capacity), ring_(capacity) {
    FH_REQUIRE(capacity >= 1, "queue capacity must be at least 1");
    FINEHMM_IF_CHECKS(tickets_.resize(capacity);)
  }

  std::size_t capacity() const noexcept { return capacity_; }

  /// Non-blocking push; false when the ring is full or the queue closed.
  bool try_push(const T& item) FINEHMM_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      if (closed_ || count_ == capacity_) {
        ++stats_.push_failures;
        return false;
      }
      const std::size_t slot = (head_ + count_) % capacity_;
      ring_[slot] = item;
      FINEHMM_IF_CHECKS(tickets_[slot] = next_push_ticket_++;)
      ++count_;
      ++stats_.pushes;
      if (count_ > stats_.max_depth) stats_.max_depth = count_;
      FINEHMM_CHECK(count_ <= capacity_,
                    "queue occupancy exceeded its capacity");
    }
    cv_.notify_one();
    return true;
  }

  /// Non-blocking pop; false when the ring is empty.
  bool try_pop(T& out) FINEHMM_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (count_ == 0) return false;
    pop_locked(out);
    return true;
  }

  /// Blocking pop with a deadline.  Returns kItem with `out` filled,
  /// kTimeout when the queue stayed empty past `timeout` (still open),
  /// or kClosed once the queue is closed and every accepted item has
  /// been handed out.  Items queued before close() are still delivered.
  PopStatus pop_wait(T& out, std::chrono::milliseconds timeout)
      FINEHMM_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (count_ == 0) {
      if (closed_) return PopStatus::kClosed;
      if (cv_.wait_until(mutex_, deadline) == std::cv_status::timeout) {
        if (count_ != 0) break;  // raced with a push at the deadline
        return closed_ ? PopStatus::kClosed : PopStatus::kTimeout;
      }
    }
    pop_locked(out);
    return PopStatus::kItem;
  }

  /// Close the queue: all future try_push calls fail, and once the ring
  /// drains, pop_wait returns kClosed instead of blocking.  Idempotent;
  /// wakes every waiting consumer.
  void close() FINEHMM_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const FINEHMM_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return closed_;
  }

  bool empty() const FINEHMM_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return count_ == 0;
  }

  /// Instantaneous occupancy (items accepted and not yet popped) — the
  /// server's /statusz queue-depth gauge.
  std::size_t size() const FINEHMM_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return count_;
  }

  /// Snapshot of the lifetime counters.
  Stats stats() const FINEHMM_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    FINEHMM_CHECK(stats_.max_depth <= capacity_,
                  "queue high-water mark exceeded its capacity");
    return stats_;
  }

 private:
  /// Hand out the oldest item.  Caller holds the mutex; count_ > 0.
  void pop_locked(T& out) FINEHMM_REQUIRES(mutex_) {
    out = ring_[head_];
    ring_[head_] = T();  // release owning payloads (e.g. shared_ptr) eagerly
    // FIFO visibility: the item handed out must be the oldest accepted
    // one — its push ticket is exactly the number of pops so far.
    FINEHMM_CHECK(tickets_[head_] == next_pop_ticket_,
                  "queue FIFO order violated");
    FINEHMM_IF_CHECKS(++next_pop_ticket_;)
    head_ = (head_ + 1) % capacity_;
    --count_;
    ++stats_.pops;
    FINEHMM_CHECK(stats_.pops <= stats_.pushes,
                  "queue handed out more items than it accepted");
  }

  /// Fixed at construction; readable without the lock (capacity()).
  const std::size_t capacity_;

  mutable Mutex mutex_;
  std::vector<T> ring_ FINEHMM_GUARDED_BY(mutex_);
  std::size_t head_ FINEHMM_GUARDED_BY(mutex_) = 0;
  std::size_t count_ FINEHMM_GUARDED_BY(mutex_) = 0;
  bool closed_ FINEHMM_GUARDED_BY(mutex_) = false;
  Stats stats_ FINEHMM_GUARDED_BY(mutex_);
#if FINEHMM_CHECKS_ENABLED
  std::vector<std::uint64_t> tickets_ FINEHMM_GUARDED_BY(mutex_);
  std::uint64_t next_push_ticket_ FINEHMM_GUARDED_BY(mutex_) = 0;
  std::uint64_t next_pop_ticket_ FINEHMM_GUARDED_BY(mutex_) = 0;
#endif

  CondVar cv_;
};

}  // namespace finehmm
