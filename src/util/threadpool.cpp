#include "util/threadpool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace finehmm {

namespace {

// Completion latch for the blocking entry points below.  The counter is
// a plain integer mutated ONLY under the mutex (not an atomic read by
// the waiter): the waiting thread can therefore observe completion only
// after the final worker has released the lock, so every local in the
// caller's frame (cursor, the latch itself, the task lambda) strictly
// outlives all worker accesses.  An atomic counter checked from the
// wait predicate races here — the waiter can see the final count, return,
// and pop the frame while the last worker is still between its
// fetch_add and the notify, touching freed stack.  ThreadSanitizer
// caught exactly that (stack-reuse write from the next call racing a
// read of the dead frame).  The mutex also carries the release/acquire
// edge that makes all worker writes visible to post-join readers.
class CompletionLatch {
 public:
  explicit CompletionLatch(std::size_t expected) : remaining_(expected) {}

  void count_down() FINEHMM_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    // Notify while still holding the lock: a notify after unlock would
    // touch the condition variable after the waiter may have destroyed
    // this latch.
    if (--remaining_ == 0) cv_.notify_all();
  }

  void wait() FINEHMM_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    while (remaining_ != 0) cv_.wait(mutex_);
  }

 private:
  Mutex mutex_;
  std::size_t remaining_ FINEHMM_GUARDED_BY(mutex_);

  CondVar cv_;
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stop_ && tasks_.empty()) cv_.wait(mutex_);
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::run_workers(
    std::size_t n, const std::function<void(std::size_t)>& body) {
  if (n == 0) n = 1;
  if (n > workers()) n = workers();

  std::atomic<std::size_t> next_worker{0};
  std::exception_ptr first_error = nullptr;
  Mutex error_mutex;  // guards first_error (locals can't carry GUARDED_BY)
  CompletionLatch done(n);

  auto task = [&] {
    const std::size_t worker =
        next_worker.fetch_add(1, std::memory_order_relaxed);
    try {
      body(worker);
    } catch (...) {
      MutexLock lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
    done.count_down();
  };

  {
    MutexLock lock(mutex_);
    for (std::size_t i = 0; i + 1 < n; ++i) tasks_.push(task);
  }
  cv_.notify_all();
  task();  // caller participates

  done.wait();
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::parallel_for_chunked(
    std::size_t count, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  if (chunk == 0) chunk = 1;
  // Dynamic scheduling: every participant pulls the next chunk from one
  // shared cursor, so uneven per-item cost (sequence-length imbalance)
  // still balances.
  std::atomic<std::size_t> cursor{0};
  const std::size_t n_chunks = (count + chunk - 1) / chunk;  // clamped
  run_workers(n_chunks, [&](std::size_t worker) {
    for (;;) {
      const std::size_t begin =
          cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= count) break;
      fn(worker, begin, std::min(begin + chunk, count));
    }
  });
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_chunked(count, 1,
                       [&fn](std::size_t, std::size_t i, std::size_t) {
                         fn(i);
                       });
}

}  // namespace finehmm
