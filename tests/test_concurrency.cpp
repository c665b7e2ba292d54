// Concurrency stress tests, written for the sanitizer presets.
//
// Under the tsan preset these drive the lock-free-adjacent machinery —
// BoundedMpmcQueue under full producer/consumer contention, concurrent
// obs::Recorder span emission, the thread pool's chunked cursor — hard
// enough that any missing happens-before edge shows up as a data-race
// report.  Under the asan/ubsan presets (FINEHMM_CHECKS on) the same
// runs exercise the queue's ticket-FIFO and accounting invariants.
// They also pass (quickly) in plain builds, where they still verify the
// functional contracts: every item delivered exactly once, dense stable
// worker ids, deterministic post-join merges.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/log.hpp"
#include "obs/recorder.hpp"
#include "util/mpmc_queue.hpp"
#include "util/threadpool.hpp"

namespace {

using namespace finehmm;

// ------------------------------------------------------- BoundedMpmcQueue

// Encode (producer, sequence) into one queue item so consumers can check
// per-producer FIFO order without any side channel.
constexpr std::uint64_t kSeqBits = 32;
std::uint64_t encode(std::uint64_t producer, std::uint64_t seq) {
  return (producer << kSeqBits) | seq;
}

TEST(MpmcQueueStress, EveryItemDeliveredExactlyOnceInFifoOrder) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 4;
  constexpr std::uint64_t kItems = 1500;  // per producer
  BoundedMpmcQueue<std::uint64_t> queue(32);

  std::atomic<std::size_t> producers_done{0};
  std::vector<std::atomic<int>> delivered(kProducers * kItems);
  for (auto& d : delivered) d.store(0, std::memory_order_relaxed);

  std::vector<std::thread> crew;
  for (std::size_t p = 0; p < kProducers; ++p) {
    crew.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kItems; ++i) {
        while (!queue.try_push(encode(p, i))) std::this_thread::yield();
      }
      producers_done.fetch_add(1, std::memory_order_release);
    });
  }
  // Each consumer records the last sequence number it saw per producer:
  // the queue is globally FIFO, so the subsequence any single consumer
  // observes from one producer must be strictly increasing.
  std::vector<std::vector<std::int64_t>> last_seen(
      kConsumers, std::vector<std::int64_t>(kProducers, -1));
  std::atomic<bool> order_ok{true};
  for (std::size_t c = 0; c < kConsumers; ++c) {
    crew.emplace_back([&, c] {
      std::uint64_t item = 0;
      while (true) {
        if (queue.try_pop(item)) {
          const std::size_t p = item >> kSeqBits;
          const auto seq =
              static_cast<std::int64_t>(item & ((1ull << kSeqBits) - 1));
          if (seq <= last_seen[c][p]) {
            order_ok.store(false, std::memory_order_relaxed);
          }
          last_seen[c][p] = seq;
          delivered[p * kItems + static_cast<std::size_t>(seq)].fetch_add(
              1, std::memory_order_relaxed);
        } else if (producers_done.load(std::memory_order_acquire) ==
                       kProducers &&
                   queue.empty()) {
          break;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : crew) t.join();

  EXPECT_TRUE(order_ok.load());
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    ASSERT_EQ(delivered[i].load(), 1) << "item " << i;
  }
  const auto stats = queue.stats();
  EXPECT_EQ(stats.pushes, kProducers * kItems);
  EXPECT_EQ(stats.pops, kProducers * kItems);
  EXPECT_LE(stats.max_depth, queue.capacity());
  EXPECT_TRUE(queue.empty());
}

TEST(MpmcQueueStress, HelpFirstBackpressureNeverLosesWork) {
  // The overlapped engine's discipline: when the ring is full the
  // producer processes the item itself instead of blocking.  With a
  // deliberately tiny ring this path fires constantly; nothing may be
  // lost or processed twice.
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kItems = 2000;
  BoundedMpmcQueue<std::uint64_t> queue(4);

  std::vector<std::atomic<int>> processed(kProducers * kItems);
  for (auto& d : processed) d.store(0, std::memory_order_relaxed);
  std::atomic<std::size_t> producers_done{0};
  std::atomic<std::uint64_t> helped{0};

  std::vector<std::thread> crew;
  for (std::size_t p = 0; p < kProducers; ++p) {
    crew.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kItems; ++i) {
        const std::uint64_t item = encode(p, i);
        if (!queue.try_push(item)) {
          processed[p * kItems + i].fetch_add(1, std::memory_order_relaxed);
          helped.fetch_add(1, std::memory_order_relaxed);
        }
      }
      producers_done.fetch_add(1, std::memory_order_release);
    });
  }
  for (std::size_t c = 0; c < 2; ++c) {
    crew.emplace_back([&] {
      std::uint64_t item = 0;
      while (true) {
        if (queue.try_pop(item)) {
          const std::size_t p = item >> kSeqBits;
          const std::size_t seq = item & ((1ull << kSeqBits) - 1);
          processed[p * kItems + seq].fetch_add(1, std::memory_order_relaxed);
        } else if (producers_done.load(std::memory_order_acquire) ==
                       kProducers &&
                   queue.empty()) {
          break;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : crew) t.join();

  for (std::size_t i = 0; i < processed.size(); ++i) {
    ASSERT_EQ(processed[i].load(), 1) << "item " << i;
  }
  const auto stats = queue.stats();
  EXPECT_EQ(stats.pops, stats.pushes);
  EXPECT_EQ(stats.pushes + helped.load(), kProducers * kItems);
  EXPECT_EQ(stats.push_failures, helped.load());
}

// The daemon-facing half of the queue contract (docs/server.md): close()
// plus the timed blocking pop.  These are the semantics the search
// server's drain leans on — a closed queue still hands out everything it
// accepted, and only then reports kClosed.

TEST(MpmcQueueLifecycle, CloseRejectsPushesButDeliversAcceptedItems) {
  BoundedMpmcQueue<int> queue(8);
  ASSERT_TRUE(queue.try_push(1));
  ASSERT_TRUE(queue.try_push(2));
  queue.close();
  EXPECT_TRUE(queue.closed());
  EXPECT_FALSE(queue.try_push(3)) << "closed queue must reject pushes";

  // Drain-then-stop as one loop: items first, kClosed only when empty.
  int out = 0;
  EXPECT_EQ(queue.pop_wait(out, std::chrono::milliseconds(100)),
            PopStatus::kItem);
  EXPECT_EQ(out, 1);
  EXPECT_EQ(queue.pop_wait(out, std::chrono::milliseconds(100)),
            PopStatus::kItem);
  EXPECT_EQ(out, 2);
  EXPECT_EQ(queue.pop_wait(out, std::chrono::milliseconds(100)),
            PopStatus::kClosed);
  // kClosed is terminal and idempotent.
  EXPECT_EQ(queue.pop_wait(out, std::chrono::milliseconds(1)),
            PopStatus::kClosed);
  queue.close();  // idempotent
  EXPECT_EQ(queue.stats().push_failures, 1u);
}

TEST(MpmcQueueLifecycle, PopWaitTimesOutOnAnOpenEmptyQueue) {
  BoundedMpmcQueue<int> queue(4);
  int out = 0;
  EXPECT_EQ(queue.pop_wait(out, std::chrono::milliseconds(5)),
            PopStatus::kTimeout);
  // A push after the timeout is delivered by the next wait.
  ASSERT_TRUE(queue.try_push(7));
  EXPECT_EQ(queue.pop_wait(out, std::chrono::milliseconds(5)),
            PopStatus::kItem);
  EXPECT_EQ(out, 7);
}

TEST(MpmcQueueLifecycle, CloseWakesEveryBlockedConsumer) {
  BoundedMpmcQueue<int> queue(4);
  constexpr std::size_t kConsumers = 3;
  std::atomic<std::size_t> saw_closed{0};
  std::vector<std::thread> crew;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    crew.emplace_back([&] {
      int out = 0;
      // Far longer than the test: only close() can end these waits.
      if (queue.pop_wait(out, std::chrono::milliseconds(60000)) ==
          PopStatus::kClosed)
        saw_closed.fetch_add(1, std::memory_order_relaxed);
    });
  }
  // Give the consumers a moment to block, then close.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.close();
  for (auto& t : crew) t.join();
  EXPECT_EQ(saw_closed.load(), kConsumers);
}

TEST(MpmcQueueLifecycle, DrainUnderContentionDeliversEverythingThenCloses) {
  // The server's exact drain shape: producers race try_push against a
  // closing queue; consumers pop_wait until kClosed.  Every ACCEPTED
  // item must be delivered exactly once — acceptance is the try_push
  // return value, nothing else.
  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kConsumers = 3;
  constexpr std::uint64_t kItems = 800;
  BoundedMpmcQueue<std::uint64_t> queue(16);

  std::vector<std::atomic<int>> delivered(kProducers * kItems);
  for (auto& d : delivered) d.store(0, std::memory_order_relaxed);
  std::atomic<std::uint64_t> accepted{0};

  std::vector<std::thread> crew;
  for (std::size_t p = 0; p < kProducers; ++p) {
    crew.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kItems; ++i) {
        if (queue.try_push(encode(p, i)))
          accepted.fetch_add(1, std::memory_order_relaxed);
        if (i % 64 == 0) std::this_thread::yield();
      }
    });
  }
  std::atomic<std::uint64_t> popped{0};
  for (std::size_t c = 0; c < kConsumers; ++c) {
    crew.emplace_back([&] {
      std::uint64_t item = 0;
      PopStatus st;
      while ((st = queue.pop_wait(item, std::chrono::milliseconds(20))) !=
             PopStatus::kClosed) {
        if (st != PopStatus::kItem) continue;  // kTimeout: producers slow
        const std::size_t p = item >> kSeqBits;
        const std::size_t seq = item & ((1ull << kSeqBits) - 1);
        delivered[p * kItems + seq].fetch_add(1, std::memory_order_relaxed);
        popped.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Close mid-stream: some pushes land before, some are rejected after.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  queue.close();
  for (auto& t : crew) t.join();

  EXPECT_EQ(popped.load(), accepted.load());
  std::uint64_t delivered_total = 0;
  for (auto& d : delivered) {
    ASSERT_LE(d.load(), 1);
    delivered_total += static_cast<std::uint64_t>(d.load());
  }
  EXPECT_EQ(delivered_total, accepted.load());
  const auto stats = queue.stats();
  EXPECT_EQ(stats.pushes, accepted.load());
  EXPECT_EQ(stats.pops, accepted.load());
}

// --------------------------------------------------------- obs::Recorder

TEST(RecorderStress, ConcurrentSpanEmissionMergesDeterministically) {
  // Every worker hammers its own ThreadLog while the others do the same;
  // the Recorder's contract (distinct workers touch distinct logs, merges
  // only after the join) must hold without any locking on the hot path.
  obs::Recorder rec;
  ThreadPool pool(4);
  const std::size_t n = pool.workers();
  constexpr std::uint64_t kSpansPerWorker = 200;
  rec.reserve_threads(n);

  pool.run_workers(n, [&](std::size_t w) {
    for (std::uint64_t i = 0; i < kSpansPerWorker; ++i) {
      OBS_SPAN(&rec, w, "stress");
    }
  });

  // Post-join merges see every worker's writes (run_workers' join is the
  // happens-before edge): each log holds exactly its worker's spans, and
  // the merge is their sorted union.
  for (std::size_t w = 0; w < n; ++w) {
    EXPECT_EQ(rec.log_at(w).events().size(), kSpansPerWorker) << w;
    EXPECT_EQ(rec.log_at(w).spans_dropped(), 0u) << w;
    for (const obs::SpanEvent& e : rec.log_at(w).events())
      ASSERT_EQ(e.thread, w);
  }
  const auto events = rec.merged_events();
  EXPECT_EQ(events.size(), n * kSpansPerWorker);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].start_ns, events[i].start_ns);
  }
}

// ------------------------------------------------- ConcurrentHistogram

TEST(HistogramStress, ConcurrentRecordersLoseNoSamples) {
  // The daemon's latency histograms take relaxed atomic adds from every
  // connection and scheduler thread while /metrics snapshots them.
  // Under TSan this proves the recording and snapshot paths share no
  // unsynchronized state; in plain builds it proves no sample is lost
  // and the snapshot's totals are internally consistent.
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  obs::ConcurrentHistogram hist;

  std::atomic<bool> done{false};
  std::thread scraper([&] {
    // Concurrent snapshots: each must be well-formed (count == sum of
    // buckets, quantiles monotone) even mid-storm.
    while (!done.load(std::memory_order_acquire)) {
      const obs::Histogram snap = hist.snapshot();
      std::uint64_t bucket_sum = 0;
      for (std::uint64_t b = 0;
           b < obs::HistogramBuckets::kBucketCount; ++b)
        bucket_sum += snap.bucket(b);
      ASSERT_EQ(snap.count(), bucket_sum);
      ASSERT_LE(snap.quantile(0.5), snap.quantile(0.99));
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> recorders;
  for (std::size_t t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        hist.record(t * kPerThread + i);
    });
  }
  for (auto& th : recorders) th.join();
  done.store(true, std::memory_order_release);
  scraper.join();

  // Every sample landed: the final snapshot is exact once quiesced.
  const obs::Histogram snap = hist.snapshot();
  EXPECT_EQ(snap.count(), kThreads * kPerThread);
  std::uint64_t expect_sum = 0;
  for (std::uint64_t v = 0; v < kThreads * kPerThread; ++v) expect_sum += v;
  EXPECT_EQ(snap.sum(), expect_sum);
}

TEST(HistogramStress, RateLimitedLoggingSiteUnderContention) {
  // Many threads hitting one LogRateLimit site: the CAS loop must not
  // race (TSan) and the accounting must balance — every call either
  // allowed or counted as suppressed exactly once.
  constexpr std::size_t kThreads = 8;
  constexpr int kCallsPerThread = 5000;
  obs::LogRateLimit limit(4);

  std::atomic<std::uint64_t> allowed{0}, reported{0};
  std::vector<std::thread> crew;
  for (std::size_t t = 0; t < kThreads; ++t) {
    crew.emplace_back([&] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        std::uint64_t suppressed = 0;
        if (limit.allow(&suppressed)) {
          allowed.fetch_add(1, std::memory_order_relaxed);
          reported.fetch_add(suppressed, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : crew) th.join();

  // Drain the residual suppressed count by waiting for the window to
  // re-open once, then check the books.  Failed polls count as
  // suppressed too, so tally them.
  std::uint64_t tail = 0;
  std::uint64_t polls = 1;
  while (!limit.allow(&tail)) {
    ++polls;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const std::uint64_t total_calls =
      static_cast<std::uint64_t>(kThreads) * kCallsPerThread + polls;
  EXPECT_EQ(allowed.load() + 1 + reported.load() + tail, total_calls);
  // The cap held: the storm spans a handful of seconds at most, and
  // each one-second window admits at most 4 events.
  EXPECT_LE(allowed.load(), 4u * 30u);
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolStress, ChunkedScheduleCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    constexpr std::size_t kCount = 5000;
    std::vector<std::atomic<int>> hit(kCount);
    for (auto& h : hit) h.store(0, std::memory_order_relaxed);
    std::atomic<bool> ids_ok{true};
    pool.parallel_for_chunked(
        kCount, chunk,
        [&](std::size_t worker, std::size_t begin, std::size_t end) {
          if (worker >= pool.workers()) {
            ids_ok.store(false, std::memory_order_relaxed);
          }
          for (std::size_t i = begin; i < end; ++i) {
            hit[i].fetch_add(1, std::memory_order_relaxed);
          }
        });
    EXPECT_TRUE(ids_ok.load()) << "chunk " << chunk;
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hit[i].load(), 1) << "chunk " << chunk << " index " << i;
    }
  }
}

TEST(ThreadPoolStress, RunWorkersHandsOutDenseUniqueIds) {
  ThreadPool pool(4);
  const std::size_t n = pool.workers();
  for (int round = 0; round < 25; ++round) {
    std::vector<std::atomic<int>> seen(n);
    for (auto& s : seen) s.store(0, std::memory_order_relaxed);
    pool.run_workers(n, [&](std::size_t w) {
      ASSERT_LT(w, n);
      seen[w].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t w = 0; w < n; ++w) {
      ASSERT_EQ(seen[w].load(), 1) << "round " << round << " worker " << w;
    }
  }
}

}  // namespace
