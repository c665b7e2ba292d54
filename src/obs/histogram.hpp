// Always-on log-bucketed latency histograms (HDR-style).
//
// The server's latency truth must come from production requests, not
// bench runs, which means recording has to be cheap enough to leave on
// for every request: a fixed array of buckets, one add per sample, zero
// heap allocation anywhere on the recording path.  Buckets are base-2
// logarithmic with linear sub-buckets — each octave is split into
// kSubBuckets equal steps, so the relative quantization error is
// bounded by 1/kSubBuckets (~1.6%) across the whole 64-bit range while
// the table stays ~30 KB.
//
// Two flavors share the bucket geometry:
//   * Histogram           — plain counters.  Single-writer (one thread,
//                           or a per-thread slot merged at a serial
//                           point, like obs::ThreadLog).
//   * ConcurrentHistogram — std::atomic counters with relaxed adds:
//                           lock-free, wait-free recording from any
//                           thread.  snapshot() flattens to a Histogram
//                           for quantile math and serialization.
//
// tests/test_histogram.cpp pins the bucket boundaries, proves
// merge-of-per-thread == global, quantile monotonicity, and the
// zero-allocation recording path under a counting operator new;
// tests/test_concurrency.cpp hammers ConcurrentHistogram under TSan.
//
// Concurrency contract: this file is deliberately lock-free, so it
// carries NO capability annotations (docs/static_analysis.md
// §lock-free).  Histogram is single-writer by contract; in
// ConcurrentHistogram the relaxed atomics themselves are the
// synchronization — there is no mutex whose acquisition the
// thread-safety analysis could check.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>

namespace finehmm::obs {

/// Bucket geometry shared by both histogram flavors.  Values are
/// dimensionless uint64s; the server records nanoseconds.
struct HistogramBuckets {
  /// Sub-buckets per octave: 2^6 = 64 linear steps, so any recorded
  /// value lands in a bucket whose width is <= value/64 (~1.6% error).
  static constexpr int kSubBucketBits = 6;
  static constexpr std::uint64_t kSubBuckets = std::uint64_t{1}
                                               << kSubBucketBits;
  /// One run of sub-buckets per possible exponent.  Values whose
  /// bit-width fits in kSubBucketBits index themselves (octave 0).
  static constexpr std::uint64_t kBucketCount =
      (64 - kSubBucketBits + 1) * kSubBuckets;

  /// Which bucket a value lands in.  Monotone in `value`; saturates at
  /// the top bucket (nothing a server measures overflows 2^64 ns).
  static constexpr std::uint64_t index_of(std::uint64_t value) {
    if (value < kSubBuckets) return value;
    const int exponent = std::bit_width(value) - kSubBucketBits;
    const std::uint64_t idx =
        static_cast<std::uint64_t>(exponent) * kSubBuckets +
        (value >> exponent);
    return idx < kBucketCount ? idx : kBucketCount - 1;
  }

  /// Smallest value mapping to bucket `idx`.
  static constexpr std::uint64_t lower_bound(std::uint64_t idx) {
    const std::uint64_t exponent = idx / kSubBuckets;
    const std::uint64_t sub = idx % kSubBuckets;
    return exponent == 0 ? sub : sub << exponent;
  }

  /// Largest value mapping to bucket `idx` (the quantile estimate: the
  /// conservative upper edge, so reported percentiles never understate).
  static constexpr std::uint64_t upper_bound(std::uint64_t idx) {
    const std::uint64_t exponent = idx / kSubBuckets;
    const std::uint64_t sub = idx % kSubBuckets;
    return exponent == 0 ? sub : ((sub + 1) << exponent) - 1;
  }
};

/// Plain-counter histogram: record / merge / quantile.  ~30 KB of
/// inline storage, no heap anywhere.
class Histogram {
 public:
  using B = HistogramBuckets;

  void record(std::uint64_t value) {
    ++counts_[B::index_of(value)];
    ++count_;
    sum_ += value;
    if (value > max_) max_ = value;
  }

  void merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t max() const { return max_; }
  std::uint64_t bucket(std::uint64_t idx) const { return counts_[idx]; }

  /// Value at quantile q in [0, 1]: the upper edge of the bucket where
  /// the cumulative count first reaches ceil(q * count).  0 when empty.
  /// Monotone in q by construction (a cumulative walk).
  std::uint64_t quantile(double q) const;

  void clear();

 private:
  friend class ConcurrentHistogram;  // snapshot() fills buckets directly

  std::uint64_t counts_[B::kBucketCount] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

/// Lock-free multi-writer histogram: relaxed atomic adds, no ordering
/// required — each sample is independent and snapshot() only needs
/// eventual totals.  Recording is wait-free and allocation-free.
class ConcurrentHistogram {
 public:
  using B = HistogramBuckets;

  void record(std::uint64_t value) {
    counts_[B::index_of(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  /// Flatten to a plain Histogram for quantiles and serialization.
  /// Concurrent recorders may still be running; the snapshot is a
  /// consistent-enough view (each bucket is individually exact, totals
  /// recomputed from the buckets so count == sum of buckets always).
  Histogram snapshot() const;

 private:
  std::atomic<std::uint64_t> counts_[B::kBucketCount] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// The quantile set every latency surface reports
/// (docs/observability.md): p50 / p90 / p99 / p99.9, in the recorded
/// unit (the server records nanoseconds).  obs::MetricSet formats it
/// once per scrape for STATS, /metrics and /statusz alike.
struct LatencyQuantiles {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
};

LatencyQuantiles latency_quantiles(const Histogram& h);

}  // namespace finehmm::obs
