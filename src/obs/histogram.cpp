#include "obs/histogram.hpp"

#include <cmath>

namespace finehmm::obs {

void Histogram::merge(const Histogram& other) {
  for (std::uint64_t i = 0; i < B::kBucketCount; ++i)
    counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.max_ > max_) max_ = other.max_;
}

std::uint64_t Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target sample, 1-based; q = 0 still needs one sample.
  std::uint64_t target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  if (target == 0) target = 1;
  if (target > count_) target = count_;
  std::uint64_t cumulative = 0;
  for (std::uint64_t i = 0; i < B::kBucketCount; ++i) {
    cumulative += counts_[i];
    if (cumulative >= target) {
      // Never report past the true maximum (the top bucket's upper edge
      // can overshoot the largest recorded value by the bucket width).
      const std::uint64_t edge = B::upper_bound(i);
      return edge < max_ ? edge : max_;
    }
  }
  return max_;
}

void Histogram::clear() {
  for (std::uint64_t i = 0; i < B::kBucketCount; ++i) counts_[i] = 0;
  count_ = 0;
  sum_ = 0;
  max_ = 0;
}

Histogram ConcurrentHistogram::snapshot() const {
  // count is recomputed from the buckets (not the count_ atomic) so the
  // snapshot is internally consistent even while recorders are running:
  // every bucket read is individually exact, and quantile walks only
  // ever see a count that matches the buckets it walks.  sum comes from
  // the sum_ atomic (exact once recorders quiesce); max is the top
  // nonempty bucket's upper edge, the best a lock-free recorder offers.
  Histogram out;
  for (std::uint64_t i = 0; i < B::kBucketCount; ++i) {
    const std::uint64_t n = counts_[i].load(std::memory_order_relaxed);
    if (n == 0) continue;
    out.counts_[i] = n;
    out.count_ += n;
    out.max_ = B::upper_bound(i);
  }
  out.sum_ = sum_.load(std::memory_order_relaxed);
  return out;
}

LatencyQuantiles latency_quantiles(const Histogram& h) {
  LatencyQuantiles q;
  q.count = h.count();
  q.sum = h.sum();
  q.p50 = h.quantile(0.50);
  q.p90 = h.quantile(0.90);
  q.p99 = h.quantile(0.99);
  q.p999 = h.quantile(0.999);
  return q;
}

}  // namespace finehmm::obs
