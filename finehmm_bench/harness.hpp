// Measurement harness shared by every finehmm_bench workload: the run
// options, seeded sub-streams, sample statistics, the metric report that
// ends in the one-line JSON result, the in-memory span log written out as
// a Chrome/Perfetto trace, and the layer ladder.
//
// Everything here times calls into the library from outside; nothing is
// instrumented inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace finehmm::bench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // timed budget of the run (all phases together)
  bool trace = false;     // per-layer run instead of the end-to-end run
  std::string dir;        // inputs written by `prepare`
  std::string trace_out;  // Chrome trace path (trace runs; empty = none)
};

/// Independent 64-bit stream `tag` of the run seed (splitmix64), so each
/// generated input (database, models, schedule, mix) has its own seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/// Monotonic nanoseconds since the harness epoch (process start).
std::int64_t now_ns();
double now_s();
/// Block until the harness clock reads `t_ns`.
void sleep_until_ns(std::int64_t t_ns);

/// Peak resident set of this process (getrusage), MiB.
double peak_rss_mb();

double median(std::vector<double> v);

/// Nearest-rank quantile with its support: `beyond` samples lie above the
/// reported value.  A percentile counts as measured only when at least
/// ten samples lie beyond it.
struct Quantile {
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
  bool supported() const { return beyond >= 10; }
};
Quantile quantile(std::vector<double> v, double q);

/// The median, over consecutive blocks of samples in time order, of each
/// block's quantile: as many blocks (at most five) as leave ten samples
/// beyond the quantile in each.  A burst of host noise spoils one block,
/// not the run.  `beyond` is a block's.
Quantile blocked_quantile(const std::vector<double>& in_time_order, double q);

/// The median of per-block rates sum(work) / sum(seconds) over five
/// consecutive blocks of (seconds, work) samples in time order.
double blocked_rate(const std::vector<std::pair<double, double>>& in_time_order);

/// Collects the run's metrics and outcome, echoes each metric as a
/// human-readable line, and prints the JSON result as the last line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  /// A latency quantile in ms; the line says when the sample is too small
  /// for the percentile to count as measured.
  void latency(const std::string& name, const Quantile& q);
  void note(const std::string& line);
  /// A failed correctness check: the run reports correct=false.
  void mismatch(const std::string& what);

  std::size_t attempted = 0;
  std::size_t failed = 0;

  bool correct() const { return correct_; }
  void print_json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  bool correct_ = true;
};

/// One span: a named interval on a track, caused by `parent` (0 = root).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::uint32_t track = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans kept in memory and written as Chrome trace_event JSON at the end
/// of the run.  Thread-safe: load-generator threads add request spans.
class SpanLog {
 public:
  std::uint64_t add(std::string name, std::uint32_t track,
                    std::int64_t start_ns, std::int64_t end_ns,
                    std::uint64_t parent = 0) FINEHMM_EXCLUDES(mu_);
  void write_chrome(const std::string& path) const FINEHMM_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::vector<Span> spans_ FINEHMM_GUARDED_BY(mu_);
};

/// The wall-time ladder: one workload's op wall time attributed layer by
/// layer to each span's self time; `unattributed` is what no span covers.
/// Rows are the same on every workload (zero where a layer is not on the
/// path), so the per-layer metrics keep one schema.
class Ladder {
 public:
  static const std::vector<std::string>& rows();

  void add(const std::string& row, double seconds);
  void add_wall(double seconds, std::size_t ops = 1) {
    wall_ += seconds;
    ops_ += ops;
  }
  /// Prints the ladder and reports ladder.<row>.share for every row.
  void report(Report& out, const std::string& title) const;

 private:
  std::vector<std::pair<std::string, double>> seconds_;
  double wall_ = 0.0;
  std::size_t ops_ = 0;
};

/// Set-up is repeated and its median reported: at least 3 times and until
/// 1 s of set-up has been timed (at most 25 times), so a set-up of a few
/// milliseconds is a median of many.  `set_up_once` returns its seconds.
template <class F>
std::vector<double> repeat_setup(F&& set_up_once) {
  std::vector<double> seconds;
  double total = 0.0;
  while (seconds.size() < 3 || (total < 1.0 && seconds.size() < 25)) {
    seconds.push_back(set_up_once());
    total += seconds.back();
  }
  return seconds;
}

/// Host fingerprint line: CPU model, hardware threads, active SIMD tier.
std::string host_fingerprint();

}  // namespace finehmm::bench
