// One declaration per metric behind the STATS verb, /metrics and /statusz.
//
// A daemon declares each metric once into a MetricSet (name, kind, help,
// labels, STATS path, and the value read from a snapshot it already keeps)
// at render time, and three renderers walk the declarations.  A value is
// formatted once, so a /metrics sample and its STATS value are one string.
//
// A STATS path is dotted and may name a label in braces: "uptime_seconds",
// "latency.e2e", "{event}", "shards.{shard}.ok" (a numeric segment is an
// array index).  A family with no STATS path is on /metrics only.
#pragma once

#include <deque>
#include <iterator>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"

namespace finehmm::obs {

/// Prometheus label-value escaping: backslash, double quote and newline,
/// so a model named `pf"oo` cannot truncate the series.
std::string prometheus_escape_label(const std::string& value);

enum class MetricKind { kGauge, kCounter, kSummary };

/// A latency summary's fields in STATS order.  `quantile` is the
/// Prometheus quantile label, or a family suffix when it starts with '_'
/// (written after the quantiles: _sum, then _count), or null.
struct SummaryField {
  const char* stats_key;
  const char* quantile;
};
inline constexpr SummaryField kSummaryFields[] = {
    {"count", "_count"},     {"sum_seconds", "_sum"},
    {"p50_seconds", "0.5"},  {"p90_seconds", "0.9"},
    {"p99_seconds", "0.99"}, {"p999_seconds", "0.999"},
    {"max_seconds", nullptr},
};
inline constexpr std::size_t kSummaryFieldCount = std::size(kSummaryFields);

struct MetricSample {
  std::vector<std::string> label_values;  // in the family's label order
  std::vector<std::string> values;  // one, or one per kSummaryFields entry
  bool flag = false;  // true/false in STATS and /statusz, 1/0 on /metrics
};

struct MetricFamily {
  std::string name;  // Prometheus family name
  MetricKind kind = MetricKind::kGauge;
  std::string help;
  std::string stats;  // STATS path; "" = /metrics only
  std::vector<std::string> labels;
  std::vector<MetricSample> samples;

  /// One series: integers exact, doubles as streamed (non-finite: null).
  template <class T>
    requires std::is_arithmetic_v<T>
  MetricFamily& add(std::vector<std::string> label_values, T value) {
    std::string v;
    if constexpr (std::is_same_v<T, bool>)
      v = value ? "true" : "false";
    else if constexpr (std::is_integral_v<T>)
      v = std::to_string(value);
    else
      v = format_double(value);
    samples.push_back(
        {std::move(label_values), {std::move(v)}, std::is_same_v<T, bool>});
    return *this;
  }
  /// One latency series from a histogram of nanoseconds, in seconds.
  MetricFamily& add(std::vector<std::string> label_values,
                    const Histogram& latency_ns);

  /// `sample`'s STATS path with its labels filled in.
  std::string stats_path(const MetricSample& sample) const;

  static std::string format_double(double v);
};

class MetricSet {
 public:
  /// gauge("queue_depth", ...) declares "<prefix>_queue_depth".
  explicit MetricSet(std::string prefix = "finehmm")
      : prefix_(std::move(prefix)) {}

  /// Declare a family; add its series through the returned reference.
  MetricFamily& family(const std::string& name, MetricKind kind,
                       const std::string& help, const std::string& stats = "",
                       std::vector<std::string> labels = {});

  /// A single-series gauge "<prefix>_<key>" at STATS key `key`.
  template <class T>
  void gauge(const std::string& key, const std::string& help, T value) {
    family(prefix_ + "_" + key, MetricKind::kGauge, help, key).add({}, value);
  }

  /// STATS content that is not a metric: raw JSON at `path`.
  void stats_appendix(std::string path, std::string json) {
    stats_extra_.emplace_back(std::move(path), std::move(json));
  }
  /// A line appended to /statusz after the metrics.
  void statusz_appendix(std::string line) {
    statusz_extra_.push_back(std::move(line));
  }

  const std::deque<MetricFamily>& families() const { return families_; }

  /// One JSON object: "schema", then STATS paths and appendices in order.
  std::string stats_json(const std::string& schema) const;
  /// `# HELP` and `# TYPE` for every family, then its series.
  std::string prometheus() const;
  /// The banner, a "family  key: value" line per series, the appendices.
  std::string statusz(const std::string& banner) const;

 private:
  std::string prefix_;
  std::deque<MetricFamily> families_;  // stable references for family()
  std::vector<std::pair<std::string, std::string>> stats_extra_;
  std::vector<std::string> statusz_extra_;
};

}  // namespace finehmm::obs
