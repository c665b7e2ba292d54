#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "cpu/simd_backend/simd_tier.hpp"
#include "util/error.hpp"

namespace finehmm::bench {

namespace {

const auto kEpoch = std::chrono::steady_clock::now();

/// Enough digits to read back as the same double ("all its digits").
std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

void sleep_until_ns(std::int64_t t_ns) {
  std::this_thread::sleep_until(kEpoch + std::chrono::nanoseconds(t_ns));
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Quantile quantile(std::vector<double> v, double q) {
  Quantile out;
  out.n = v.size();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of the mass at or
  // below it.  No interpolation, so the value is always an observed one.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  out.value = v[rank - 1];
  out.beyond = v.size() - rank;
  return out;
}

Quantile blocked_quantile(const std::vector<double>& in_time_order,
                          double q) {
  const std::size_t n = in_time_order.size();
  const std::size_t blocks = std::clamp<std::size_t>(
      static_cast<std::size_t>(static_cast<double>(n) * (1.0 - q) / 10.0), 1,
      5);
  std::vector<double> values;
  Quantile out;
  out.n = n;
  out.beyond = n;
  for (std::size_t b = 0; b < blocks; ++b) {
    const Quantile qb = quantile(
        std::vector<double>(in_time_order.begin() + b * n / blocks,
                            in_time_order.begin() + (b + 1) * n / blocks),
        q);
    values.push_back(qb.value);
    out.beyond = std::min(out.beyond, qb.beyond);
  }
  out.value = median(values);
  return out;
}

double blocked_rate(
    const std::vector<std::pair<double, double>>& in_time_order) {
  const std::size_t n = in_time_order.size();
  const std::size_t blocks = std::clamp<std::size_t>(n, 1, 5);
  std::vector<double> rates;
  for (std::size_t b = 0; b < blocks; ++b) {
    double seconds = 0.0, work = 0.0;
    for (std::size_t i = b * n / blocks; i < (b + 1) * n / blocks; ++i) {
      seconds += in_time_order[i].first;
      work += in_time_order[i].second;
    }
    if (seconds > 0.0) rates.push_back(work / seconds);
  }
  return median(rates);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  if (!std::isfinite(value)) {
    mismatch("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
  std::cout << "metric " << name << " = " << exact(value) << " " << unit
            << " (n=" << samples << ")\n";
}

void Report::latency(const std::string& name, const Quantile& q) {
  metric(name, q.value * 1e3, "ms", q.n);
  if (!q.supported())
    note("  " + name + ": only " + std::to_string(q.beyond) +
         " samples beyond the percentile (< 10): not a measured tail");
}

void Report::note(const std::string& line) { std::cout << line << "\n"; }

void Report::mismatch(const std::string& what) {
  correct_ = false;
  std::cout << "MISMATCH: " << what << "\n";
}

void Report::print_json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct_ ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    os << (i ? ", " : "") << "\"" << e.name << "\": {\"value\": "
       << exact(e.value) << ", \"unit\": \"" << e.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

std::uint64_t SpanLog::add(std::string name, std::uint32_t track,
                           std::int64_t start_ns, std::int64_t end_ns,
                           std::uint64_t parent) {
  MutexLock lock(mu_);
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back(
      Span{id, parent, std::move(name), track, start_ns, end_ns});
  return id;
}

void SpanLog::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw IoError("cannot write trace file " + path);
  MutexLock lock(mu_);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.track
        << ", \"ts\": " << exact(static_cast<double>(s.start_ns) * 1e-3)
        << ", \"dur\": "
        << exact(static_cast<double>(std::max<std::int64_t>(
                     0, s.end_ns - s.start_ns)) *
                 1e-3)
        << ", \"args\": {\"span\": " << s.id << ", \"parent\": " << s.parent
        << "}}";
  }
  out << "\n]}\n";
}

const std::vector<std::string>& Ladder::rows() {
  // Outermost layer first: load generator, cluster coordinator and its
  // shard legs, the daemon's request path, the scan engine and its stages.
  static const std::vector<std::string> kRows = {
      "loadgen", "cluster", "connect", "handshake", "queue",
      "coalesce", "msv",    "vit",     "fwd",       "bwd",
      "engine",  "serialize", "server", "unattributed"};
  return kRows;
}

void Ladder::add(const std::string& row, double seconds) {
  FH_REQUIRE(row != "unattributed" &&
                 std::find(rows().begin(), rows().end(), row) != rows().end(),
             "unknown ladder row " + row);
  for (auto& [name, s] : seconds_)
    if (name == row) {
      s += seconds;
      return;
    }
  seconds_.emplace_back(row, seconds);
}

void Ladder::report(Report& out, const std::string& title) const {
  double attributed = 0.0;
  for (const auto& [name, s] : seconds_) attributed += s;
  const double per_op = ops_ ? 1e3 / static_cast<double>(ops_) : 0.0;
  out.note("ladder (" + title + "): wall " + exact(wall_ * per_op) +
           " ms per op over " + std::to_string(ops_) + " ops");
  for (const std::string& row : rows()) {
    double s = 0.0;
    if (row == "unattributed") {
      s = wall_ - attributed;
    } else {
      for (const auto& [name, v] : seconds_)
        if (name == row) s = v;
    }
    const double share = wall_ > 0.0 ? s / wall_ : 0.0;
    if (s != 0.0) {
      char line[160];
      std::snprintf(line, sizeof line, "  %-13s %10.4f ms/op  %6.2f%%",
                    row.c_str(), s * per_op, share * 100.0);
      out.note(line);
    }
    out.metric("ladder." + row + ".share", share, "ratio", ops_);
  }
}

std::string host_fingerprint() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  return "host: cpu=\"" + model +
         "\" nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " simd=" +
         cpu::simd_tier_name(cpu::resolve_simd_tier(cpu::active_simd_tier()));
}

}  // namespace finehmm::bench
