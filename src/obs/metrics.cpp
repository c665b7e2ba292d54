#include "obs/metrics.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "obs/log.hpp"

namespace finehmm::obs {

std::string prometheus_escape_label(const std::string& value) {
  std::string out;
  out.reserve(value.size() + 4);
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string MetricFamily::format_double(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no inf/nan
  std::ostringstream os;
  os << v;
  return os.str();
}

MetricFamily& MetricFamily::add(std::vector<std::string> label_values,
                                const Histogram& latency_ns) {
  const LatencyQuantiles q = latency_quantiles(latency_ns);
  std::vector<std::string> v{std::to_string(q.count)};  // kSummaryFields
  for (const std::uint64_t ns :
       {q.sum, q.p50, q.p90, q.p99, q.p999, latency_ns.max()})
    v.push_back(format_double(static_cast<double>(ns) * 1e-9));
  samples.push_back({std::move(label_values), std::move(v), false});
  return *this;
}

std::string MetricFamily::stats_path(const MetricSample& sample) const {
  std::string path = stats;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const std::string slot = "{" + labels[i] + "}";
    if (const std::size_t at = path.find(slot); at != std::string::npos)
      path.replace(at, slot.size(), sample.label_values[i]);
  }
  return path;
}

MetricFamily& MetricSet::family(const std::string& name, MetricKind kind,
                                const std::string& help,
                                const std::string& stats,
                                std::vector<std::string> labels) {
  return families_.emplace_back(
      MetricFamily{name, kind, help, stats, std::move(labels), {}});
}

namespace {

/// The STATS document as a tree of dotted paths, in first-insertion
/// order.  A node whose members have numeric keys renders as an array.
struct JsonNode {
  std::string key;
  std::string raw;  // leaf: the value's JSON text
  std::vector<JsonNode> kids;

  void insert(const std::string& path, std::string value) {
    JsonNode* node = this;
    std::size_t from = 0, dot = 0;
    do {
      dot = path.find('.', from);
      const std::string seg = path.substr(from, dot - from);
      auto it = std::find_if(node->kids.begin(), node->kids.end(),
                             [&](const JsonNode& k) { return k.key == seg; });
      node = it != node->kids.end()
                 ? &*it
                 : &node->kids.emplace_back(JsonNode{seg, {}, {}});
      from = dot + 1;
    } while (dot != std::string::npos);
    node->raw = std::move(value);
  }

  /// The root and its direct members span lines; deeper objects (one
  /// latency summary, one shard) stay on one line each.
  void write(std::ostream& os, int depth) const {
    if (kids.empty()) {
      os << raw;
      return;
    }
    const bool array = std::isdigit(static_cast<unsigned char>(kids[0].key[0]));
    const std::string indent(static_cast<std::size_t>(2 * depth), ' ');
    const bool multiline = depth < 2;
    os << (array ? '[' : '{');
    for (std::size_t i = 0; i < kids.size(); ++i) {
      os << (i ? "," : "") << (multiline ? "\n  " + indent : i ? " " : "");
      if (!array) os << '"' << json_escape(kids[i].key) << "\": ";
      kids[i].write(os, depth + 1);
    }
    os << (multiline ? "\n" + indent : "") << (array ? ']' : '}');
  }
};

/// `a="x",b="y"` (escaped), without braces.
std::string label_set(const MetricFamily& f, const MetricSample& s) {
  std::string out;
  for (std::size_t i = 0; i < f.labels.size(); ++i)
    out += (i ? "," : "") + f.labels[i] + "=\"" +
           prometheus_escape_label(s.label_values[i]) + "\"";
  return out;
}

}  // namespace

std::string MetricSet::stats_json(const std::string& schema) const {
  JsonNode root;
  root.insert("schema", std::string("\"").append(json_escape(schema)) + "\"");
  for (const MetricFamily& f : families_) {
    if (f.stats.empty()) continue;
    for (const MetricSample& s : f.samples) {
      const std::string path = f.stats_path(s);
      if (f.kind != MetricKind::kSummary) root.insert(path, s.values[0]);
      else
        for (std::size_t i = 0; i < kSummaryFieldCount; ++i)
          root.insert(path + "." + kSummaryFields[i].stats_key, s.values[i]);
    }
  }
  for (const auto& [path, json] : stats_extra_) root.insert(path, json);
  std::ostringstream os;
  root.write(os, 0);
  os << '\n';
  return os.str();
}

std::string MetricSet::prometheus() const {
  constexpr const char* kKindNames[] = {"gauge", "counter", "summary"};
  std::ostringstream os;
  for (const MetricFamily& f : families_) {
    os << "# HELP " << f.name << " " << f.help << "\n# TYPE " << f.name << " "
       << kKindNames[static_cast<int>(f.kind)] << "\n";
    for (const MetricSample& s : f.samples) {
      const std::string labels = label_set(f, s);
      // name<suffix>{labels,extra} value
      const auto line = [&](const char* suffix, const std::string& extra,
                            const std::string& value) {
        const std::string set =
            labels + (labels.empty() || extra.empty() ? "" : ",") + extra;
        os << f.name << suffix << (set.empty() ? "" : "{" + set + "}") << " "
           << value << "\n";
      };
      if (f.kind != MetricKind::kSummary) {
        const std::string& v = s.values[0];
        line("", "", s.flag ? (v == "true" ? "1" : "0") : v);
        continue;
      }
      for (std::size_t i = 0; i < kSummaryFieldCount; ++i) {
        const char* q = kSummaryFields[i].quantile;
        if (q != nullptr && q[0] != '_')
          line("", std::string("quantile=\"") + q + "\"", s.values[i]);
      }
      for (std::size_t i = kSummaryFieldCount; i-- > 0;) {
        const char* q = kSummaryFields[i].quantile;
        if (q != nullptr && q[0] == '_') line(q, "", s.values[i]);
      }
    }
  }
  return os.str();
}

std::string MetricSet::statusz(const std::string& banner) const {
  std::ostringstream os;
  os << banner << "\n" << std::string(banner.size(), '=') << "\n";
  for (const MetricFamily& f : families_) {
    if (f.samples.empty()) os << f.name << " (no series)\n";
    for (const MetricSample& s : f.samples) {
      std::string key = f.stats_path(s);
      std::replace(key.begin(), key.end(), '.', ' ');
      if (key.empty()) key.append("{").append(label_set(f, s)).append("}");
      os << std::left << std::setw(40) << f.name << " " << key;
      if (f.kind != MetricKind::kSummary) {
        os << ": " << s.values[0] << "\n";
        continue;
      }
      // values follow kSummaryFields: count, sum, p50, p90, p99, p999.
      const auto ms = [&](std::size_t i) {
        return std::stod(s.values[i]) * 1e3;
      };
      os << " (ms): p50 " << ms(2) << ", p90 " << ms(3) << ", p99 " << ms(4)
         << ", p99.9 " << ms(5) << " (n=" << s.values[0] << ")\n";
    }
  }
  for (const std::string& line : statusz_extra_) os << line << "\n";
  return os.str();
}

}  // namespace finehmm::obs
