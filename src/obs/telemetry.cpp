#include "obs/telemetry.hpp"

#include <ostream>
#include <sstream>

#include "obs/metrics.hpp"

namespace finehmm::obs {

std::string json_rate(double units, double seconds) {
  if (!valid_rate(units, seconds)) return "null";
  std::ostringstream os;
  os << units / seconds;
  return os.str();
}

const StageTelemetry* ScanTelemetry::stage(const std::string& name) const {
  for (const auto& s : stages)
    if (s.stage == name) return &s;
  return nullptr;
}

namespace {

// Every number goes through here: JSON has no inf/nan, so unusable
// values serialize as null rather than poisoning the document.
void num(std::ostream& os, double v) {
  if (std::isfinite(v))
    os << v;
  else
    os << "null";
}

void indent_to(std::ostream& os, int n) {
  for (int i = 0; i < n; ++i) os << ' ';
}

}  // namespace

void ScanTelemetry::write_json(std::ostream& os, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  os << pad << "{\n";
  os << pad << "  \"schema\": \"finehmm.scan_telemetry.v1\",\n";
  os << pad << "  \"engine\": \"" << engine << "\",\n";
  os << pad << "  \"threads\": " << threads << ",\n";
  os << pad << "  \"sequences\": " << sequences << ",\n";
  os << pad << "  \"residues\": " << residues << ",\n";
  os << pad << "  \"wall_seconds\": ";
  num(os, wall_seconds);
  os << ",\n";
  os << pad << "  \"total_cells\": ";
  num(os, total_cells());
  os << ",\n";
  os << pad << "  \"cells_per_sec\": " << json_rate(total_cells(), wall_seconds)
     << ",\n";
  os << pad << "  \"bytes\": {\"zero_copy\": " << (zero_copy ? "true" : "false")
     << ", \"mapped\": " << mapped_bytes << ", \"heap\": " << heap_bytes
     << ", \"decoded\": " << decoded_bytes << "},\n";

  os << pad << "  \"stages\": [";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const auto& s = stages[i];
    os << (i ? "," : "") << "\n";
    indent_to(os, indent + 4);
    os << "{\"stage\": \"" << s.stage << "\", \"n_in\": " << s.n_in
       << ", \"n_passed\": " << s.n_passed << ", \"pass_rate\": ";
    num(os, s.pass_rate());
    os << ", \"cells\": ";
    num(os, s.cells);
    os << ",\n";
    indent_to(os, indent + 5);
    os << "\"wall_seconds\": ";
    num(os, s.wall_seconds);
    os << ", \"busy_seconds\": ";
    num(os, s.busy_seconds);
    os << ", \"cells_per_sec_wall\": " << json_rate(s.cells, s.wall_seconds)
       << ", \"cells_per_sec_busy\": " << json_rate(s.cells, s.busy_seconds);
    if (!s.counters.empty()) {
      os << ",\n";
      indent_to(os, indent + 5);
      os << "\"counters\": {";
      for (std::size_t k = 0; k < s.counters.size(); ++k) {
        os << (k ? ", " : "") << "\"" << s.counters[k].first << "\": ";
        num(os, s.counters[k].second);
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n";
  indent_to(os, indent + 2);
  os << "],\n";

  if (queue) {
    os << pad << "  \"queue\": {\"capacity\": " << queue->capacity
       << ", \"enqueued\": " << queue->enqueued
       << ", \"dequeued\": " << queue->dequeued
       << ", \"enqueue_stalls\": " << queue->enqueue_stalls
       << ", \"help_first_rescues\": " << queue->help_first_rescues
       << ", \"max_depth\": " << queue->max_depth << "},\n";
  } else {
    os << pad << "  \"queue\": null,\n";
  }

  os << pad << "  \"buckets\": [";
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    os << (i ? ", " : "") << "{\"sequences\": " << buckets[i].sequences
       << ", \"residues\": " << buckets[i].residues << "}";
  }
  os << "],\n";

  os << pad << "  \"per_thread\": [";
  for (std::size_t i = 0; i < per_thread.size(); ++i) {
    const auto& t = per_thread[i];
    os << (i ? "," : "") << "\n";
    indent_to(os, indent + 4);
    os << "{\"thread\": " << t.thread << ", \"busy_seconds\": {";
    for (int s = 0; s < kStageCount; ++s) {
      os << (s ? ", " : "") << "\"" << stage_name(static_cast<Stage>(s))
         << "\": ";
      num(os, t.stage_busy_seconds[s]);
    }
    os << "}, \"items\": {";
    for (int s = 0; s < kStageCount; ++s) {
      os << (s ? ", " : "") << "\"" << stage_name(static_cast<Stage>(s))
         << "\": " << t.stage_items[s];
    }
    os << "},\n";
    indent_to(os, indent + 5);
    os << "\"sequences_scored\": " << t.sequences_scored
       << ", \"help_first_rescues\": " << t.help_first_rescues
       << ", \"decoded_bytes\": " << t.decoded_bytes
       << ", \"spans\": " << t.spans
       << ", \"spans_dropped\": " << t.spans_dropped << "}";
  }
  os << "\n";
  indent_to(os, indent + 2);
  os << "]\n";
  os << pad << "}";
}

void ScanTelemetry::declare_metrics(MetricSet& m) const {
  const auto family = [&](const char* name, MetricKind kind, const char* help,
                          std::vector<std::string> labels) -> MetricFamily& {
    labels.insert(labels.begin(), "engine");
    return m.family(name, kind, help, "", std::move(labels));
  };
  constexpr MetricKind kGauge = MetricKind::kGauge;
  constexpr MetricKind kCounter = MetricKind::kCounter;

  family("finehmm_scan_wall_seconds", kGauge,
         "End-to-end scan wall clock in seconds.", {})
      .add({engine}, wall_seconds);
  family("finehmm_scan_sequences", kGauge,
         "Database sequences covered by the scan.", {})
      .add({engine}, sequences);
  family("finehmm_scan_cells_total", kCounter,
         "DP cells evaluated across all stages.", {})
      .add({engine}, total_cells());

  MetricFamily& seconds =
      family("finehmm_stage_seconds", kGauge,
             "Per-stage wall and merged busy seconds.", {"stage", "kind"});
  MetricFamily& flow =
      family("finehmm_stage_sequences", kGauge,
             "Sequences entering and surviving each filter stage.",
             {"stage", "dir"});
  MetricFamily& cells = family("finehmm_stage_cells_total", kCounter,
                               "DP cells evaluated per stage.", {"stage"});
  bool any_counters = false;
  for (const auto& s : stages) {
    seconds.add({engine, s.stage, "wall"}, s.wall_seconds)
        .add({engine, s.stage, "busy"}, s.busy_seconds);
    flow.add({engine, s.stage, "in"}, s.n_in)
        .add({engine, s.stage, "passed"}, s.n_passed);
    cells.add({engine, s.stage}, s.cells);
    any_counters = any_counters || !s.counters.empty();
  }
  if (any_counters) {
    MetricFamily& counter = family(
        "finehmm_stage_counter", kGauge,
        "Engine-specific per-stage counters (SIMT PerfCounters).",
        {"stage", "counter"});
    for (const auto& s : stages)
      for (const auto& [key, value] : s.counters)
        counter.add({engine, s.stage, key}, value);
  }

  if (queue) {
    family("finehmm_queue_enqueued_total", kCounter,
           "Survivors pushed into the overlapped queue.", {})
        .add({engine}, queue->enqueued);
    family("finehmm_queue_dequeued_total", kCounter,
           "Survivors drained from the overlapped queue.", {})
        .add({engine}, queue->dequeued);
    family("finehmm_queue_enqueue_stalls_total", kCounter,
           "try_push rejections (ring full).", {})
        .add({engine}, queue->enqueue_stalls);
    family("finehmm_queue_help_first_rescues_total", kCounter,
           "Producers that drained one survivor themselves.", {})
        .add({engine}, queue->help_first_rescues);
    family("finehmm_queue_max_depth", kGauge,
           "High-water occupancy of the overlapped queue.", {})
        .add({engine}, queue->max_depth);
  }

  MetricFamily& busy =
      family("finehmm_thread_busy_seconds", kGauge,
             "Per-worker busy seconds by stage.", {"thread", "stage"});
  for (const auto& t : per_thread)
    for (int s = 0; s < kStageCount; ++s)
      if (t.stage_busy_seconds[s] != 0.0)
        busy.add({engine, std::to_string(t.thread),
                  stage_name(static_cast<Stage>(s))},
                 t.stage_busy_seconds[s]);

  MetricFamily& bucket = family(
      "finehmm_bucket_sequences", kGauge,
      "Sequences per geometric length bucket of the scan schedule.",
      {"bucket"});
  for (std::size_t b = 0; b < buckets.size(); ++b)
    bucket.add({engine, std::to_string(b)}, buckets[b].sequences);
}

std::vector<std::pair<std::string, double>> counters_kv(
    const simt::PerfCounters& c) {
  return {
      {"alu", static_cast<double>(c.alu)},
      {"shuffles", static_cast<double>(c.shuffles)},
      {"votes", static_cast<double>(c.votes)},
      {"syncs", static_cast<double>(c.syncs)},
      {"smem_accesses", static_cast<double>(c.smem_accesses)},
      {"smem_cycles", static_cast<double>(c.smem_cycles)},
      {"gmem_transactions", static_cast<double>(c.gmem_transactions)},
      {"gmem_bytes", static_cast<double>(c.gmem_bytes)},
      {"gmem_cached_tx", static_cast<double>(c.gmem_cached_tx)},
      {"lazyf_outer", static_cast<double>(c.lazyf_outer)},
      {"lazyf_inner", static_cast<double>(c.lazyf_inner)},
      {"sequences", static_cast<double>(c.sequences)},
      {"residues", static_cast<double>(c.residues)},
      {"cells", static_cast<double>(c.cells)},
  };
}

}  // namespace finehmm::obs
