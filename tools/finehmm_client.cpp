// finehmm_client — query and probe a running finehmmd (docs/server.md).
//
// Usage:
//   finehmm_client HOST:PORT [options] [<model.hmm>]
//
// Options:
//   --db <n>         resident database id to search (default 0)
//   -E <evalue>      report threshold (default 10.0)
//   --deadline <ms>  per-request deadline; the daemon sheds the request
//                    with an error if it sits queued past it (default:
//                    none)
//   --tblout <f>     write the machine-readable target table to f
//   --ping           health-check the daemon and exit
//   --stats          fetch the daemon's STATS and pretty-print the
//                    latency histogram quantiles and coalescing/fuse
//                    counters
//   --stats-json     fetch the daemon's STATS and print the raw
//                    machine-readable JSON ("finehmm.server_stats.v2")
//   --bench <n>      closed-loop benchmark: each client sends n requests
//                    back to back; prints throughput and latency
//                    percentiles instead of a report
//   --clients <k>    concurrent connections for --bench (default 1)
//
// A model is required for searches and --bench; --ping/--stats need none.
// Exit codes follow examples/tool_exit.hpp.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "hmm/hmm_io.hpp"
#include "obs/request_trace.hpp"
#include "obs/telemetry.hpp"
#include "pipeline/report.hpp"
#include "server/client.hpp"
#include "server/tcp.hpp"
#include "tool_exit.hpp"
#include "util/timer.hpp"

using namespace finehmm;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: finehmm_client HOST:PORT [--db n] [-E evalue] "
               "[--deadline ms] [--tblout f]\n"
               "                      [--ping] [--stats] [--stats-json] "
               "[--bench n [--clients k]]\n"
               "                      [<model.hmm>]\n");
}

double percentile(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted_ms.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_ms.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_ms[lo] + (sorted_ms[hi] - sorted_ms[lo]) * frac;
}

/// Closed-loop bench: k clients, each its own connection, each firing
/// `per_client` requests back to back.  Reports aggregate throughput
/// (guarded by obs::safe_rate) and the latency distribution.
int run_bench(const std::string& host, std::uint16_t port,
              std::uint32_t db_id, const hmm::Plan7Hmm& model,
              const stats::ModelStats* model_stats, double evalue,
              std::uint32_t deadline_ms, std::size_t per_client,
              std::size_t clients) {
  std::vector<std::vector<double>> lat_ms(clients);
  std::vector<std::size_t> failures(clients, 0);
  std::vector<std::thread> threads;
  Timer wall;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        server::BlockingClient client(server::tcp_connect(host, port));
        lat_ms[c].reserve(per_client);
        for (std::size_t i = 0; i < per_client; ++i) {
          Timer t;
          const server::RemoteResult rr =
              client.search(db_id, model, model_stats, evalue, deadline_ms);
          if (rr.status == server::ClientStatus::kOk)
            lat_ms[c].push_back(t.seconds() * 1e3);
          else
            ++failures[c];
        }
      } catch (const std::exception&) {
        failures[c] += per_client - lat_ms[c].size();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = wall.seconds();

  std::vector<double> all;
  std::size_t failed = 0;
  for (std::size_t c = 0; c < clients; ++c) {
    all.insert(all.end(), lat_ms[c].begin(), lat_ms[c].end());
    failed += failures[c];
  }
  std::sort(all.begin(), all.end());

  std::printf("{\n");
  std::printf("  \"clients\": %zu,\n", clients);
  std::printf("  \"requests_per_client\": %zu,\n", per_client);
  std::printf("  \"completed\": %zu,\n", all.size());
  std::printf("  \"failed\": %zu,\n", failed);
  std::printf("  \"wall_seconds\": %.6f,\n", wall_s);
  std::printf("  \"requests_per_sec\": %.3f,\n",
              obs::safe_rate(static_cast<double>(all.size()), wall_s));
  std::printf("  \"latency_ms\": {\"p50\": %.3f, \"p95\": %.3f, "
              "\"p99\": %.3f, \"max\": %.3f}\n",
              percentile(all, 50), percentile(all, 95), percentile(all, 99),
              all.empty() ? 0.0 : all.back());
  std::printf("}\n");
  return failed == 0 ? tools::kOk : tools::kFailure;
}

// --- Tiny extractors for the daemon's stats JSON ------------------------
// The v2 schema is machine-first; the pretty printer only needs a few
// scalar fields, so a string scan beats hauling in a JSON parser.

/// First `"key": <number>` at or after `from`; NaN when absent.
double find_number(const std::string& json, const std::string& key,
                   std::size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle, from);
  if (at == std::string::npos) return std::nan("");
  return std::atof(json.c_str() + at + needle.size());
}

/// The `{...}` object following `"key":`, or empty when absent.  Good
/// enough for the latency objects, which nest no further braces.
std::string find_object(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  std::size_t at = json.find(needle);
  if (at == std::string::npos) return {};
  at = json.find('{', at + needle.size());
  if (at == std::string::npos) return {};
  const std::size_t end = json.find('}', at);
  if (end == std::string::npos) return {};
  return json.substr(at, end - at + 1);
}

void print_latency_line(const std::string& stats, const char* key,
                        const char* label) {
  const std::string h = find_object(stats, key);
  std::printf("  latency %-11s p50 %8.3f  p90 %8.3f  p99 %8.3f  "
              "p99.9 %8.3f ms  (n=%.0f)\n",
              label, find_number(h, "p50_seconds") * 1e3,
              find_number(h, "p90_seconds") * 1e3,
              find_number(h, "p99_seconds") * 1e3,
              find_number(h, "p999_seconds") * 1e3,
              find_number(h, "count"));
}

void print_stats_pretty(const std::string& stats) {
  std::printf("finehmmd stats (schema finehmm.server_stats.v2)\n");
  std::printf("  uptime:             %.1f s\n",
              find_number(stats, "uptime_seconds"));
  std::printf("  queue depth:        %.0f\n",
              find_number(stats, "queue_depth"));
  std::printf("  requests:           admitted %.0f, completed %.0f, "
              "shed %.0f, failed %.0f\n",
              find_number(stats, "requests_admitted"),
              find_number(stats, "requests_completed"),
              find_number(stats, "requests_overloaded"),
              find_number(stats, "requests_failed"));
  const double completed = find_number(stats, "requests_completed");
  const double sweeps = find_number(stats, "db_sweeps") +
                        find_number(stats, "scan_sweeps");
  std::printf("  coalescing:         %.0f batches, %.0f sweeps, "
              "%.2f requests/sweep, max batch %.0f\n",
              find_number(stats, "batches"), sweeps,
              obs::safe_rate(completed, sweeps),
              find_number(stats, "max_batch_size"));
  std::printf("  scan (fused):       %.0f requests, %.0f sweeps, "
              "%.0f models scored, %.0f fuse groups, lane occupancy "
              "%.3f\n",
              find_number(stats, "scan_requests"),
              find_number(stats, "scan_sweeps"),
              find_number(stats, "scan_models_scored"),
              find_number(stats, "scan_fuse_groups"),
              find_number(stats, "scan_lane_occupancy"));
  print_latency_line(stats, "e2e", "e2e:");
  print_latency_line(stats, "queue_wait", "queue:");
  print_latency_line(stats, "sweep", "sweep:");
}

}  // namespace

int main(int argc, char** argv) {
  std::string hostport, hmm_path, tblout_path;
  std::uint32_t db_id = 0;
  double evalue = 10.0;
  std::uint32_t deadline_ms = 0;
  bool do_ping = false, do_stats = false, do_stats_json = false;
  std::size_t bench_n = 0, bench_clients = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--db" && i + 1 < argc) {
      db_id = static_cast<std::uint32_t>(std::atoll(argv[++i]));
    } else if (arg == "-E" && i + 1 < argc) {
      evalue = std::atof(argv[++i]);
    } else if (arg == "--deadline" && i + 1 < argc) {
      deadline_ms = static_cast<std::uint32_t>(std::atoll(argv[++i]));
    } else if (arg == "--tblout" && i + 1 < argc) {
      tblout_path = argv[++i];
    } else if (arg == "--ping") {
      do_ping = true;
    } else if (arg == "--stats") {
      do_stats = true;
    } else if (arg == "--stats-json") {
      do_stats_json = true;
    } else if (arg == "--bench" && i + 1 < argc) {
      bench_n = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--clients" && i + 1 < argc) {
      bench_clients = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (!arg.empty() && arg[0] == '-') {
      usage();
      return tools::kBadArgs;
    } else if (hostport.empty()) {
      hostport = arg;
    } else if (hmm_path.empty()) {
      hmm_path = arg;
    } else {
      usage();
      return tools::kBadArgs;
    }
  }

  const std::optional<tools::HostPort> target =
      tools::parse_host_port(hostport);
  if (!target) {
    usage();
    return tools::kBadArgs;
  }
  const std::string& host = target->host;
  const std::uint16_t port = target->port;
  const bool needs_model =
      bench_n > 0 || (!do_ping && !do_stats && !do_stats_json);
  if (needs_model && hmm_path.empty()) {
    usage();
    return tools::kBadArgs;
  }
  if (bench_clients == 0) bench_clients = 1;

  try {
    std::optional<stats::ModelStats> file_stats;
    hmm::Plan7Hmm model;
    if (needs_model) model = hmm::read_hmm_file(hmm_path, &file_stats);

    if (bench_n > 0)
      return run_bench(host, port, db_id, model,
                       file_stats ? &*file_stats : nullptr, evalue,
                       deadline_ms, bench_n, bench_clients);

    server::BlockingClient client(server::tcp_connect(host, port));

    if (do_ping) {
      if (!client.ping()) throw IoError("daemon did not answer PING");
      std::printf("pong\n");
    }
    if (do_stats || do_stats_json) {
      const std::optional<std::string> json = client.stats_json();
      if (!json) throw IoError("daemon did not answer STATS");
      if (do_stats_json)
        std::fputs(json->c_str(), stdout);
      else
        print_stats_pretty(*json);
    }
    if (do_ping || do_stats || do_stats_json) return tools::kOk;

    const server::RemoteResult rr = client.search(
        db_id, model, file_stats ? &*file_stats : nullptr, evalue,
        deadline_ms);
    switch (rr.status) {
      case server::ClientStatus::kOk:
        break;
      case server::ClientStatus::kError:
        std::fprintf(stderr, "error: daemon refused the search: %s\n",
                     rr.error.message.c_str());
        return tools::kFailure;
      case server::ClientStatus::kOverloaded:
        std::fprintf(stderr,
                     "error: daemon overloaded (admission queue of %u "
                     "full); retry later\n",
                     rr.overload.queue_capacity);
        return tools::kFailure;
      case server::ClientStatus::kDisconnected:
        throw IoError("connection to " + hostport + " died mid-request");
    }

    // The daemon's trace id for this request, on stderr so report/tblout
    // stay byte-identical to a local run; quote it when asking the
    // operator where the time went (STATS recent_traces keys on it).
    std::fprintf(stderr, "trace_id %s\n",
                 obs::trace_id_hex(rr.result.trace_id).c_str());

    pipeline::SearchResult result;
    result.hits = rr.result.hits;
    result.ssv = rr.result.ssv;
    result.msv = rr.result.msv;
    result.vit = rr.result.vit;
    result.fwd = rr.result.fwd;
    const hmm::SearchProfile prof(model, hmm::AlignMode::kLocalMultihit, 400);
    const pipeline::DbSummary summary{rr.result.db_sequences,
                                      rr.result.db_residues};
    pipeline::write_report(std::cout, result, prof, summary);
    if (!tblout_path.empty()) {
      std::ofstream tbl(tblout_path);
      if (!tbl.good())
        throw IoError("cannot open tblout file: " + tblout_path);
      pipeline::write_tblout(tbl, result, prof, summary);
    }
  } catch (const std::exception& e) {
    return tools::report_exception(e);
  }
  return tools::kOk;
}
