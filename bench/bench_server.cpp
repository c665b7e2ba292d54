// Resident-daemon throughput: closed-loop clients against an in-process
// SearchServer over the loopback transport (src/server/, docs/server.md).
//
// Each client owns one connection and fires requests back to back; the
// daemon coalesces whatever is queued at each scheduler wake-up into one
// shared database sweep.  What coalescing amortizes is everything paid
// per SWEEP rather than per QUERY: pool dispatch, sweep setup, schedule
// traversal, and per-sequence decode — the per-query DP cells are
// irreducible.  So 16 closed-loop
// clients riding ~16-query sweeps must clear at least 2x the
// single-client rate; that factor is asserted (exit 1), it is the
// subsystem's reason to exist.  Latency percentiles come along for the
// roadmap's evidence trail.
//
// Results are spliced into BENCH_throughput.json under a "server" key
// (the file is created standalone when bench_throughput has not run).
//
// Each load point gives every client one untimed warm-up request, then
// runs for at least a second (bench::run_closed_loop), so the
// single-client point times hundreds of requests, not a handful.
//
// Usage: bench_server [db_scale] [model_length] [requests_per_client]
//                     [out.json]
//   defaults: 0.0002 (~90 sequences — small enough that sweep overhead,
//   not DP work, dominates), 60, 6 (a minimum; the point runs >= 1 s),
//   BENCH_throughput.json
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bio/synthetic.hpp"
#include "hmm/generator.hpp"
#include "obs/telemetry.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/workload.hpp"
#include "server/client.hpp"
#include "server/loopback.hpp"
#include "server/server.hpp"
#include "util/timer.hpp"

namespace {

using namespace finehmm;

double percentile(const std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted_ms.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_ms.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_ms[lo] + (sorted_ms[hi] - sorted_ms[lo]) * frac;
}

struct LoadPoint {
  std::size_t clients = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  double wall_seconds = 0;
  std::uint64_t sweeps = 0;   // coalesced db passes this load point cost
  double p50 = 0, p95 = 0, p99 = 0, max_ms = 0;
  double requests_per_sec() const {
    return obs::safe_rate(static_cast<double>(completed), wall_seconds);
  }
};

/// Timed duration of each load point: long enough that one stall does
/// not decide the single-client point (a request is ~1 ms here).
constexpr double kPointSeconds = 1.0;

/// One closed-loop run: `clients` threads, a warm-up request each, then
/// at least `per_client` requests each and kPointSeconds of load, against
/// a freshly started server (so sweep counts are per-point).
LoadPoint run_point(std::size_t clients, std::size_t per_client,
                    const hmm::Plan7Hmm& model,
                    const stats::ModelStats& model_stats,
                    const bio::SequenceDatabase& db) {
  server::ServerConfig cfg;
  cfg.max_batch = 16;
  server::SearchServer srv(cfg);
  srv.add_database(db);

  server::LoopbackHub hub;
  auto listener = hub.listener();
  std::thread serve_thread([&] { srv.serve(*listener); });

  const bench::LoadRun run = bench::run_closed_loop(
      clients, per_client, kPointSeconds, [&](std::size_t) {
        return [client = std::make_unique<server::BlockingClient>(
                    hub.connect()),
                &model, &model_stats] {
          return client->search(0, model, &model_stats).status ==
                 server::ClientStatus::kOk;
        };
      });

  LoadPoint pt;
  pt.clients = clients;
  pt.wall_seconds = run.wall_seconds;
  pt.failed = run.failed;
  srv.begin_drain();
  serve_thread.join();
  pt.sweeps = srv.stats().db_sweeps;

  const std::vector<double>& all = run.latency_ms;
  pt.completed = all.size();
  pt.p50 = percentile(all, 50);
  pt.p95 = percentile(all, 95);
  pt.p99 = percentile(all, 99);
  pt.max_ms = all.empty() ? 0.0 : all.back();
  return pt;
}

std::string point_json(const LoadPoint& pt) {
  std::ostringstream os;
  os << "{\"clients\": " << pt.clients << ", \"completed\": " << pt.completed
     << ", \"failed\": " << pt.failed << ", \"wall_seconds\": "
     << pt.wall_seconds << ", \"db_sweeps\": " << pt.sweeps
     << ", \"requests_per_sec\": "
     << obs::json_rate(static_cast<double>(pt.completed), pt.wall_seconds)
     << ", \"latency_ms\": {\"p50\": " << pt.p50 << ", \"p95\": " << pt.p95
     << ", \"p99\": " << pt.p99 << ", \"max\": " << pt.max_ms << "}}";
  return os.str();
}

/// Splice `section` in as a top-level "server" key of an existing JSON
/// object file, or write a fresh standalone object around it.
void write_results(const std::string& path, const std::string& section) {
  std::string existing;
  {
    std::ifstream in(path);
    if (in.good()) {
      std::ostringstream buf;
      buf << in.rdbuf();
      existing = buf.str();
    }
  }
  // Re-runs replace the section we spliced last time, never duplicate it.
  const std::size_t prior = existing.find(",\n  \"server\":");
  if (prior != std::string::npos) existing = existing.substr(0, prior) + "\n}\n";
  const std::size_t brace = existing.rfind('}');
  std::ofstream out(path);
  if (brace != std::string::npos) {
    // "...}\n" -> "...,\n  \"server\": {...}\n}\n"
    out << existing.substr(0, brace) << ",\n  \"server\":" << section
        << "\n}\n";
  } else {
    out << "{\n  \"bench\": \"server\",\n  \"server\":" << section << "\n}\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::stod(argv[1]) : 0.0002;
  const int M = argc > 2 ? std::stoi(argv[2]) : 60;
  const std::size_t per_client =
      argc > 3 ? static_cast<std::size_t>(std::stoul(argv[3])) : 6;
  const std::string out_path =
      argc > 4 ? argv[4] : "BENCH_throughput.json";

  pipeline::WorkloadSpec wspec;
  wspec.db = bio::SyntheticDbSpec::swissprot_like(scale);
  wspec.homolog_fraction = 0.02;
  const hmm::Plan7Hmm model = hmm::paper_model(M);
  const bio::SequenceDatabase db = pipeline::make_workload(model, wspec);

  // Calibrate once; every request ships the stats so the daemon never
  // recalibrates — the bench then measures sweeps, not calibration.
  stats::CalibrateOptions calib;
  calib.n_samples = 100;
  const pipeline::HmmSearch reference(model, {}, calib);
  const stats::ModelStats& model_stats = reference.model_stats();

  std::size_t total_residues = 0;
  for (std::size_t s = 0; s < db.size(); ++s) total_residues += db[s].length();
  std::printf("server bench: %zu sequences, %zu residues, M=%d, "
              "%zu requests/client\n",
              db.size(), total_residues, M, per_client);

  std::vector<LoadPoint> points;
  for (std::size_t clients : {std::size_t{1}, std::size_t{4},
                              std::size_t{16}}) {
    const LoadPoint pt = run_point(clients, per_client, model, model_stats,
                                   db);
    std::printf("clients=%-2zu  %.1f req/s  sweeps=%llu  p50=%.2fms "
                "p95=%.2fms p99=%.2fms  (%zu ok, %zu failed)\n",
                pt.clients, pt.requests_per_sec(),
                static_cast<unsigned long long>(pt.sweeps), pt.p50, pt.p95,
                pt.p99, pt.completed, pt.failed);
    if (pt.failed != 0) {
      std::cerr << "FATAL: " << pt.failed << " requests failed at "
                << pt.clients << " clients\n";
      return 1;
    }
    points.push_back(pt);
  }

  // The coalescing guard: with sweeps shared 16 ways, closed-loop
  // throughput at 16 clients must be at least 2x the single-client rate.
  const double single = points.front().requests_per_sec();
  const double coalesced = points.back().requests_per_sec();
  const double factor = obs::safe_rate(coalesced, single);
  std::printf("coalescing speedup (16 vs 1 clients): %.2fx\n", factor);
  if (factor < 2.0) {
    std::cerr << "FATAL: coalesced throughput only " << factor
              << "x single-client (guard: >= 2x) — batching is broken\n";
    return 1;
  }

  std::ostringstream section;
  section << " {\n    \"transport\": \"loopback\",\n"
          << "    \"model_length\": " << M << ",\n"
          << "    \"db_sequences\": " << db.size() << ",\n"
          << "    \"requests_per_client\": " << per_client << ",\n"
          << "    \"coalescing_speedup_16v1\": " << factor << ",\n"
          << "    \"load_points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i)
    section << "      " << point_json(points[i])
            << (i + 1 < points.size() ? "," : "") << "\n";
  section << "    ]\n  }";
  write_results(out_path, section.str());
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
