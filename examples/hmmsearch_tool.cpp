// hmmsearch-like command line tool.
//
// Usage:
//   hmmsearch_tool [options] <model.hmm> <db.fasta>
//   hmmsearch_tool --demo            (self-contained synthetic demo)
//
// Options:
//   --gpu            run MSV/P7Viterbi through the simulated GPU kernels
//   --global         use the global-memory parameter placement
//   --ali            print the Viterbi alignment under each hit
//   --domains        posterior-decode hits and print the domain table
//   --tblout <file>  also write the machine-readable target table
//   -E <evalue>      report threshold (default 10.0)
//   --max-hits <n>   print at most n hits (default 50)
//   --threads <n>    scan with the multi-threaded CPU engine (the
//                    overlapped sweep core): n pool threads plus the
//                    calling thread, so n + 1 workers
//   --telemetry <f>  write the unified ScanTelemetry JSON snapshot
//                    (docs/observability.md) to f
//   --trace <f>      write a Chrome trace_event JSON (chrome://tracing,
//                    Perfetto) of the scan's spans to f
//   --stats-json <f> write per-stage filter statistics (counts, cells,
//                    seconds, pass rates) as JSON to f
//
// All three output flags also accept the --flag=path spelling.
//
// Remote mode (docs/server.md):
//   hmmsearch_tool --connect HOST:PORT [--db-index n] <model.hmm>
// sends the query to a running finehmmd instead of scanning locally; the
// daemon's resident database replaces <db.fasta>, and the report/tblout
// output is rendered from the wire result (bit-identical scores).  The
// local-engine flags (--gpu, --threads, --ali, --domains,
// observability outputs) do not apply remotely and are rejected.
//
// Exit codes follow examples/tool_exit.hpp: 0 ok, 1 failure, 2 bad
// arguments, 3 I/O error.
//
// Searches every sequence of the FASTA database against the profile HMM
// through the calibrated MSV -> P7Viterbi -> Forward pipeline and prints
// a hit table, hmmsearch-style.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "bio/fasta.hpp"
#include "hmm/model_db.hpp"
#include "bio/packing.hpp"
#include "bio/seq_db_io.hpp"
#include "cpu/trace.hpp"
#include "hmm/generator.hpp"
#include "hmm/hmm_io.hpp"
#include "obs/recorder.hpp"
#include "obs/telemetry.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/report.hpp"
#include "pipeline/workload.hpp"
#include "server/client.hpp"
#include "server/tcp.hpp"
#include "tool_exit.hpp"

using namespace finehmm;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: hmmsearch_tool [--gpu] [--global] [-E evalue] "
               "[--max-hits n] [--threads n]\n"
               "                      [--telemetry f] [--trace f] "
               "[--stats-json f] <model.hmm> <db.fasta>\n"
               "       hmmsearch_tool --connect HOST:PORT [--db-index n] "
               "[-E evalue] [--tblout f] <model.hmm>\n"
               "       hmmsearch_tool --demo\n");
}

/// Thrown when the query argument is a multi-model pressed library:
/// hmmsearch has exactly one query, so this is a usage error (exit 2),
/// not a scan failure.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Load the query model from an ASCII .hmm file or a single-model pressed
/// .fhpdb library (whose stored calibration is used like STATS lines).
/// A library with several models throws UsageError — point the user at
/// the tools built for many-model scans.
hmm::Plan7Hmm load_query_model(const std::string& path,
                               std::optional<stats::ModelStats>& file_stats) {
  if (!ends_with(path, ".fhpdb")) return hmm::read_hmm_file(path, &file_stats);
  hmm::ModelDbReader library(path);
  if (library.size() != 1)
    throw UsageError(
        path + " holds " + std::to_string(library.size()) +
        " models, but hmmsearch_tool takes a single query model; use "
        "hmmscan_tool (fused many-model scan) or finehmmd for libraries");
  auto entry = library.load(0);
  file_stats = entry.model_stats;
  return std::move(entry.model);
}

/// Remote search against a running finehmmd.  The report renders from
/// the wire result (db summary + stage stats + hits) through the same
/// formatter the local path uses.
int run_remote(const std::string& hostport, std::uint32_t db_index,
               const std::string& hmm_path, double evalue,
               std::size_t max_hits, const std::string& tblout_path) {
  const std::optional<tools::HostPort> target =
      tools::parse_host_port(hostport);
  if (!target) {
    std::fprintf(stderr, "error: --connect wants HOST:PORT, got '%s'\n",
                 hostport.c_str());
    usage();
    return tools::kBadArgs;
  }

  std::optional<stats::ModelStats> file_stats;
  hmm::Plan7Hmm model = load_query_model(hmm_path, file_stats);

  server::BlockingClient client(
      server::tcp_connect(target->host, target->port));
  std::printf("# engine:   remote (finehmmd at %s)\n", hostport.c_str());
  const server::RemoteResult rr = client.search(
      db_index, model, file_stats ? &*file_stats : nullptr, evalue);

  switch (rr.status) {
    case server::ClientStatus::kOk:
      break;
    case server::ClientStatus::kError:
      std::fprintf(stderr, "error: daemon refused the search: %s\n",
                   rr.error.message.c_str());
      return tools::kFailure;
    case server::ClientStatus::kOverloaded:
      std::fprintf(stderr,
                   "error: daemon overloaded (admission queue of %u full); "
                   "retry later\n",
                   rr.overload.queue_capacity);
      return tools::kFailure;
    case server::ClientStatus::kDisconnected:
      throw IoError("connection to " + hostport + " died mid-request");
  }

  pipeline::SearchResult result;
  result.hits = rr.result.hits;
  result.ssv = rr.result.ssv;
  result.msv = rr.result.msv;
  result.vit = rr.result.vit;
  result.fwd = rr.result.fwd;
  // The report only needs the query's name and length; the full search
  // profile is cheap to configure (no calibration).
  const hmm::SearchProfile prof(model, hmm::AlignMode::kLocalMultihit, 400);
  const pipeline::DbSummary summary{rr.result.db_sequences,
                                    rr.result.db_residues};

  pipeline::ReportOptions ropts;
  ropts.max_hits = max_hits;
  pipeline::write_report(std::cout, result, prof, summary, ropts);

  if (!tblout_path.empty()) {
    std::ofstream tbl(tblout_path);
    if (!tbl.good()) throw IoError("cannot open tblout file: " + tblout_path);
    pipeline::write_tblout(tbl, result, prof, summary);
    std::printf("# target table written to %s\n", tblout_path.c_str());
  }
  return tools::kOk;
}

/// Match `--name <value>` or `--name=<value>`; advances `i` in the first
/// form.  Returns true and fills `value` on a match.
bool path_opt(int argc, char** argv, int& i, const char* name,
              std::string& value) {
  const std::string arg = argv[i];
  if (arg == name) {
    if (i + 1 >= argc) return false;
    value = argv[++i];
    return true;
  }
  const std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) == 0) {
    value = arg.substr(prefix.size());
    return true;
  }
  return false;
}

std::ofstream open_or_die(const std::string& path) {
  std::ofstream os(path);
  if (!os.good()) throw IoError("cannot open output file: " + path);
  return os;
}

void write_stats_json(std::ostream& os, const pipeline::SearchResult& r,
                      bool use_ssv) {
  os << "{\n  \"stages\": [\n";
  struct Row {
    const char* name;
    const pipeline::StageStats* s;
  };
  std::vector<Row> rows;
  if (use_ssv) rows.push_back({"ssv", &r.ssv});
  rows.push_back({"msv", &r.msv});
  rows.push_back({"vit", &r.vit});
  rows.push_back({"fwd", &r.fwd});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& s = *rows[i].s;
    os << "    {\"stage\": \"" << rows[i].name << "\", \"n_in\": " << s.n_in
       << ", \"n_passed\": " << s.n_passed << ", \"cells\": " << s.cells
       << ", \"seconds\": " << s.seconds
       << ", \"pass_rate\": " << s.pass_rate() << ", \"cells_per_sec\": "
       << obs::json_rate(s.cells, s.seconds) << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"hits\": " << r.hits.size();
  if (r.telemetry) {
    os << ",\n  \"telemetry\":\n";
    r.telemetry->write_json(os, 2);
  }
  os << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool use_gpu = false, demo = false, show_ali = false, show_domains = false;
  auto placement = gpu::ParamPlacement::kShared;
  double evalue = 10.0;
  std::size_t max_hits = 50;
  std::size_t threads = 0;  // 0 = serial engine
  std::string hmm_path, fasta_path, tblout_path;
  std::string telemetry_path, trace_path, stats_json_path;
  std::string connect_hostport;
  std::uint32_t db_index = 0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      connect_hostport = argv[++i];
    } else if (arg == "--db-index" && i + 1 < argc) {
      db_index = static_cast<std::uint32_t>(std::atoll(argv[++i]));
    } else if (arg == "--gpu") {
      use_gpu = true;
    } else if (arg == "--global") {
      placement = gpu::ParamPlacement::kGlobal;
    } else if (arg == "--demo") {
      demo = true;
    } else if (arg == "--ali") {
      show_ali = true;
    } else if (arg == "--domains") {
      show_domains = true;
    } else if (arg == "--tblout" && i + 1 < argc) {
      tblout_path = argv[++i];
    } else if (arg == "-E" && i + 1 < argc) {
      evalue = std::atof(argv[++i]);
    } else if (arg == "--max-hits" && i + 1 < argc) {
      max_hits = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (path_opt(argc, argv, i, "--telemetry", telemetry_path) ||
               path_opt(argc, argv, i, "--trace", trace_path) ||
               path_opt(argc, argv, i, "--stats-json", stats_json_path)) {
      // handled by path_opt
    } else if (hmm_path.empty()) {
      hmm_path = arg;
    } else if (fasta_path.empty()) {
      fasta_path = arg;
    } else {
      usage();
      return tools::kBadArgs;
    }
  }

  if (!connect_hostport.empty()) {
    // Remote mode: the daemon runs the scan — every local-engine and
    // observability flag is meaningless there, and a second positional
    // argument (a database path) contradicts "the daemon's database".
    const bool incompatible = use_gpu || demo || threads > 0 ||
                              show_ali || show_domains ||
                              !telemetry_path.empty() || !trace_path.empty() ||
                              !stats_json_path.empty() || !fasta_path.empty();
    if (incompatible || hmm_path.empty()) {
      usage();
      return tools::kBadArgs;
    }
    try {
      return run_remote(connect_hostport, db_index, hmm_path, evalue,
                        max_hits, tblout_path);
    } catch (const UsageError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return tools::kBadArgs;
    } catch (const std::exception& e) {
      return tools::report_exception(e);
    }
  }

  try {
    hmm::Plan7Hmm model;
    bio::SequenceDatabase db;
    std::optional<bio::MappedSeqDb> mapped;
    std::optional<stats::ModelStats> file_stats;
    if (demo) {
      model = hmm::paper_model(200);
      pipeline::WorkloadSpec spec;
      spec.db.n_sequences = 3000;
      spec.homolog_fraction = 0.01;
      db = pipeline::make_workload(model, spec);
      std::printf("# demo mode: synthetic model M=200, %zu sequences\n",
                  db.size());
    } else {
      if (hmm_path.empty() || fasta_path.empty()) {
        usage();
        return tools::kBadArgs;
      }
      model = load_query_model(hmm_path, file_stats);
      // FASTA by default; packed binary databases by extension.  The CPU
      // engines scan a .fsqdb zero-copy through the mmap-backed reader;
      // the simulated GPU path needs the decoded heap database.
      if (fasta_path.size() > 6 &&
          fasta_path.substr(fasta_path.size() - 6) == ".fsqdb") {
        if (use_gpu)
          db = bio::read_seq_db_file(fasta_path);
        else
          mapped.emplace(fasta_path);
      } else {
        db = bio::read_fasta_file(fasta_path);
      }
    }
    const pipeline::ScanSource src =
        mapped ? pipeline::ScanSource(*mapped) : pipeline::ScanSource(db);

    std::printf("# engine:   %s\n", use_gpu ? "simulated GPU (warp kernels)"
                                            : "CPU (striped SIMD)");

    pipeline::Thresholds thr;
    thr.report_evalue = evalue;
    thr.define_domains = show_domains;
    thr.compute_alignments = show_ali;
    if (file_stats)
      std::printf("# stats:    precomputed calibration from %s\n",
                  hmm_path.c_str());
    pipeline::HmmSearch search =
        file_stats ? pipeline::HmmSearch(model, *file_stats, thr)
                   : pipeline::HmmSearch(model, thr);

    // Every engine fills the telemetry snapshot; only the Chrome trace
    // needs the span recorder.
    obs::Recorder recorder;
    if (!trace_path.empty()) search.set_recorder(&recorder);

    pipeline::SearchResult result;
    if (use_gpu) {
      bio::PackedDatabase packed(db);
      result = search.run_gpu({simt::DeviceSpec::tesla_k40()}, db, packed,
                              placement);
    } else if (threads > 0) {
      result = search.run_cpu_overlapped(src, threads);
    } else {
      result = search.run_cpu(src);
    }

    pipeline::ReportOptions ropts;
    ropts.max_hits = max_hits;
    ropts.show_alignments = show_ali;
    ropts.show_domains = show_domains;
    pipeline::write_report(std::cout, result, search.profile(), src, ropts);

    if (!tblout_path.empty()) {
      std::ofstream tbl(tblout_path);
      if (!tbl.good()) throw IoError("cannot open tblout file: " + tblout_path);
      pipeline::write_tblout(tbl, result, search.profile(), src);
      std::printf("# target table written to %s\n", tblout_path.c_str());
    }

    if (!telemetry_path.empty()) {
      auto os = open_or_die(telemetry_path);
      if (result.telemetry) {
        result.telemetry->write_json(os);
        os << "\n";
      } else {
        os << "null\n";
      }
      std::printf("# telemetry written to %s\n", telemetry_path.c_str());
    }
    if (!trace_path.empty()) {
      auto os = open_or_die(trace_path);
      recorder.write_chrome_trace(os);
      std::printf("# chrome trace written to %s\n", trace_path.c_str());
    }
    if (!stats_json_path.empty()) {
      auto os = open_or_die(stats_json_path);
      write_stats_json(os, result, search.thresholds().use_ssv_prefilter);
      std::printf("# stage stats written to %s\n", stats_json_path.c_str());
    }
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return tools::kBadArgs;
  } catch (const std::exception& e) {
    return tools::report_exception(e);
  }
  return tools::kOk;
}
