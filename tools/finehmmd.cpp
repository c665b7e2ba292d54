// finehmmd — the resident search daemon (docs/server.md).
//
// Usage:
//   finehmmd [options] <db.fsqdb> [<db2.fsqdb> ...]
//
// Options:
//   --host <addr>    IPv4 address to bind (default 127.0.0.1)
//   --port <n>       TCP port; 0 lets the kernel pick (default 0).  The
//                    bound port is printed as "finehmmd: listening on
//                    HOST:PORT" either way, so scripts can scrape it.
//   --threads <n>    scan-pool threads (default: hardware concurrency - 1);
//                    each sweep also runs on the scheduler thread, so
//                    n + 1 workers
//   --queue <n>      admission queue capacity (default 64)
//   --max-batch <n>  most requests per batch: the scheduler takes what
//                    is queued, up to n, and never waits for more
//                    (default 16)
//   --models <f>     load a pressed model library (.fhpdb); repeatable
//   --shard-id <n>   announce role "shard" with this id in the PONG
//                    handshake (the daemon serves shard n of a sharded
//                    database; docs/cluster.md).  Coordinators started
//                    with require_shard_role refuse workers without it.
//   --pid-file <f>   write the daemon pid to f (removed on clean exit)
//   --metrics-port <n>  serve HTTP /metrics, /healthz, /statusz on this
//                    port (0 = ephemeral; printed as "finehmmd: metrics
//                    on HOST:PORT").  Omit to disable the endpoint.
//   --slow-ms <n>    log a per-stage breakdown (warn, rate-limited) for
//                    any request slower than n milliseconds end to end
//   --log <level>    structured JSON log level on stderr:
//                    debug|info|warn|error|off (default info;
//                    FINEHMM_LOG overrides)
//
// Databases are mmap-resident for the process lifetime; clients name
// them by load order (db_id 0, 1, ...).  SIGTERM or SIGINT starts a
// graceful drain: stop accepting, finish every admitted request, then
// exit 0 after printing the final server stats JSON to stdout.
//
// Exit codes follow examples/tool_exit.hpp.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "daemon_main.hpp"
#include "obs/log.hpp"
#include "server/server.hpp"
#include "tool_exit.hpp"

using namespace finehmm;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: finehmmd [--host addr] [--port n] [--threads n] "
               "[--queue n] [--max-batch n]\n"
               "                [--models lib.fhpdb]... "
               "[--shard-id n] [--pid-file f]\n"
               "                [--metrics-port n] [--slow-ms n] "
               "[--log level] <db.fsqdb>...\n");
}

}  // namespace

int main(int argc, char** argv) {
  tools::Daemon daemon("finehmmd", "server");  // before any thread exists
  std::vector<std::string> db_paths;
  std::vector<std::string> model_paths;
  server::ServerConfig cfg;

  for (int i = 1; i < argc; ++i) {
    const tools::Daemon::Arg shared = daemon.take_arg(argc, argv, i);
    if (shared == tools::Daemon::Arg::kBad) return tools::kBadArgs;
    if (shared == tools::Daemon::Arg::kTaken) continue;
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      cfg.scan_threads = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--queue" && i + 1 < argc) {
      cfg.admission_capacity = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--max-batch" && i + 1 < argc) {
      cfg.max_batch = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--models" && i + 1 < argc) {
      model_paths.push_back(argv[++i]);
    } else if (arg == "--shard-id" && i + 1 < argc) {
      cfg.role = server::NodeRole::kShard;
      cfg.shard_id = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (arg == "--slow-ms" && i + 1 < argc) {
      cfg.slow_request_seconds = std::atof(argv[++i]) * 1e-3;
    } else if (!arg.empty() && arg[0] == '-') {
      usage();
      return tools::kBadArgs;
    } else {
      db_paths.push_back(arg);
    }
  }
  if (db_paths.empty()) {
    usage();
    return tools::kBadArgs;
  }

  try {
    server::SearchServer srv(cfg);
    for (const std::string& path : db_paths) {
      const std::uint32_t id = srv.add_database(path);
      std::printf("finehmmd: db %u = %s\n", id, path.c_str());
    }
    for (const std::string& path : model_paths) {
      const std::size_t n = srv.add_model_library(path);
      std::printf("finehmmd: loaded %zu pressed models from %s\n", n,
                  path.c_str());
    }

    const std::uint16_t port = daemon.listen(srv);
    obs::log(obs::LogLevel::kInfo, "server.start",
             {{"host", daemon.host()},
              {"port", static_cast<std::uint64_t>(port)},
              {"databases", static_cast<std::uint64_t>(srv.database_count())},
              {"models", static_cast<std::uint64_t>(srv.model_count())}});
    daemon.serve(srv);
  } catch (const std::exception& e) {
    return tools::report_exception(e);
  }
  return tools::kOk;
}
