// finehmm_clusterd — the scatter-gather cluster coordinator
// (docs/cluster.md).
//
// Usage:
//   finehmm_clusterd --manifest <shard.manifest.json>
//                    --shard host:port --shard host:port ... [options]
//
// One --shard per manifest entry, in manifest order: shard k of the
// manifest is served by the k-th --shard address.  To clients the
// coordinator speaks the ordinary finehmmd protocol on --host:--port;
// every SEARCH/SCAN fans out over all shards and the merged reply is
// bit-identical to an unsharded scan of the source database.
//
// Options:
//   --host <addr>       IPv4 address to bind (default 127.0.0.1)
//   --port <n>          TCP port; 0 = kernel-picked (default 0).  Printed
//                       as "finehmm_clusterd: listening on HOST:PORT".
//   --metrics-port <n>  serve HTTP /metrics, /healthz, /statusz (0 =
//                       ephemeral; printed).  Omit to disable.
//   --no-degraded       fail requests when a shard is unreachable instead
//                       of serving a flagged partial merge
//   --retries <n>       connect attempts per shard leg beyond the first
//                       (default 2; backoff doubles from 5 ms)
//   --pid-file <f>      write the pid to f (removed on clean exit)
//   --log <level>       structured JSON log level on stderr (default info)
//
// SIGTERM/SIGINT drains gracefully: stop accepting, finish in-flight
// scatters, then exit 0 after printing the final cluster stats JSON.
// Exit codes follow examples/tool_exit.hpp.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/coordinator.hpp"
#include "daemon_main.hpp"
#include "obs/log.hpp"
#include "server/tcp.hpp"
#include "tool_exit.hpp"

using namespace finehmm;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: finehmm_clusterd --manifest m.json --shard host:port "
               "... [--host addr]\n"
               "                        [--port n] [--metrics-port n] "
               "[--no-degraded]\n"
               "                        [--retries n] [--pid-file f] "
               "[--log level]\n");
}

}  // namespace

int main(int argc, char** argv) {
  tools::Daemon daemon("finehmm_clusterd", "cluster");  // before any thread
  std::string manifest_path;
  std::vector<tools::HostPort> shard_addrs;
  cluster::ClusterConfig cfg;
  cfg.require_shard_role = true;

  for (int i = 1; i < argc; ++i) {
    const tools::Daemon::Arg shared = daemon.take_arg(argc, argv, i);
    if (shared == tools::Daemon::Arg::kBad) return tools::kBadArgs;
    if (shared == tools::Daemon::Arg::kTaken) continue;
    const std::string arg = argv[i];
    if (arg == "--manifest" && i + 1 < argc) {
      manifest_path = argv[++i];
    } else if (arg == "--shard" && i + 1 < argc) {
      const std::optional<tools::HostPort> hp =
          tools::parse_host_port(argv[++i]);
      if (!hp) {
        std::fprintf(stderr, "finehmm_clusterd: bad --shard '%s'\n", argv[i]);
        return tools::kBadArgs;
      }
      shard_addrs.push_back(*hp);
    } else if (arg == "--no-degraded") {
      cfg.allow_degraded = false;
    } else if (arg == "--retries" && i + 1 < argc) {
      cfg.connect_retries = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else {
      usage();
      return tools::kBadArgs;
    }
  }
  if (manifest_path.empty() || shard_addrs.empty()) {
    usage();
    return tools::kBadArgs;
  }

  try {
    cfg.manifest = cluster::read_manifest_file(manifest_path);
    if (shard_addrs.size() != cfg.manifest.shards.size()) {
      std::fprintf(stderr,
                   "finehmm_clusterd: manifest has %zu shards but %zu "
                   "--shard addresses given\n",
                   cfg.manifest.shards.size(), shard_addrs.size());
      return tools::kBadArgs;
    }

    cluster::ClusterCoordinator coord(
        std::move(cfg), [shard_addrs](std::size_t shard) {
          return server::tcp_connect(shard_addrs[shard].host,
                                     shard_addrs[shard].port);
        });

    const std::size_t up = coord.client().probe_all();
    std::printf("finehmm_clusterd: %zu/%zu shards answered the probe\n", up,
                coord.client().shard_count());
    if (up == 0)
      std::fprintf(stderr,
                   "finehmm_clusterd: warning: no shard reachable yet; "
                   "serving anyway (requests will fail until shards come "
                   "up)\n");

    const std::uint16_t port = daemon.listen(coord);
    obs::log(obs::LogLevel::kInfo, "cluster.start",
             {{"host", daemon.host()},
              {"port", static_cast<std::uint64_t>(port)},
              {"shards",
               static_cast<std::uint64_t>(coord.client().shard_count())},
              {"shards_up", static_cast<std::uint64_t>(up)}});
    daemon.serve(coord);
  } catch (const std::exception& e) {
    return tools::report_exception(e);
  }
  return tools::kOk;
}
