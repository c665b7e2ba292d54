#include "cluster/coordinator.hpp"

#include <chrono>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/log.hpp"
#include "obs/request_trace.hpp"
#include "util/error.hpp"

namespace finehmm::cluster {

using server::ErrorCode;
using server::ErrorInfo;
using server::MsgType;

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

/// The one scatter -> reply mapping: a ClusterClient outcome as the type
/// and payload of its reply frame.  SEARCH and SCAN differ only in the
/// success type and encoder.
template <typename Result, typename Encode>
std::pair<MsgType, std::vector<std::uint8_t>> reply_frame(Result& res,
                                                         MsgType ok_type,
                                                         Encode encode) {
  switch (res.status) {
    case server::ClientStatus::kOk:
      res.result.trace_id = obs::next_trace_id();
      return {ok_type, encode(res.result)};
    case server::ClientStatus::kOverloaded:
      return {MsgType::kOverload, encode_overload(res.overload)};
    case server::ClientStatus::kError:
      return {MsgType::kError, encode_error(res.error)};
    case server::ClientStatus::kDisconnected:
      break;
  }
  return {MsgType::kError,
          encode_error(ErrorInfo{ErrorCode::kInternal,
                                 "no shard answered the scatter"})};
}

}  // namespace

ClusterCoordinator::ClusterCoordinator(ClusterConfig cfg, ConnectFn connect)
    : Frontend(server::PingInfo{server::kWireRevision,
                                server::NodeRole::kCoordinator, 0}),
      client_(std::move(cfg), std::move(connect)) {}

ClusterCoordinator::~ClusterCoordinator() { begin_drain(); }

void ClusterCoordinator::on_drain() {
  obs::log(obs::LogLevel::kInfo, "cluster.drain_begin",
           {{"shards", static_cast<std::uint64_t>(client_.shard_count())}});
}

CoordinatorStats ClusterCoordinator::stats() const {
  MutexLock lock(stats_mu_);
  return counters_;
}

void ClusterCoordinator::on_search(const std::shared_ptr<Session>& session,
                                   std::uint32_t id,
                                   server::SearchRequest req) {
  const auto started = std::chrono::steady_clock::now();
  ClusterSearchResult res = client_.search(req);
  const auto [type, payload] =
      reply_frame(res, MsgType::kResult, server::encode_search_result);
  send_reply(*session, type, id, payload);
  e2e_hist_.record(elapsed_ns(started));
}

void ClusterCoordinator::on_scan(const std::shared_ptr<Session>& session,
                                 std::uint32_t id, server::ScanRequest req) {
  const auto started = std::chrono::steady_clock::now();
  ClusterScanResult res = client_.scan(req);
  const auto [type, payload] =
      reply_frame(res, MsgType::kScanResult, server::encode_scan_result);
  send_reply(*session, type, id, payload);
  e2e_hist_.record(elapsed_ns(started));
}

// --- Observability -------------------------------------------------------

std::string ClusterCoordinator::stats_json() const {
  const CoordinatorStats c = stats();
  const ClusterStats s = client_.stats();
  const ShardManifest& m = client_.manifest();

  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"finehmm.cluster_stats.v1\",\n";
  os << "  \"uptime_seconds\": " << uptime_seconds() << ",\n";
  os << "  \"draining\": " << (draining() ? "true" : "false") << ",\n";
  os << "  \"shard_count\": " << m.shards.size() << ",\n";
  os << "  \"total_sequences\": " << m.total_sequences << ",\n";
  os << "  \"total_residues\": " << m.total_residues << ",\n";
  os << "  \"connections_accepted\": " << c.connections_accepted << ",\n";
  os << "  \"requests_bad\": " << c.requests_bad << ",\n";
  os << "  \"requests_rejected_draining\": " << c.requests_rejected_draining
     << ",\n";
  os << "  \"frames_malformed\": " << c.frames_malformed << ",\n";
  os << "  \"requests\": " << s.requests << ",\n";
  os << "  \"merged_ok\": " << s.merged_ok << ",\n";
  os << "  \"coordinator_sheds\": " << s.coordinator_sheds << ",\n";
  os << "  \"degraded_results\": " << s.degraded_results << ",\n";
  os << "  \"deadline_expired\": " << s.deadline_expired << ",\n";
  os << "  \"failures\": " << s.failures << ",\n";
  os << "  \"latency\": {\n    \"e2e\": ";
  obs::write_latency_json(os, e2e_hist_.snapshot());
  os << ",\n    \"straggler\": ";
  obs::write_latency_json(os, client_.straggler_histogram());
  os << "\n  },\n";
  os << "  \"shards\": [";
  for (std::size_t i = 0; i < s.shards.size(); ++i) {
    const ShardCounters& sc = s.shards[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"shard\": " << i << ", \"path\": \""
       << obs::json_escape(m.shards[i].path) << "\", \"seq_base\": "
       << m.shards[i].seq_base << ", \"sequences\": " << m.shards[i].sequences
       << ", \"healthy\": " << (sc.healthy ? "true" : "false")
       << ", \"requests\": " << sc.requests << ", \"ok\": " << sc.ok
       << ", \"overloaded\": " << sc.overloaded
       << ", \"errors\": " << sc.errors << ", \"deaths\": " << sc.deaths
       << ", \"deadline\": " << sc.deadline << ", \"latency\": ";
    obs::write_latency_json(os, client_.shard_histogram(i));
    os << "}";
  }
  os << (s.shards.empty() ? "" : "\n  ") << "]\n";
  os << "}\n";
  return os.str();
}

std::string ClusterCoordinator::metrics_text() const {
  const CoordinatorStats c = stats();
  const ClusterStats s = client_.stats();

  std::size_t healthy = 0;
  for (const ShardCounters& sc : s.shards)
    if (sc.healthy) ++healthy;

  std::ostringstream os;
  os << "# HELP finehmm_cluster_up Whether the coordinator is serving "
        "(drain flips to 0).\n";
  os << "# TYPE finehmm_cluster_up gauge\n";
  os << "finehmm_cluster_up " << (draining() ? 0 : 1) << "\n";
  os << "# HELP finehmm_cluster_uptime_seconds Seconds since the "
        "coordinator started.\n";
  os << "# TYPE finehmm_cluster_uptime_seconds gauge\n";
  os << "finehmm_cluster_uptime_seconds " << uptime_seconds() << "\n";
  os << "# HELP finehmm_cluster_shards Shards in the manifest.\n";
  os << "# TYPE finehmm_cluster_shards gauge\n";
  os << "finehmm_cluster_shards " << s.shards.size() << "\n";
  os << "# HELP finehmm_cluster_shards_healthy Shards whose last contact "
        "succeeded.\n";
  os << "# TYPE finehmm_cluster_shards_healthy gauge\n";
  os << "finehmm_cluster_shards_healthy " << healthy << "\n";

  os << "# HELP finehmm_cluster_events_total Monotonic coordinator "
        "counters by event.\n";
  os << "# TYPE finehmm_cluster_events_total counter\n";
  const std::pair<const char*, std::uint64_t> events[] = {
      {"connections_accepted", c.connections_accepted},
      {"requests_bad", c.requests_bad},
      {"requests_rejected_draining", c.requests_rejected_draining},
      {"frames_malformed", c.frames_malformed},
      {"requests", s.requests},
      {"merged_ok", s.merged_ok},
      {"coordinator_sheds", s.coordinator_sheds},
      {"degraded_results", s.degraded_results},
      {"deadline_expired", s.deadline_expired},
      {"failures", s.failures},
  };
  for (const auto& [name, value] : events)
    os << "finehmm_cluster_events_total{event=\"" << name << "\"} " << value
       << "\n";

  os << "# HELP finehmm_cluster_shard_events_total Monotonic per-shard "
        "scatter-leg counters by event.\n";
  os << "# TYPE finehmm_cluster_shard_events_total counter\n";
  for (std::size_t i = 0; i < s.shards.size(); ++i) {
    const ShardCounters& sc = s.shards[i];
    const std::pair<const char*, std::uint64_t> shard_events[] = {
        {"requests", sc.requests}, {"ok", sc.ok},
        {"overloaded", sc.overloaded}, {"errors", sc.errors},
        {"deaths", sc.deaths}, {"deadline", sc.deadline},
    };
    for (const auto& [name, value] : shard_events)
      os << "finehmm_cluster_shard_events_total{shard=\"" << i
         << "\",event=\"" << name << "\"} " << value << "\n";
  }

  os << "# HELP finehmm_cluster_shard_healthy Whether the shard's last "
        "contact succeeded.\n";
  os << "# TYPE finehmm_cluster_shard_healthy gauge\n";
  for (std::size_t i = 0; i < s.shards.size(); ++i)
    os << "finehmm_cluster_shard_healthy{shard=\"" << i << "\"} "
       << (s.shards[i].healthy ? 1 : 0) << "\n";

  os << "# HELP finehmm_cluster_request_latency_seconds End-to-end "
        "coordinator latency (decode to reply written).\n";
  os << "# TYPE finehmm_cluster_request_latency_seconds summary\n";
  obs::write_latency_prometheus(os, "finehmm_cluster_request_latency_seconds",
                                e2e_hist_.snapshot());
  os << "# HELP finehmm_cluster_shard_latency_seconds Per-shard scatter "
        "leg roundtrip.\n";
  os << "# TYPE finehmm_cluster_shard_latency_seconds summary\n";
  for (std::size_t i = 0; i < s.shards.size(); ++i)
    obs::write_latency_prometheus(os, "finehmm_cluster_shard_latency_seconds",
                                  client_.shard_histogram(i),
                                  "shard=\"" + std::to_string(i) + "\"");
  os << "# HELP finehmm_cluster_straggler_seconds Max minus min shard "
        "time per fully-answered request.\n";
  os << "# TYPE finehmm_cluster_straggler_seconds summary\n";
  obs::write_latency_prometheus(os, "finehmm_cluster_straggler_seconds",
                                client_.straggler_histogram());
  return os.str();
}

std::string ClusterCoordinator::statusz_text() const {
  const ClusterStats s = client_.stats();
  const ShardManifest& m = client_.manifest();

  std::ostringstream os;
  os << "finehmm_clusterd status\n";
  os << "=======================\n";
  os << "uptime_seconds:   " << uptime_seconds() << "\n";
  os << "state:            " << (draining() ? "draining" : "serving") << "\n";
  os << "database:         " << m.source << " (" << m.total_sequences
     << " sequences, " << m.total_residues << " residues, "
     << m.shards.size() << " shards)\n";
  os << "requests:         " << s.requests << " (" << s.merged_ok << " ok, "
     << s.coordinator_sheds << " shed, " << s.degraded_results
     << " degraded, " << s.deadline_expired << " deadline, " << s.failures
     << " failed)\n";
  for (std::size_t i = 0; i < s.shards.size(); ++i) {
    const ShardCounters& sc = s.shards[i];
    const obs::LatencyQuantiles q =
        obs::latency_quantiles(client_.shard_histogram(i));
    os << "shard " << i << ":          "
       << (sc.healthy ? "healthy" : "UNHEALTHY") << "  ok=" << sc.ok
       << " overloaded=" << sc.overloaded << " errors=" << sc.errors
       << " deaths=" << sc.deaths << " deadline=" << sc.deadline
       << " p99=" << static_cast<double>(q.p99) * 1e-9 << "s\n";
  }
  return os.str();
}

}  // namespace finehmm::cluster
