#include "cluster/coordinator.hpp"

#include <algorithm>
#include <chrono>
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
                                server::NodeRole::kCoordinator, 0},
               {"finehmm_clusterd status", "finehmm.cluster_stats.v1",
                "finehmm_cluster", "finehmm_cluster_events_total"}),
      client_(std::move(cfg), std::move(connect)) {}

ClusterCoordinator::~ClusterCoordinator() { begin_drain(); }

void ClusterCoordinator::on_drain() {
  obs::log(obs::LogLevel::kInfo, "cluster.drain_begin",
           {{"shards", static_cast<std::uint64_t>(client_.shard_count())}});
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

void ClusterCoordinator::declare_metrics(obs::MetricSet& m,
                                         obs::MetricFamily& events) const {
  using obs::MetricKind;
  const ClusterStats s = client_.stats();
  const ShardManifest& man = client_.manifest();

  m.family("finehmm_cluster_shards", MetricKind::kGauge,
           "Shards in the manifest.", "shard_count")
      .add({}, s.shards.size());
  m.gauge("shards_healthy", "Shards whose last contact succeeded.",
          static_cast<std::size_t>(std::count_if(
              s.shards.begin(), s.shards.end(),
              [](const ShardCounters& sc) { return sc.healthy; })));
  m.gauge("total_sequences", "Sequences across the sharded database.",
          man.total_sequences);
  m.gauge("total_residues", "Residues across the sharded database.",
          man.total_residues);
  events.add({"requests"}, s.requests)
      .add({"merged_ok"}, s.merged_ok)
      .add({"coordinator_sheds"}, s.coordinator_sheds)
      .add({"degraded_results"}, s.degraded_results)
      .add({"deadline_expired"}, s.deadline_expired)
      .add({"failures"}, s.failures);
  m.family("finehmm_cluster_request_latency_seconds", MetricKind::kSummary,
           "End-to-end coordinator latency (decode to reply written).",
           "latency.e2e")
      .add({}, e2e_hist_.snapshot());
  m.family("finehmm_cluster_straggler_seconds", MetricKind::kSummary,
           "Max minus min shard time per fully-answered request.",
           "latency.straggler")
      .add({}, client_.straggler_histogram());

  obs::MetricFamily& healthy = m.family(
      "finehmm_cluster_shard_healthy", MetricKind::kGauge,
      "Whether the shard's last contact succeeded.", "shards.{shard}.healthy",
      {"shard"});
  obs::MetricFamily& legs = m.family(
      "finehmm_cluster_shard_events_total", MetricKind::kCounter,
      "Monotonic per-shard scatter-leg counters by event.",
      "shards.{shard}.{event}", {"shard", "event"});
  obs::MetricFamily& roundtrip = m.family(
      "finehmm_cluster_shard_latency_seconds", MetricKind::kSummary,
      "Per-shard scatter leg roundtrip.", "shards.{shard}.latency",
      {"shard"});
  for (std::size_t i = 0; i < s.shards.size(); ++i) {
    const ShardCounters& sc = s.shards[i];
    const std::string id = std::to_string(i);
    healthy.add({id}, sc.healthy);
    legs.add({id, "requests"}, sc.requests)
        .add({id, "ok"}, sc.ok)
        .add({id, "overloaded"}, sc.overloaded)
        .add({id, "errors"}, sc.errors)
        .add({id, "deaths"}, sc.deaths)
        .add({id, "deadline"}, sc.deadline);
    roundtrip.add({id}, client_.shard_histogram(i));
    // Appendix: where the shard's range comes from.
    const std::string at = "shards." + id + ".";
    m.stats_appendix(at + "shard", id);
    m.stats_appendix(at + "path",
                     "\"" + obs::json_escape(man.shards[i].path) + "\"");
    m.stats_appendix(at + "seq_base", std::to_string(man.shards[i].seq_base));
    m.stats_appendix(at + "sequences",
                     std::to_string(man.shards[i].sequences));
  }
  m.statusz_appendix("database: " + man.source);
}

}  // namespace finehmm::cluster
