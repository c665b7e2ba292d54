// Frontend conformance: finehmmd (SearchServer) and finehmm_clusterd
// (ClusterCoordinator) share one connection tier, server::Frontend, so a
// client must see the same contract from either daemon.  One test body
// runs against each, served over the in-process loopback (the
// coordinator in front of two loopback shard daemons):
//   * malformed bytes tear down only that connection (frames_malformed);
//   * an undecodable SEARCH/SCAN payload is kBadRequest (requests_bad)
//     and the connection keeps serving;
//   * a legacy or mismatched PING is kVersionMismatch, and the PONG
//     announces the daemon's role;
//   * an unknown verb is kBadRequest;
//   * STATS carries the daemon's schema and the shared counter keys;
//   * /healthz flips 200 -> 503 on drain, unknown paths are 404;
//   * SEARCH and SCAN after begin_drain are kShuttingDown
//     (requests_rejected_draining);
//   * the accept loop joins the threads of ended sessions, and drain
//     joins the rest;
//   * every declared metric reads the same on STATS, /metrics and
//     /statusz, and the STATS schema keeps its keys.
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.hpp"
#include "cluster/shard_map.hpp"
#include "held_listener.hpp"
#include "hmm/generator.hpp"
#include "obs/metrics.hpp"
#include "pipeline/workload.hpp"
#include "server/client.hpp"
#include "server/frontend.hpp"
#include "server/http.hpp"
#include "server/loopback.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

namespace {

using namespace finehmm;
using namespace finehmm::server;

bool eventually(const std::function<bool()>& pred, int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// One GET over the in-process loopback, served by the same
/// http_serve_connection the TCP endpoint thread uses.
std::string http_get(const Frontend& daemon, const std::string& target) {
  LoopbackHub hub;
  auto listener = hub.listener();
  std::thread server([&] {
    std::unique_ptr<Connection> conn = listener->accept();
    if (conn)
      http_serve_connection(*conn, [&daemon](const std::string& p) {
        return daemon.handle_http(p);
      });
  });
  std::unique_ptr<Connection> client = hub.connect();
  const std::string req = "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n";
  EXPECT_TRUE(client->send_all(req.data(), req.size()));
  std::string resp;
  char buf[1024];
  for (;;) {
    const std::size_t n = client->recv_some(buf, sizeof buf);
    if (n == 0) break;
    resp.append(buf, n);
  }
  server.join();
  return resp;
}

/// A JSON document flattened to "a.b.0.c" -> the scalar's text (strings
/// keep their quotes).  Enough JSON for the STATS payloads.
class FlatJson {
 public:
  explicit FlatJson(const std::string& text) : s_(text) { value(""); }
  std::map<std::string, std::string> values;

 private:
  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }
  std::string string_token() {
    const std::size_t start = i_++;
    while (s_[i_] != '"') i_ += s_[i_] == '\\' ? 2 : 1;
    ++i_;
    return s_.substr(start, i_ - start);
  }
  void value(const std::string& path) {
    ws();
    const auto join = [&](const std::string& k) {
      return path.empty() ? k : path + "." + k;
    };
    if (s_[i_] == '{' || s_[i_] == '[') {
      const bool array = s_[i_++] == '[';
      ws();
      for (std::size_t n = 0; s_[i_] != '}' && s_[i_] != ']'; ++n) {
        std::string key = std::to_string(n);
        if (!array) {
          const std::string quoted = string_token();
          key = quoted.substr(1, quoted.size() - 2);
          ws();
          ++i_;  // ':'
        }
        value(join(key));
        ws();
        if (s_[i_] == ',') ++i_;
        ws();
      }
      ++i_;
      return;
    }
    const std::size_t start = i_;
    if (s_[i_] == '"') {
      string_token();
    } else {
      while (i_ < s_.size() && std::string(",}] \n").find(s_[i_]) ==
                                   std::string::npos)
        ++i_;
    }
    values[path] = s_.substr(start, i_ - start);
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

/// Prometheus text exposition -> series ("name{labels}") -> value.
std::map<std::string, std::string> prometheus_series(const std::string& text) {
  std::map<std::string, std::string> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    out[line.substr(0, sp)] = line.substr(sp + 1);
  }
  return out;
}

enum class Daemon { kSearchServer, kCoordinator };

void PrintTo(Daemon d, std::ostream* os) {
  *os << (d == Daemon::kSearchServer ? "SearchServer" : "Coordinator");
}

class FrontendConformance : public ::testing::TestWithParam<Daemon> {
 protected:
  void SetUp() override {
    model_ = hmm::paper_model(48);
    pipeline::WorkloadSpec spec;
    spec.db.n_sequences = 60;
    spec.db.log_length_mu = 4.4;
    spec.db.log_length_sigma = 0.4;
    spec.db.seed = 31;
    db_ = pipeline::make_workload(model_, spec);

    ServerConfig cfg;
    cfg.scan_threads = 1;
    if (GetParam() == Daemon::kSearchServer) {
      auto srv = std::make_unique<SearchServer>(cfg);
      srv->add_database(db_);
      server_ = srv.get();
      daemon_ = std::move(srv);
    } else {
      start_coordinator(cfg);
    }
    listener_ = std::make_unique<HeldListener>(hub_.listener());
    serve_thread_ = std::thread([this] { daemon_->serve(*listener_); });
  }

  void TearDown() override {
    daemon_->begin_drain();
    listener_->release();
    if (serve_thread_.joinable()) serve_thread_.join();
    for (auto& s : shards_) s->begin_drain();
    for (std::thread& t : shard_threads_) t.join();
  }

  /// Two shard daemons over the halves of the database, and the
  /// coordinator that fans out to them.
  void start_coordinator(ServerConfig cfg) {
    std::vector<std::uint32_t> lengths;
    for (const bio::Sequence& s : db_)
      lengths.push_back(static_cast<std::uint32_t>(s.length()));
    cluster::ClusterConfig ccfg;
    ccfg.manifest.source = "conformance";
    ccfg.manifest.total_sequences = db_.size();
    ccfg.manifest.total_residues = db_.total_residues();
    ccfg.require_shard_role = true;
    cfg.role = NodeRole::kShard;
    for (const auto& [begin, end] : cluster::plan_shard_ranges(lengths, 2)) {
      cluster::ShardInfo info;
      info.path = "mem";
      info.seq_base = begin;
      info.sequences = end - begin;
      info.length_buckets.assign(cluster::kLengthBuckets, 0);
      bio::SequenceDatabase slice;
      for (std::size_t i = begin; i < end; ++i) {
        info.residues += db_[i].length();
        ++info.length_buckets[cluster::length_bucket(db_[i].length())];
        slice.add(db_[i]);
      }
      ccfg.manifest.shards.push_back(std::move(info));
      cfg.shard_id = static_cast<std::uint32_t>(shards_.size());
      auto shard = std::make_unique<SearchServer>(cfg);
      shard->add_database(std::move(slice));
      shard_hubs_.push_back(std::make_unique<LoopbackHub>());
      shard_listeners_.push_back(shard_hubs_.back()->listener());
      shard_threads_.emplace_back(
          [s = shard.get(), l = shard_listeners_.back().get()] {
            s->serve(*l);
          });
      shards_.push_back(std::move(shard));
    }
    auto coord = std::make_unique<cluster::ClusterCoordinator>(
        ccfg, [this](std::size_t shard) {
          return shard_hubs_[shard]->connect();
        });
    EXPECT_EQ(coord->client().probe_all(), 2u);
    coordinator_ = coord.get();
    daemon_ = std::move(coord);
  }

  FrontendCounters counters() const { return daemon_->counters(); }

  NodeRole role() const {
    return server_ != nullptr ? NodeRole::kStandalone
                              : NodeRole::kCoordinator;
  }
  const char* schema() const {
    return server_ != nullptr ? "finehmm.server_stats.v2"
                              : "finehmm.cluster_stats.v1";
  }
  const char* up_gauge() const {
    return server_ != nullptr ? "finehmm_up" : "finehmm_cluster_up";
  }

  /// Send one raw frame and read the one reply, which must be kError.
  ErrorCode error_reply(Connection& conn, MsgType type,
                        const std::vector<std::uint8_t>& payload) {
    EXPECT_TRUE(send_frame(conn, type, 9, payload));
    Frame reply;
    EXPECT_EQ(recv_frame(conn, reply), RecvStatus::kFrame);
    EXPECT_EQ(reply.type(), MsgType::kError);
    EXPECT_EQ(reply.header.request_id, 9u);
    return decode_error(reply.payload).code;
  }

  hmm::Plan7Hmm model_;
  bio::SequenceDatabase db_;
  // Shards outlive the coordinator that dials them (reverse destruction).
  std::vector<std::unique_ptr<SearchServer>> shards_;
  std::vector<std::unique_ptr<LoopbackHub>> shard_hubs_;
  std::vector<std::unique_ptr<Listener>> shard_listeners_;
  std::vector<std::thread> shard_threads_;

  std::unique_ptr<Frontend> daemon_;
  SearchServer* server_ = nullptr;
  cluster::ClusterCoordinator* coordinator_ = nullptr;
  LoopbackHub hub_;
  std::unique_ptr<HeldListener> listener_;
  std::thread serve_thread_;
};

TEST_P(FrontendConformance, SharedContract) {
  // --- PING handshake: the PONG announces this daemon's role; legacy,
  // mismatched and undecodable PINGs get structured errors.
  BlockingClient client(hub_.connect());
  const std::optional<PingInfo> pong = client.ping_info();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->wire_revision, kWireRevision);
  EXPECT_EQ(pong->role, role());
  Connection& conn = client.connection();
  // A legacy peer pings with an empty payload (wire revision 1).
  EXPECT_EQ(error_reply(conn, MsgType::kPing, {}),
            ErrorCode::kVersionMismatch);
  PingInfo future;
  future.wire_revision = kWireRevision + 1;
  EXPECT_EQ(error_reply(conn, MsgType::kPing, encode_ping(future)),
            ErrorCode::kVersionMismatch);
  EXPECT_EQ(error_reply(conn, MsgType::kPing, {1, 2, 3}),
            ErrorCode::kBadRequest);

  // --- Unknown verbs are refused, the connection keeps serving.
  EXPECT_EQ(error_reply(conn, static_cast<MsgType>(0x7E), {}),
            ErrorCode::kBadRequest);
  EXPECT_EQ(error_reply(conn, MsgType::kPong, {}), ErrorCode::kBadRequest);

  // --- Undecodable SEARCH / SCAN payloads: the frame itself was whole,
  // so the daemon answers kBadRequest and keeps the connection.
  EXPECT_EQ(error_reply(conn, MsgType::kSearch, {1, 2, 3}),
            ErrorCode::kBadRequest);
  EXPECT_EQ(error_reply(conn, MsgType::kScan, {1, 2, 3}),
            ErrorCode::kBadRequest);
  EXPECT_EQ(counters().requests_bad, 2u);
  EXPECT_TRUE(client.ping());

  // --- Malformed bytes.  A garbage version byte: the framing layer
  // rejects it before any payload allocation.
  auto garbage = hub_.connect();
  ASSERT_TRUE(garbage);
  const std::uint8_t junk[16] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_TRUE(garbage->send_all(junk, sizeof junk));
  ASSERT_TRUE(eventually([&] { return counters().frames_malformed == 1; }));
  // The daemon hung up on us: the next read sees EOF.
  std::uint8_t scratch[8];
  EXPECT_EQ(garbage->recv_some(scratch, sizeof scratch), 0u);

  // A frame torn mid-payload counts too.
  auto torn = hub_.connect();
  ASSERT_TRUE(torn);
  FrameHeader h;
  h.type = static_cast<std::uint8_t>(MsgType::kSearch);
  h.payload_len = 4096;
  std::uint8_t buf[kFrameHeaderSize];
  encode_header(h, buf);
  ASSERT_TRUE(torn->send_all(buf, kFrameHeaderSize));
  torn->shutdown();
  ASSERT_TRUE(eventually([&] { return counters().frames_malformed == 2; }));

  // Through it all, the first client and a new one never noticed.
  EXPECT_TRUE(client.ping());
  BlockingClient good(hub_.connect());
  EXPECT_TRUE(good.ping());
  EXPECT_EQ(counters().connections_accepted, 4u);

  // --- STATS: the daemon's own schema plus the shared counter keys.
  const std::optional<std::string> json = client.stats_json();
  ASSERT_TRUE(json.has_value());
  EXPECT_NE(json->find(schema()), std::string::npos);
  for (const char* key :
       {"\"connections_accepted\": 4", "\"frames_malformed\": 2",
        "\"requests_bad\": 2", "\"requests_rejected_draining\": 0"})
    EXPECT_NE(json->find(key), std::string::npos) << key;

  // --- HTTP routes while serving.
  const std::string health = http_get(*daemon_, "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);
  const std::string missing = http_get(*daemon_, "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);
  EXPECT_NE(missing.find("routes: /metrics /healthz /statusz"),
            std::string::npos);
  EXPECT_NE(http_get(*daemon_, "/metrics").find(std::string(up_gauge()) +
                                                " 1"),
            std::string::npos);

  // --- Drain: health flips, and new SEARCH / SCAN requests on a live
  // session are refused instead of admitted.
  daemon_->begin_drain();
  EXPECT_TRUE(daemon_->draining());
  const std::string drained = http_get(*daemon_, "/healthz");
  EXPECT_NE(drained.find("HTTP/1.1 503"), std::string::npos);
  EXPECT_NE(drained.find("draining"), std::string::npos);
  EXPECT_NE(http_get(*daemon_, "/metrics").find(std::string(up_gauge()) +
                                                " 0"),
            std::string::npos);

  const RemoteResult search = client.search(0, model_, nullptr);
  ASSERT_EQ(search.status, ClientStatus::kError);
  EXPECT_EQ(search.error.code, ErrorCode::kShuttingDown);
  const RemoteScanResult scan = client.scan(0);
  ASSERT_EQ(scan.status, ClientStatus::kError);
  EXPECT_EQ(scan.error.code, ErrorCode::kShuttingDown);
  EXPECT_EQ(counters().requests_rejected_draining, 2u);
  EXPECT_EQ(counters().requests_bad, 2u);
}

TEST_P(FrontendConformance, ReapsEndedConnectionThreads) {
  // A shard behind a ClusterClient gets a fresh connection per request,
  // so connect / PING / close cycles must not leave a thread each.
  constexpr int kCycles = 300;
  for (int c = 0; c < kCycles; ++c) {
    BlockingClient client(hub_.connect());
    ASSERT_TRUE(client.ping()) << "cycle " << c;
  }
  EXPECT_EQ(counters().connections_accepted,
            static_cast<std::uint64_t>(kCycles));
  // Each accept joins every session that has ended by then; the one
  // before it may still be closing, so a probe sees at most itself and
  // that one once the earlier sessions have wound down.
  EXPECT_TRUE(eventually([&] {
    BlockingClient probe(hub_.connect());
    return probe.ping() && daemon_->connection_threads() <= 2;
  }));

  // Drain still shuts down and joins the sessions that are open.
  BlockingClient idle_a(hub_.connect());
  BlockingClient idle_b(hub_.connect());
  ASSERT_TRUE(idle_a.ping());
  ASSERT_TRUE(idle_b.ping());
  EXPECT_GE(daemon_->connection_threads(), 2u);
  daemon_->begin_drain();
  listener_->release();
  serve_thread_.join();
  EXPECT_EQ(daemon_->connection_threads(), 0u);
  EXPECT_FALSE(idle_a.ping());
}

TEST_P(FrontendConformance, EveryMetricReadsTheSameOnEverySurface) {
  // Work for every histogram and shard family to report.
  BlockingClient client(hub_.connect());
  ASSERT_EQ(client.search(0, model_, nullptr).status, ClientStatus::kOk);
  ASSERT_TRUE(eventually([&] {
    return server_ != nullptr ? !server_->recent_traces().empty()
                              : coordinator_->latency_histogram().count() == 1;
  }));

  // One snapshot, three renderers.
  const obs::MetricSet m = daemon_->metrics();
  const FlatJson stats(m.stats_json(schema()));
  const std::map<std::string, std::string> prom =
      prometheus_series(m.prometheus());
  const std::string statusz = m.statusz("status");
  const auto series = [](const obs::MetricFamily& f,
                         const obs::MetricSample& s,
                         const std::string& suffix, const std::string& extra) {
    std::string labels;
    for (std::size_t i = 0; i < f.labels.size(); ++i)
      labels += (i ? "," : "") + f.labels[i] + "=\"" +
                obs::prometheus_escape_label(s.label_values[i]) + "\"";
    if (!extra.empty()) labels += (labels.empty() ? "" : ",") + extra;
    return f.name + suffix + (labels.empty() ? "" : "{" + labels + "}");
  };

  std::size_t checked = 0;
  for (const obs::MetricFamily& f : m.families()) {
    EXPECT_NE(statusz.find(f.name), std::string::npos) << f.name;
    for (const obs::MetricSample& s : f.samples) {
      const std::string path = f.stats_path(s);
      const auto stats_value = [&](const std::string& at) {
        const auto it = stats.values.find(at);
        return it == stats.values.end() ? "<missing " + at + ">"
                                        : it->second;
      };
      if (f.kind != obs::MetricKind::kSummary) {
        const std::string id = series(f, s, "", "");
        ASSERT_TRUE(prom.count(id)) << id;
        std::string want = path.empty() ? s.values[0] : stats_value(path);
        // A flag is true/false in JSON and 1/0 in Prometheus.
        if (s.flag) want = want == "true" ? "1" : "0";
        EXPECT_EQ(prom.at(id), want) << id << " vs STATS " << path;
        ++checked;
        continue;
      }
      for (std::size_t i = 0; i < obs::kSummaryFieldCount; ++i) {
        const obs::SummaryField& field = obs::kSummaryFields[i];
        if (field.quantile == nullptr) continue;
        const std::string id =
            field.quantile[0] == '_'
                ? series(f, s, field.quantile, "")
                : series(f, s, "",
                         "quantile=\"" + std::string(field.quantile) + "\"");
        ASSERT_TRUE(prom.count(id)) << id;
        EXPECT_EQ(prom.at(id), stats_value(path + "." + field.stats_key))
            << id;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 20u);

  // The STATS verb renders the same paths, and the schema keeps every
  // key it had; the unification added keys, it renamed none.
  const std::optional<std::string> wire = client.stats_json();
  ASSERT_TRUE(wire.has_value());
  const FlatJson live(*wire);
  for (const auto& [path, value] : stats.values)
    EXPECT_TRUE(live.values.count(path)) << path;
  std::vector<std::string> keys = {
      "schema", "uptime_seconds", "draining", "connections_accepted",
      "frames_malformed", "requests_bad", "requests_rejected_draining",
      "latency.e2e.p99_seconds"};
  if (server_ != nullptr) {
    for (const char* k :
         {"queue_depth", "requests_admitted", "requests_completed",
          "requests_overloaded", "requests_deadline_expired",
          "requests_failed", "batches", "db_sweeps", "max_batch_size",
          "responses_dropped", "scan_requests", "scan_sweeps",
          "scan_models_scored", "scan_yields", "scan_fuse_groups",
          "scan_lane_occupancy", "latency.queue_wait.count",
          "latency.sweep.max_seconds", "recent_traces.0.trace_id",
          "telemetry.schema",
          // Were on /metrics only before the surfaces shared declarations.
          "queue_capacity", "resident_databases", "resident_models"})
      keys.push_back(k);
  } else {
    for (const char* k :
         {"shard_count", "total_sequences", "total_residues", "requests",
          "merged_ok", "coordinator_sheds", "degraded_results",
          "deadline_expired", "failures", "latency.straggler.count",
          "shards.1.shard", "shards.1.path", "shards.1.seq_base",
          "shards.1.sequences", "shards.1.healthy", "shards.1.requests",
          "shards.1.ok", "shards.1.overloaded", "shards.1.errors",
          "shards.1.deaths", "shards.1.deadline",
          "shards.1.latency.p99_seconds"})
      keys.push_back(k);
    // Was in STATS only before.
    EXPECT_TRUE(prom.count("finehmm_cluster_total_sequences"));
  }
  for (const std::string& k : keys) EXPECT_TRUE(live.values.count(k)) << k;
  EXPECT_EQ(live.values.at("schema"), "\"" + std::string(schema()) + "\"");
}

INSTANTIATE_TEST_SUITE_P(Daemons, FrontendConformance,
                         ::testing::Values(Daemon::kSearchServer,
                                           Daemon::kCoordinator));

}  // namespace
