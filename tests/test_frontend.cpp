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
//     joins the rest.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.hpp"
#include "cluster/shard_map.hpp"
#include "held_listener.hpp"
#include "hmm/generator.hpp"
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

  FrontendCounters counters() const {
    if (server_ != nullptr) return server_->stats();
    return coordinator_->stats();
  }

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

INSTANTIATE_TEST_SUITE_P(Daemons, FrontendConformance,
                         ::testing::Values(Daemon::kSearchServer,
                                           Daemon::kCoordinator));

}  // namespace
