#include "server/frontend.hpp"

#include <algorithm>
#include <iterator>

#include "util/error.hpp"

namespace finehmm::server {

void Frontend::serve(Listener& listener) {
  {
    MutexLock lock(state_mu_);
    FH_REQUIRE(listener_ == nullptr, "serve() is already running");
    listener_ = &listener;
    if (draining_) listener.close();  // drained before we even started
  }

  for (;;) {
    std::unique_ptr<Connection> conn = listener.accept();
    if (!conn) break;  // listener closed: drain has begun
    reap_ended_sessions();
    auto session = std::make_shared<Session>();
    session->conn = std::move(conn);
    count(&FrontendCounters::connections_accepted);
    // Started under the lock, so the session is counted before it can
    // answer its first frame.
    MutexLock lock(state_mu_);
    conns_.push_back({session, std::thread([this, session] {
                        handle_connection(session);
                      })});
  }

  // No new clients: let the backend finish what it admitted while the
  // sessions can still carry the replies.
  on_listener_closed();

  // Unblock every connection reader (clients may be idle, not sending)
  // and join the per-connection threads.
  std::vector<ConnThread> conns;
  {
    MutexLock lock(state_mu_);
    for (const ConnThread& c : conns_) c.session->conn->shutdown();
    conns.swap(conns_);
  }
  for (ConnThread& c : conns) c.thread.join();

  MutexLock lock(state_mu_);
  listener_ = nullptr;
}

void Frontend::reap_ended_sessions() {
  std::vector<ConnThread> ended;
  {
    MutexLock lock(state_mu_);
    const auto live = std::partition(
        conns_.begin(), conns_.end(), [](const ConnThread& c) {
          return !c.session->ended.load();
        });
    std::move(live, conns_.end(), std::back_inserter(ended));
    conns_.erase(live, conns_.end());
  }
  for (ConnThread& c : ended) c.thread.join();
}

std::size_t Frontend::connection_threads() const {
  MutexLock lock(state_mu_);
  return conns_.size();
}

void Frontend::begin_drain() {
  MutexLock lock(state_mu_);
  if (!draining_) {
    draining_ = true;
    on_drain();
  }
  if (listener_ != nullptr) listener_->close();
}

bool Frontend::draining() const {
  MutexLock lock(state_mu_);
  return draining_;
}

double Frontend::uptime_seconds() const {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - start_time_)
      .count();
}

obs::MetricSet Frontend::metrics() const {
  obs::MetricSet m(names_.metric_prefix);
  const bool drain = draining();
  m.gauge("up", "Whether the daemon is serving (drain flips to 0).",
          drain ? 0 : 1);
  m.gauge("uptime_seconds", "Seconds since the daemon started.",
          uptime_seconds());
  m.gauge("draining", "Whether drain has begun.", drain);
  const FrontendCounters c = counters();
  obs::MetricFamily& events = m.family(
      names_.events_family, obs::MetricKind::kCounter,
      "Monotonic request and connection counters by event.", "{event}",
      {"event"});
  events.add({"connections_accepted"}, c.connections_accepted)
      .add({"frames_malformed"}, c.frames_malformed)
      .add({"requests_bad"}, c.requests_bad)
      .add({"requests_rejected_draining"}, c.requests_rejected_draining);
  declare_metrics(m, events);
  return m;
}

FrontendCounters Frontend::counters() const {
  MutexLock lock(stats_mu_);
  return counters_;
}

void Frontend::count(std::uint64_t FrontendCounters::*counter) {
  MutexLock lock(stats_mu_);
  ++(counters_.*counter);
}

bool Frontend::send_reply(Session& session, MsgType type,
                          std::uint32_t request_id,
                          const std::vector<std::uint8_t>& payload) {
  MutexLock lock(session.write_mu);
  return send_frame(*session.conn, type, request_id, payload);
}

void Frontend::send_error(Session& session, std::uint32_t request_id,
                          ErrorCode code, const std::string& message) {
  send_reply(session, MsgType::kError, request_id,
             encode_error(ErrorInfo{code, message}));
}

void Frontend::handle_connection(const std::shared_ptr<Session>& session) {
  Frame frame;
  for (;;) {
    const RecvStatus st = recv_frame(*session->conn, frame);
    if (st == RecvStatus::kEof) break;
    if (st == RecvStatus::kMalformed) {
      // Unframeable bytes: this connection cannot be re-synchronized, so
      // it closes — the daemon itself keeps running (tested).
      count(&FrontendCounters::frames_malformed);
      break;
    }
    const std::uint32_t id = frame.header.request_id;
    switch (frame.type()) {
      case MsgType::kPing: {
        // Revision handshake (docs/cluster.md): the PING payload carries
        // the peer's wire revision; an incompatible peer would misparse
        // the optional cluster fields, so reject it here with a
        // structured error instead of failing on a later frame.
        PingInfo peer;
        try {
          peer = decode_ping(frame.payload);
        } catch (const ProtocolError& e) {
          send_error(*session, id, ErrorCode::kBadRequest, e.what());
          break;
        }
        if (peer.wire_revision != kWireRevision) {
          send_error(*session, id, ErrorCode::kVersionMismatch,
                     "peer wire revision " +
                         std::to_string(peer.wire_revision) +
                         " incompatible with " +
                         std::to_string(kWireRevision));
          break;
        }
        send_reply(*session, MsgType::kPong, id, encode_ping(self_));
        break;
      }
      case MsgType::kStats: {
        const std::string json = stats_json();
        send_reply(*session, MsgType::kStatsResult, id,
                   std::vector<std::uint8_t>(json.begin(), json.end()));
        break;
      }
      case MsgType::kSearch:
      case MsgType::kScan:
        handle_request(session, frame);
        break;
      default:
        send_error(*session, id, ErrorCode::kBadRequest,
                   "unexpected message type " +
                       std::to_string(frame.header.type));
        break;
    }
  }
  session->conn->shutdown();
  session->ended.store(true);
}

void Frontend::handle_request(const std::shared_ptr<Session>& session,
                              const Frame& frame) {
  const std::uint32_t id = frame.header.request_id;
  const bool scan = frame.type() == MsgType::kScan;
  SearchRequest search;
  ScanRequest scan_req;
  try {
    if (scan)
      scan_req = decode_scan_request(frame.payload);
    else
      search = decode_search_request(frame.payload);
  } catch (const ProtocolError& e) {
    // The framing layer consumed the whole payload, so the connection is
    // still in sync — answer with an error and keep serving it.
    count(&FrontendCounters::requests_bad);
    send_error(*session, id, ErrorCode::kBadRequest, e.what());
    return;
  }

  if (draining()) {
    count(&FrontendCounters::requests_rejected_draining);
    send_error(*session, id, ErrorCode::kShuttingDown,
               std::string(self_.role == NodeRole::kCoordinator
                               ? "coordinator"
                               : "daemon") +
                   " is draining; no new " + (scan ? "scans" : "searches") +
                   " accepted");
    return;
  }

  if (scan)
    on_scan(session, id, std::move(scan_req));
  else
    on_search(session, id, std::move(search));
}

HttpResponse Frontend::handle_http(const std::string& path) const {
  HttpResponse r;
  if (path == "/metrics") {
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = metrics_text();
  } else if (path == "/healthz") {
    // Drain-aware: flip unhealthy the moment drain begins, so a load
    // balancer stops routing before the listener actually closes.
    if (draining()) {
      r.status = 503;
      r.body = "draining\n";
    } else {
      r.body = "ok\n";
    }
  } else if (path == "/statusz") {
    r.body = statusz_text();
  } else {
    r.status = 404;
    r.body = "not found; routes: /metrics /healthz /statusz\n";
  }
  return r;
}

}  // namespace finehmm::server
