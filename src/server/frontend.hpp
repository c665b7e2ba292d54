// The daemon frontend shared by finehmmd (SearchServer) and
// finehmm_clusterd (ClusterCoordinator): everything a client of either
// daemon sees before a request reaches the backend that answers it.
//
// To a client the two daemons speak one protocol, so they share one
// connection tier:
//   * accept loop     — serve()'s calling thread; exits when the
//                       listener closes (begin_drain).
//   * connection threads — one per client Session: read frames, answer
//                       the PING revision handshake (docs/cluster.md)
//                       and STATS inline, refuse unknown verbs, decode
//                       SEARCH/SCAN payloads, and hand the decoded
//                       request to the backend's on_search / on_scan.
//                       The accept loop joins the threads of ended
//                       sessions before each new one starts, so a daemon
//                       that gets one connection per request (a shard
//                       behind a ClusterClient) keeps a bounded set.
//
// Drain: begin_drain() closes the listener and answers every later
// SEARCH/SCAN with kShuttingDown.  When the accept loop ends, the
// backend's on_listener_closed() finishes its in-flight work (the
// search daemon drains its admission queue there) before the frontend
// shuts every session down and joins the connection threads.
//
// Exposition: every metric is one declaration in an obs::MetricSet
// (obs/metrics.hpp).  The frontend declares what both daemons report —
// up, uptime, draining and the four FrontendCounters — and the backend
// adds its own; the STATS verb, /metrics and /statusz are three renderers
// over that one set, so the surfaces cannot drift apart.  handle_http
// routes /metrics, /healthz (503 once drain begins) and /statusz.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "server/http.hpp"
#include "server/protocol.hpp"
#include "server/transport.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace finehmm::server {

/// The connection and request accounting every daemon reports in STATS.
struct FrontendCounters {
  std::uint64_t connections_accepted = 0;
  std::uint64_t frames_malformed = 0;  // connections torn down on bad bytes
  std::uint64_t requests_bad = 0;      // undecodable / unknown db or model
  std::uint64_t requests_rejected_draining = 0;  // arrived after drain began
};

/// How a daemon names itself on its observability surfaces.
struct FrontendNames {
  const char* banner;         // the /statusz title, "finehmmd status"
  const char* stats_schema;   // STATS "schema"
  const char* metric_prefix;  // <prefix>_up, <prefix>_uptime_seconds, ...
  const char* events_family;  // the counter family FrontendCounters open
};

class Frontend {
 public:
  virtual ~Frontend() = default;

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Run the accept loop on the calling thread; returns after
  /// begin_drain() once the backend finished its in-flight work and
  /// every connection thread joined.
  void serve(Listener& listener);

  /// Initiate graceful shutdown: stop accepting, answer new SEARCH/SCAN
  /// frames with kShuttingDown, let in-flight work finish.  Idempotent;
  /// safe from any thread (the daemons call it from their signal
  /// watcher).
  void begin_drain() FINEHMM_EXCLUDES(state_mu_);
  bool draining() const FINEHMM_EXCLUDES(state_mu_);

  /// Seconds since construction (monotonic).
  double uptime_seconds() const;
  /// The counters every daemon keeps, read now.
  FrontendCounters counters() const FINEHMM_EXCLUDES(stats_mu_);

  /// Connection threads started and not yet joined: live sessions plus
  /// ended ones the accept loop has not reaped yet.
  std::size_t connection_threads() const FINEHMM_EXCLUDES(state_mu_);

  /// The embedded HTTP endpoint's router: /metrics (Prometheus text),
  /// /healthz (drain-aware), /statusz (human-readable snapshot).  Safe
  /// from any thread, any time between construction and destruction.
  HttpResponse handle_http(const std::string& path) const;

  /// Every metric the daemon reports, read now: the frontend's
  /// declarations, then the backend's (declare_metrics).
  obs::MetricSet metrics() const FINEHMM_EXCLUDES(state_mu_, stats_mu_);
  /// The STATS verb's payload (the daemon's own schema).
  std::string stats_json() const {
    return metrics().stats_json(names_.stats_schema);
  }
  /// The /metrics body (Prometheus text).
  std::string metrics_text() const { return metrics().prometheus(); }
  /// The /statusz body.
  std::string statusz_text() const {
    return metrics().statusz(names_.banner);
  }

 protected:
  /// `self` is what this daemon answers in the PONG handshake.
  Frontend(PingInfo self, FrontendNames names) : self_(self), names_(names) {}

  /// The backend's own metrics, added after the frontend's; `events` is
  /// the counter family the FrontendCounters opened (label `event`, one
  /// STATS key per event).  Runs on any thread that renders a surface.
  virtual void declare_metrics(obs::MetricSet& m,
                               obs::MetricFamily& events) const = 0;

  /// One client connection.  The connection thread is the only reader
  /// of conn (so conn itself needs no guard — a contract, not a lock);
  /// replies (from it or a backend thread) serialize on write_mu.  On
  /// the registered lock order (docs/static_analysis.md) write_mu sits
  /// below state_mu_: serve() holds state_mu_ while calling
  /// conn->shutdown(), which never takes write_mu.
  struct Session {
    std::unique_ptr<Connection> conn;
    /// Set by the connection thread as its last act: the accept loop
    /// may join it.
    std::atomic<bool> ended{false};

    Mutex write_mu;
  };

  /// A decoded SEARCH / SCAN that arrived before drain.  The backend
  /// owns the reply (now, or later from another thread via `session`).
  virtual void on_search(const std::shared_ptr<Session>& session,
                         std::uint32_t request_id, SearchRequest req) = 0;
  virtual void on_scan(const std::shared_ptr<Session>& session,
                       std::uint32_t request_id, ScanRequest req) = 0;
  /// Runs under state_mu_ the first time begin_drain() is called.
  virtual void on_drain() FINEHMM_REQUIRES(state_mu_) {}
  /// Runs on serve()'s thread once the listener has closed, before the
  /// sessions are shut down: finish whatever was admitted.
  virtual void on_listener_closed() {}

  bool send_reply(Session& session, MsgType type, std::uint32_t request_id,
                  const std::vector<std::uint8_t>& payload)
      FINEHMM_EXCLUDES(session.write_mu);
  void send_error(Session& session, std::uint32_t request_id, ErrorCode code,
                  const std::string& message)
      FINEHMM_EXCLUDES(session.write_mu);
  /// Bump one shared counter.
  void count(std::uint64_t FrontendCounters::*counter)
      FINEHMM_EXCLUDES(stats_mu_);

  std::chrono::steady_clock::time_point start_time() const {
    return start_time_;
  }

  /// Lifecycle lock (order 1 of the registry in docs/static_analysis.md:
  /// acquired before every other daemon lock).  Backends guard their own
  /// lifecycle flags with it too.
  mutable Mutex state_mu_;
  bool draining_ FINEHMM_GUARDED_BY(state_mu_) = false;

  /// The daemon's statistics lock: guards counters_ here and the
  /// backend's own aggregates, so one acquisition snapshots both.
  mutable Mutex stats_mu_;
  FrontendCounters counters_ FINEHMM_GUARDED_BY(stats_mu_);

 private:
  void handle_connection(const std::shared_ptr<Session>& session);
  void handle_request(const std::shared_ptr<Session>& session,
                      const Frame& frame);
  /// Join the threads of ended sessions (accept loop only).
  void reap_ended_sessions() FINEHMM_EXCLUDES(state_mu_);

  /// One client connection's thread and its session.
  struct ConnThread {
    std::shared_ptr<Session> session;
    std::thread thread;
  };

  const PingInfo self_;
  const FrontendNames names_;
  const std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();

  Listener* listener_ FINEHMM_GUARDED_BY(state_mu_) = nullptr;
  std::vector<ConnThread> conns_ FINEHMM_GUARDED_BY(state_mu_);
};

}  // namespace finehmm::server
