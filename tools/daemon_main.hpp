// Process scaffolding shared by the two daemons, finehmmd and
// finehmm_clusterd (both are a server::Frontend): the flags both take,
// shutdown-signal handling, the pid file, the optional HTTP
// observability endpoint, start/stop logging and the final STATS flush.
//
//   tools::Daemon daemon("finehmmd", "server");  // before any thread
//   ... daemon.take_arg(argc, argv, i) for the shared flags ...
//   <construct and load the backend>
//   const std::uint16_t port = daemon.listen(backend);
//   obs::log(obs::LogLevel::kInfo, "server.start", {...});
//   daemon.serve(backend);  // returns once SIGTERM/SIGINT drained it
#pragma once

#include <pthread.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "obs/log.hpp"
#include "server/frontend.hpp"
#include "server/http.hpp"
#include "server/tcp.hpp"
#include "tool_exit.hpp"

namespace finehmm::tools {

class Daemon {
 public:
  /// `name` prefixes the stdout lines scripts scrape ("NAME: listening
  /// on HOST:PORT"); `event` prefixes the stop log event.
  ///
  /// Blocks SIGTERM and SIGINT in the calling thread.  Every thread
  /// started later inherits the mask, so construct this before ANY
  /// thread exists (the scan pool spawns inside the SearchServer
  /// constructor): only the watcher in serve() ever sees the signals,
  /// and begin_drain then runs in normal thread context, no
  /// async-signal-safety contortions.  The library defaults to a silent
  /// log; a daemon speaks structured JSON on stderr at info level
  /// (--log and FINEHMM_LOG override).
  Daemon(const char* name, const char* event) : name_(name), event_(event) {
    sigemptyset(&sigs_);
    sigaddset(&sigs_, SIGTERM);
    sigaddset(&sigs_, SIGINT);
    pthread_sigmask(SIG_BLOCK, &sigs_, nullptr);
    obs::set_log_level(obs::LogLevel::kInfo);
  }

  Daemon(const Daemon&) = delete;  // the signal watcher holds `this`
  Daemon& operator=(const Daemon&) = delete;

  enum class Arg { kOther, kTaken, kBad };

  /// Consume argv[i] and its value when it is one of the flags every
  /// daemon takes: --host, --port, --metrics-port, --pid-file, --log.
  /// kBad (reason printed) when a port is not a number in [0, 65535].
  Arg take_arg(int argc, char** argv, int& i) {
    if (i + 1 >= argc) return Arg::kOther;
    const std::string arg = argv[i];
    const std::string value = argv[i + 1];
    if (arg == "--host") {
      host_ = value;
    } else if (arg == "--port" || arg == "--metrics-port") {
      const std::optional<std::uint16_t> port = parse_port(value, 0);
      if (!port) {
        std::fprintf(stderr, "%s: bad %s '%s'\n", name_, arg.c_str(),
                     value.c_str());
        return Arg::kBad;
      }
      if (arg == "--port")
        port_ = *port;
      else
        metrics_port_ = *port;
    } else if (arg == "--pid-file") {
      pid_file_ = value;
    } else if (arg == "--log") {
      obs::set_log_level(obs::parse_log_level(value));
    } else {
      return Arg::kOther;
    }
    ++i;
    return Arg::kTaken;
  }

  const std::string& host() const { return host_; }

  /// Bind --host:--port and, with --metrics-port, the HTTP endpoint
  /// routed to `daemon`; print both addresses for scripts to scrape.
  /// Returns the bound port.
  std::uint16_t listen(server::Frontend& daemon) {
    listener_ = std::make_unique<server::TcpListener>(host_, port_);
    std::printf("%s: listening on %s:%u\n", name_, host_.c_str(),
                listener_->port());
    // The observability endpoint rides a second listener + its own
    // thread; scrapes never touch the search data plane.
    if (metrics_port_) {
      auto http = std::make_unique<server::TcpListener>(host_, *metrics_port_);
      std::printf("%s: metrics on %s:%u\n", name_, host_.c_str(),
                  http->port());
      endpoint_ = std::make_unique<server::HttpEndpoint>(
          std::move(http),
          [&daemon](const std::string& path) {
            return daemon.handle_http(path);
          });
    }
    std::fflush(stdout);  // scripts scrape the lines while we serve
    return listener_->port();
  }

  /// Write the pid file, serve until SIGTERM/SIGINT drains `daemon`,
  /// then flush its final STATS JSON to stdout — a supervisor's log ends
  /// with the full accounting — and remove the pid file.
  void serve(server::Frontend& daemon) {
    if (!pid_file_.empty()) {
      std::ofstream pf(pid_file_);
      if (!pf.good()) throw IoError("cannot open pid file: " + pid_file_);
      pf << ::getpid() << "\n";
    }

    std::thread watcher([this, &daemon] {
      int sig = 0;
      sigwait(&sigs_, &sig);
      std::fprintf(stderr, "%s: signal %d, draining\n", name_, sig);
      daemon.begin_drain();
    });
    daemon.serve(*listener_);  // returns once drained and joined
    watcher.join();
    // Keep /healthz answering 503 "draining" while in-flight requests
    // finish; stop only after the data plane has fully drained.
    if (endpoint_) endpoint_->stop();
    obs::log(obs::LogLevel::kInfo, (event_ + ".stop").c_str(),
             {{"uptime_seconds", daemon.uptime_seconds()}});

    std::cout << daemon.stats_json();
    if (!pid_file_.empty()) std::remove(pid_file_.c_str());
    std::printf("%s: drained, bye\n", name_);
  }

 private:
  const char* name_;
  std::string event_;
  sigset_t sigs_{};
  std::string host_ = "127.0.0.1";
  std::uint16_t port_ = 0;
  std::optional<std::uint16_t> metrics_port_;
  std::string pid_file_;
  std::unique_ptr<server::TcpListener> listener_;
  std::unique_ptr<server::HttpEndpoint> endpoint_;
};

}  // namespace finehmm::tools
