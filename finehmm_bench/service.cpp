// Service workloads: a resident SearchServer, or a ClusterCoordinator over
// shard SearchServers, served in-process over server::LoopbackHub and
// driven by one load generator with at most bench_threads() client
// threads, each owning one connection.
//
//   serve_mixed     one daemon with the default config, a resident
//                   Swissprot-like database and a pressed 32-model library;
//                   SEARCH carries an inline calibrated model from a
//                   16-model pool; SCAN sweeps the library, so both daemon
//                   batch paths share one scheduler.
//   cluster_search  a coordinator over 4 shard daemons (scan_threads=1 and
//                   the default 2 ms window, as finehmmd ships), SEARCH
//                   only: connect, handshake, scatter, straggler and merge
//                   are on every request's path.
//
// Traffic: 90% SEARCH and 10% SCAN on serve_mixed, SEARCH only on
// cluster_search, in three phases: `low` and `nominal`, open loops with
// Poisson arrivals at fixed rates (nominal is about 60% of the measured
// closed-loop capacity), each request timed from its due time; then
// `capacity`, a closed loop on every connection.  Each open-loop phase
// sends a fixed number of requests (a Poisson process conditioned on its
// count), and in every phase each run of ten requests holds exactly one
// SCAN at a seeded position, so the seed varies the inputs but not the
// amount of work.
//
// The gated median is a lone SEARCH's, from `low`; the gated p90 is a
// SEARCH's at capacity, where on serve_mixed the slowest SEARCHes are the
// ones queued behind a SCAN sweep.  Under nominal load a SEARCH that lands
// behind a ~40 ms SCAN sweep, or finds every connection busy, waits for
// it; those latencies are printed for the record but move by tens of
// percent between runs of one seed, so they gate nothing (README).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "bio/seq_db_io.hpp"
#include "cluster/coordinator.hpp"
#include "cluster/shard_map.hpp"
#include "hmm/binary_io.hpp"
#include "hmm/model_db.hpp"
#include "inputs.hpp"
#include "obs/histogram.hpp"
#include "server/client.hpp"
#include "server/loopback.hpp"
#include "server/server.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace finehmm::bench {

namespace {

struct ServiceSpec {
  const char* name;
  std::size_t shards;  // 0 = one standalone daemon
  double db_scale;     // Swissprot-like, share of the full sequence count
  double homolog_fraction;
  // Pressed library the SCAN verb sweeps; when present, one request in
  // kScanEvery is a SCAN.
  std::size_t library_models;
  double low_rps;      // open loop, a mostly idle front end
  double nominal_rps;  // open loop, about 60% of capacity_rps
};

constexpr ServiceSpec kSpecs[] = {
    {"serve_mixed", 0, 0.002, 0.02, 32, 10.0, 90.0},
    {"cluster_search", 4, 0.004, 0.02, 0, 10.0, 100.0},
};

constexpr std::size_t kScanEvery = 10;

constexpr std::size_t kPoolModels = 16;
// The pressed library is the same for every run seed, like a reference
// library: the fused SCAN sweep's cost swings 3x with library content
// (31 vs 92 ms for two random 32-model libraries on one database), which
// would make library choice, not the system, the largest source of
// run-to-run spread.
constexpr std::uint64_t kLibrarySeed = 2015;
constexpr int kPoolMinM = 60, kPoolMaxM = 340;
constexpr int kLibraryMinM = 50, kLibraryMaxM = 190;

const ServiceSpec& spec_of(const std::string& name) {
  for (const ServiceSpec& s : kSpecs)
    if (name == s.name) return s;
  throw Error("unknown service workload " + name);
}

/// A query model as the client ships it: calibrated, serialized once.
struct Query {
  hmm::Plan7Hmm model;
  stats::ModelStats model_stats;
  std::vector<std::uint8_t> blob;
};

/// The client's query pool, calibrated when the inputs were prepared.
std::vector<Query> load_pool(const RunOptions& opt) {
  std::vector<Query> pool;
  for (hmm::ModelEntry& e :
       read_calibrated_models(input_path(opt, "queries.fhpdb"))) {
    Query q;
    q.model_stats = *e.model_stats;
    std::ostringstream blob;
    hmm::write_hmm_binary(blob, e.model, &q.model_stats);
    const std::string bytes = blob.str();
    q.blob.assign(bytes.begin(), bytes.end());
    q.model = std::move(e.model);
    pool.push_back(std::move(q));
  }
  return pool;
}

// --- Shard legs as the coordinator sees them ---------------------------

/// One coordinator -> shard connection: connect, handshake, request.
struct Leg {
  std::size_t shard = 0;
  std::int64_t connect_start = 0, connect_end = 0;
  std::int64_t ping_sent = -1, request_sent = -1, last_recv = -1;
  bool complete() const { return request_sent >= 0 && last_recv >= 0; }
};

class LegLog {
 public:
  void push(const Leg& leg) FINEHMM_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    legs_.push_back(leg);
  }
  std::vector<Leg> snapshot() const FINEHMM_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return legs_;
  }

 private:
  mutable Mutex mu_;
  std::vector<Leg> legs_ FINEHMM_GUARDED_BY(mu_);
};

/// Decorates a shard connection with timestamps.  ClusterClient frames
/// every message with one send_all: the first is the PING handshake, the
/// second the scattered request.
class TimedConnection : public server::Connection {
 public:
  TimedConnection(std::unique_ptr<server::Connection> inner, Leg leg,
                  LegLog& log)
      : inner_(std::move(inner)), leg_(leg), log_(log) {}
  ~TimedConnection() override { log_.push(leg_); }
  TimedConnection(const TimedConnection&) = delete;
  TimedConnection& operator=(const TimedConnection&) = delete;

  bool send_all(const void* data, std::size_t n) override {
    (leg_.ping_sent < 0 ? leg_.ping_sent : leg_.request_sent) = now_ns();
    return inner_->send_all(data, n);
  }
  std::size_t recv_some(void* buf, std::size_t n) override {
    const std::size_t got = inner_->recv_some(buf, n);
    if (got > 0) leg_.last_recv = now_ns();
    return got;
  }
  void shutdown() override { inner_->shutdown(); }

 private:
  std::unique_ptr<server::Connection> inner_;
  Leg leg_;
  LegLog& log_;
};

// --- The system under test -----------------------------------------------

/// One daemon, or a coordinator over shard daemons, serving on loopback
/// hubs from their own threads.  Destruction drains and joins them all.
class Deployment {
 public:
  Deployment(const ServiceSpec& spec, const RunOptions& opt, bool traced) {
    try {
      start(spec, opt, traced);
    } catch (...) {
      stop();
      throw;
    }
  }

  ~Deployment() { stop(); }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// A client connection to the front end (daemon or coordinator).
  std::unique_ptr<server::Connection> connect() {
    return coordinator ? front_hub_->connect() : hubs_[0]->connect();
  }

  std::vector<std::unique_ptr<server::SearchServer>> servers;
  std::unique_ptr<cluster::ClusterCoordinator> coordinator;
  std::vector<std::int64_t> server_epoch_ns;  // harness time of each start
  std::vector<std::string> db_paths;          // what the daemons map
  LegLog legs;
  double open_s = 0.0, library_s = 0.0, split_s = 0.0, start_s = 0.0;

 private:
  void start(const ServiceSpec& spec, const RunOptions& opt, bool traced) {
    const double t0 = now_s();
    if (spec.shards == 0) {
      servers.push_back(std::make_unique<server::SearchServer>(
          config(traced, server::NodeRole::kStandalone, 0)));
      db_paths.push_back(input_path(opt, "db.fsqdb"));
      servers[0]->add_database(db_paths[0]);
      const double t1 = now_s();
      servers[0]->add_model_library(input_path(opt, "library.fhpdb"));
      open_s = t1 - t0;
      library_s = now_s() - t1;
    } else {
      split_and_open(spec, opt, traced);
    }
    const double t2 = now_s();
    for (std::size_t k = 0; k < servers.size(); ++k) {
      hubs_.push_back(std::make_unique<server::LoopbackHub>());
      listeners_.push_back(hubs_[k]->listener());
      server::SearchServer* srv = servers[k].get();
      server::Listener* listener = listeners_[k].get();
      threads_.emplace_back([srv, listener] { srv->serve(*listener); });
      server_epoch_ns.push_back(
          now_ns() - static_cast<std::int64_t>(srv->uptime_seconds() * 1e9));
    }
    if (spec.shards > 0) {
      cluster::ClusterConfig ccfg;
      ccfg.manifest = manifest_;
      ccfg.require_shard_role = true;
      coordinator = std::make_unique<cluster::ClusterCoordinator>(
          std::move(ccfg), [this](std::size_t shard) { return dial(shard); });
      front_hub_ = std::make_unique<server::LoopbackHub>();
      front_listener_ = front_hub_->listener();
      coordinator_thread_ =
          std::thread([this] { coordinator->serve(*front_listener_); });
      coordinator->client().probe_all();
    }
    start_s = now_s() - t2;
  }

  /// Drain the front end first, then the daemons, and join every thread.
  void stop() {
    if (coordinator_thread_.joinable()) {
      coordinator->begin_drain();
      coordinator_thread_.join();
    }
    for (auto& srv : servers) srv->begin_drain();
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }

  static server::ServerConfig config(bool traced, server::NodeRole role,
                                     std::uint32_t shard_id) {
    server::ServerConfig cfg;
    if (role == server::NodeRole::kShard) cfg.scan_threads = 1;
    cfg.role = role;
    cfg.shard_id = shard_id;
    // Request traces are always collected; the per-layer run only keeps
    // every one of them.  (ServerConfig::tracing would add the engine's
    // span log, which the ladder does not read, and which doubled a lone
    // SEARCH's latency.)
    if (traced) cfg.trace_ring_capacity = std::size_t{1} << 16;
    return cfg;
  }

  /// fsqdb_shard's split: residue-balanced contiguous ranges, one shard
  /// file each, plus the manifest the coordinator merges with.  This is a
  /// copy of the split loop in tools/fsqdb_shard.cpp (src/ has no entry
  /// point for it) and must track that original.
  void split_and_open(const ServiceSpec& spec, const RunOptions& opt,
                      bool traced) {
    const double t0 = now_s();
    const bio::MappedSeqDb full(input_path(opt, "db.fsqdb"));
    std::vector<std::uint32_t> lengths;
    for (std::size_t i = 0; i < full.size(); ++i)
      lengths.push_back(full.length(i));
    const auto ranges = cluster::plan_shard_ranges(lengths, spec.shards);
    const bio::SequenceDatabase all = full.materialize();
    manifest_.source = "db.fsqdb";
    manifest_.total_sequences = full.size();
    manifest_.total_residues = full.total_residues();
    for (std::size_t k = 0; k < ranges.size(); ++k) {
      cluster::ShardInfo info;
      info.path = input_path(opt, "shard" + std::to_string(k) + ".fsqdb");
      info.seq_base = ranges[k].first;
      info.sequences = ranges[k].second - ranges[k].first;
      info.length_buckets.assign(cluster::kLengthBuckets, 0);
      bio::SequenceDatabase shard;
      for (std::size_t i = ranges[k].first; i < ranges[k].second; ++i) {
        info.residues += all[i].length();
        ++info.length_buckets[cluster::length_bucket(all[i].length())];
        shard.add(all[i]);
      }
      bio::write_seq_db_file(info.path, shard);
      db_paths.push_back(info.path);
      manifest_.shards.push_back(std::move(info));
    }
    const double t1 = now_s();
    for (std::size_t k = 0; k < ranges.size(); ++k) {
      servers.push_back(std::make_unique<server::SearchServer>(config(
          traced, server::NodeRole::kShard, static_cast<std::uint32_t>(k))));
      servers[k]->add_database(db_paths[k]);
    }
    split_s = t1 - t0;
    open_s = now_s() - t1;
  }

  std::unique_ptr<server::Connection> dial(std::size_t shard) {
    Leg leg;
    leg.shard = shard;
    leg.connect_start = now_ns();
    std::unique_ptr<server::Connection> conn = hubs_[shard]->connect();
    leg.connect_end = now_ns();
    if (!conn) return nullptr;
    return std::make_unique<TimedConnection>(std::move(conn), leg, legs);
  }

  cluster::ShardManifest manifest_;
  std::vector<std::unique_ptr<server::LoopbackHub>> hubs_;
  std::vector<std::unique_ptr<server::Listener>> listeners_;
  std::unique_ptr<server::LoopbackHub> front_hub_;
  std::unique_ptr<server::Listener> front_listener_;
  std::vector<std::thread> threads_;  // one per daemon
  std::thread coordinator_thread_;
};

// --- Load generation ----------------------------------------------------

struct Request {
  double due_s = 0.0;  // offset from the phase start (open loop)
  bool scan = false;
  std::size_t query = 0;
};

struct Outcome {
  Request req;
  std::size_t client = 0;
  std::int64_t due_ns = 0, send_ns = 0, reply_ns = 0;
  bool backlogged = false;  // every connection was busy at the due time
  bool ok = false;
  std::uint64_t trace_id = 0;
  std::optional<server::SearchResultWire> search;
  std::optional<server::ScanResultWire> scan;
  double latency_s() const {
    return static_cast<double>(reply_ns - due_ns) * 1e-9;
  }
  double lag_s() const { return static_cast<double>(send_ns - due_ns) * 1e-9; }
};

/// The request mix, drawn from the seed but balanced so each phase asks
/// for the same work whatever the seed: SEARCH queries in shuffled rounds
/// that use every pool model once and, with a library, exactly one SCAN
/// at a random position in every kScanEvery requests.
class MixRounds {
 public:
  MixRounds(std::uint64_t seed, bool scans) : rng_(seed), scans_(scans) {}

  Request next() {
    Request r;
    if (scans_) {
      if (slot_ % kScanEvery == 0)
        scan_slot_ = rng_.below(static_cast<std::uint32_t>(kScanEvery));
      r.scan = slot_++ % kScanEvery == scan_slot_;
      if (r.scan) return r;
    }
    if (round_.empty()) {
      for (std::size_t q = 0; q < kPoolModels; ++q) round_.push_back(q);
      for (std::size_t i = round_.size(); i > 1; --i)
        std::swap(round_[i - 1],
                  round_[rng_.below(static_cast<std::uint32_t>(i))]);
    }
    r.query = round_.back();
    round_.pop_back();
    return r;
  }

  Pcg32& rng() { return rng_; }

 private:
  Pcg32 rng_;
  bool scans_;
  std::size_t slot_ = 0, scan_slot_ = 0;
  std::vector<std::size_t> round_;
};

/// The seeded open-loop schedule: round(rps x seconds) requests with
/// Poisson arrivals, i.e. independent uniform due times over the phase,
/// sorted.  Fixing the count removes the seed's share of the load.
std::vector<Request> make_schedule(std::uint64_t seed, const ServiceSpec& spec,
                                   double rps, double seconds) {
  MixRounds mix(seed, spec.library_models > 0);
  std::vector<double> due(static_cast<std::size_t>(std::llround(rps * seconds)));
  for (double& t : due) t = mix.rng().uniform() * seconds;
  std::sort(due.begin(), due.end());
  std::vector<Request> schedule;
  for (const double t : due) {
    schedule.push_back(mix.next());
    schedule.back().due_s = t;
  }
  return schedule;
}

/// Send one request and wait for its reply; any failure, thrown or
/// answered, leaves the outcome not ok.
void send_request(server::BlockingClient& client, const std::vector<Query>& pool,
           Outcome& o) noexcept try {
  o.send_ns = now_ns();
  if (o.req.scan) {
    server::RemoteScanResult rr = client.scan(0);
    o.reply_ns = now_ns();
    o.ok = rr.status == server::ClientStatus::kOk;
    if (o.ok) {
      o.trace_id = rr.result.trace_id;
      o.scan = std::move(rr.result);
    }
  } else {
    server::RemoteResult rr = client.search_blob(0, pool[o.req.query].blob);
    o.reply_ns = now_ns();
    o.ok = rr.status == server::ClientStatus::kOk;
    if (o.ok) {
      o.trace_id = rr.result.trace_id;
      o.search = std::move(rr.result);
    }
  }
} catch (const std::exception&) {
  o.reply_ns = now_ns();
  o.ok = false;
}

using Clients = std::vector<std::unique_ptr<server::BlockingClient>>;

/// Open loop: each client thread takes the next request in due order,
/// sleeps until it is due (or sends at once when every connection was
/// busy past its due time: a backlog the latency includes) and times it
/// from the due time.
std::vector<Outcome> open_loop(Clients& clients,
                               const std::vector<Request>& schedule,
                               const std::vector<Query>& pool) {
  std::vector<Outcome> out(schedule.size());
  std::atomic<std::size_t> next{0};
  const std::int64_t start = now_ns() + 1'000'000;
  std::vector<std::thread> crew;
  for (std::size_t c = 0; c < clients.size(); ++c)
    crew.emplace_back([&, c] {
      for (;;) {
        const std::size_t k = next.fetch_add(1);
        if (k >= schedule.size()) return;
        Outcome& o = out[k];
        o.req = schedule[k];
        o.client = c;
        o.due_ns = start + static_cast<std::int64_t>(o.req.due_s * 1e9);
        o.backlogged = now_ns() >= o.due_ns;
        if (!o.backlogged) sleep_until_ns(o.due_ns);
        send_request(*clients[c], pool, o);
      }
    });
  for (std::thread& t : crew) t.join();
  return out;
}

/// Closed loop: every client sends the next request of one shared seeded
/// mix as soon as its last one returns, until `seconds` have passed.  The
/// shared mix keeps SCANs about ten requests apart, as in the open loop;
/// with a mix per client, whether two clients' SCANs happened to share one
/// fused sweep moved throughput from run to run.  Returns the outcomes and
/// the phase wall time (to the last reply).
std::pair<std::vector<Outcome>, double> closed_loop(
    Clients& clients, const std::vector<Query>& pool, const ServiceSpec& spec,
    std::uint64_t seed, double seconds) {
  std::vector<std::vector<Outcome>> per(clients.size());
  MixRounds mix(seed, spec.library_models > 0);
  Mutex mix_mu;
  const std::int64_t start = now_ns();
  const auto end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> crew;
  for (std::size_t c = 0; c < clients.size(); ++c)
    crew.emplace_back([&, c] {
      while (now_ns() < end) {
        Outcome o;
        {
          MutexLock lock(mix_mu);
          o.req = mix.next();
        }
        o.client = c;
        o.due_ns = now_ns();
        send_request(*clients[c], pool, o);
        per[c].push_back(std::move(o));
      }
    });
  for (std::thread& t : crew) t.join();
  const double wall = static_cast<double>(now_ns() - start) * 1e-9;
  std::vector<Outcome> all;
  for (auto& v : per)
    for (Outcome& o : v) all.push_back(std::move(o));
  std::sort(all.begin(), all.end(), [](const Outcome& a, const Outcome& b) {
    return a.due_ns < b.due_ns;
  });
  return {std::move(all), wall};
}

// --- Checks -----------------------------------------------------------------

/// Replies to the same query must be identical; the first of each is
/// checked against a local unsharded run_cpu (SEARCH) or per-model run_cpu
/// over the resident library (SCAN).
class ReplyChecker {
 public:
  void add(const Outcome& o, Report& out) {
    if (!o.ok) return;
    if (o.search) {
      auto [it, fresh] = search_.try_emplace(o.req.query, *o.search);
      if (fresh) return;
      std::string d = diff_stage_set(it->second, *o.search);
      if (d.empty()) d = diff_hits(it->second.hits, o.search->hits, false);
      if (!d.empty()) fail(out, "SEARCH query " + std::to_string(o.req.query) +
                                    " reply differs from its first: " + d);
    } else if (o.scan) {
      if (!scan_) {
        scan_ = *o.scan;
        return;
      }
      if (const std::string d = diff_scans(*scan_, *o.scan); !d.empty())
        fail(out, "SCAN reply differs from the first: " + d);
    }
  }

  void check_references(const RunOptions& opt, const std::vector<Query>& pool,
                        Report& out) {
    const bio::MappedSeqDb db(input_path(opt, "db.fsqdb"));
    for (const auto& [q, wire] : search_) {
      const pipeline::HmmSearch local(pool[q].model, pool[q].model_stats);
      const pipeline::SearchResult ref = local.run_cpu(db);
      std::string d = diff_stage_set(ref, wire);
      if (d.empty()) d = diff_hits(ref.hits, wire.hits, false);
      if (!d.empty())
        out.mismatch("SEARCH query " + std::to_string(q) + " vs run_cpu: " + d);
    }
    if (scan_) {
      server::ScanResultWire ref;
      for (const hmm::ModelEntry& e :
           read_calibrated_models(input_path(opt, "library.fhpdb"))) {
        const pipeline::HmmSearch local(e.model, *e.model_stats);
        ref.models.push_back({e.model.name(), local.run_cpu(db).hits});
      }
      if (const std::string d = diff_scans(ref, *scan_); !d.empty())
        out.mismatch("SCAN vs per-model run_cpu: " + d);
    }
    out.note("checked " + std::to_string(search_.size()) +
             " distinct SEARCH queries" + (scan_ ? " and SCAN" : "") +
             " against run_cpu");
  }

 private:
  static std::string diff_scans(const server::ScanResultWire& want,
                                const server::ScanResultWire& got) {
    if (want.models.size() != got.models.size()) return "model count";
    for (std::size_t m = 0; m < want.models.size(); ++m) {
      if (want.models[m].model_name != got.models[m].model_name)
        return "model order";
      if (std::string d =
              diff_hits(want.models[m].hits, got.models[m].hits, false);
          !d.empty())
        return want.models[m].model_name + ": " + d;
    }
    return {};
  }

  void fail(Report& out, const std::string& what) {
    ++out.failed;
    out.mismatch(what);
  }

  std::map<std::size_t, server::SearchResultWire> search_;
  std::optional<server::ScanResultWire> scan_;
};

// --- Per-layer accounting -----------------------------------------------

// Trace-file tracks: one per client connection, the shard requests, and
// one per shard for the coordinator's legs.
constexpr std::uint32_t kClientTrack = 10;
constexpr std::uint32_t kShardRequestTrack = 100;
constexpr std::uint32_t kLegTrack = 200;

std::int64_t total_ns(const obs::RequestTrace& t) {
  return static_cast<std::int64_t>(t.total_seconds * 1e9);
}

/// Stage telemetry summed over every daemon of the deployment.
struct Snapshot {
  std::map<std::string, obs::StageTelemetry> stages;
  double thread_seconds = 0.0;  // sweep wall x pool workers
  std::uint64_t completed = 0, sweeps = 0;
  obs::Histogram coordinator, straggler;
};

Snapshot snapshot(Deployment& d) {
  Snapshot s;
  for (const auto& srv : d.servers) {
    const obs::ScanTelemetry t = srv->telemetry();
    for (const obs::StageTelemetry& st : t.stages) {
      obs::StageTelemetry& into = s.stages[st.stage];
      into.n_in += st.n_in;
      into.n_passed += st.n_passed;
      into.cells += st.cells;
      into.busy_seconds += st.busy_seconds;
    }
    s.thread_seconds += t.wall_seconds * static_cast<double>(t.threads);
    const server::ServerStats st = srv->stats();
    s.completed += st.requests_completed;
    s.sweeps += st.db_sweeps + st.scan_sweeps;
  }
  if (d.coordinator) {
    s.coordinator = d.coordinator->latency_histogram();
    s.straggler = d.coordinator->client().straggler_histogram();
  }
  return s;
}

/// Stage totals between two snapshots.
StageTotals stage_delta(const Snapshot& a, const Snapshot& b) {
  StageTotals t;
  const auto get = [&](const char* name) {
    pipeline::StageStats st;
    const auto ib = b.stages.find(name);
    if (ib == b.stages.end()) return st;
    const auto ia = a.stages.find(name);
    const obs::StageTelemetry zero;
    const obs::StageTelemetry& base = ia == a.stages.end() ? zero : ia->second;
    st.n_in = ib->second.n_in - base.n_in;
    st.n_passed = ib->second.n_passed - base.n_passed;
    st.cells = ib->second.cells - base.cells;
    st.seconds = ib->second.busy_seconds - base.busy_seconds;
    return st;
  };
  t.ssv = get("ssv");
  t.msv = get("msv");
  t.vit = get("vit");
  t.fwd = get("fwd");
  t.bwd = get("bwd");
  t.thread_seconds = b.thread_seconds - a.thread_seconds;
  return t;
}

/// Quantile (ms) of the samples recorded between two snapshots of one
/// cumulative nanosecond histogram, from the bucket differences.
Quantile histogram_delta(const obs::Histogram& a, const obs::Histogram& b,
                         double q) {
  using B = obs::HistogramBuckets;
  Quantile out;
  out.n = b.count() - a.count();
  if (out.n == 0) return out;
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(out.n))));
  std::uint64_t seen = 0;
  for (std::uint64_t i = 0; i < B::kBucketCount; ++i) {
    seen += b.bucket(i) - a.bucket(i);
    if (seen >= rank) {
      out.value = static_cast<double>(B::upper_bound(i)) * 1e-9;
      out.beyond = out.n - seen;
      break;
    }
  }
  return out;
}

double histogram_mean_s(const obs::Histogram& a, const obs::Histogram& b) {
  const std::uint64_t n = b.count() - a.count();
  return n ? static_cast<double>(b.sum() - a.sum()) * 1e-9 /
                 static_cast<double>(n)
           : 0.0;
}

/// A per-layer time printed for the record; not a ledger metric (the
/// ledger keeps one schema across workloads).
void layer_line(Report& out, const std::string& name, const Quantile& q) {
  char line[200];
  std::snprintf(line, sizeof line, "layer %s = %.4f ms (n=%zu%s)",
                name.c_str(), q.value * 1e3, q.n,
                q.supported() ? "" : ", < 10 beyond");
  out.note(line);
}

/// Daemon-side request traces with an admission time in [from, to).
std::vector<obs::RequestTrace> traces_between(Deployment& d,
                                              std::int64_t from,
                                              std::int64_t to,
                                              std::vector<std::int64_t>*
                                                  admitted_ns = nullptr) {
  std::vector<obs::RequestTrace> out;
  for (std::size_t k = 0; k < d.servers.size(); ++k)
    for (const obs::RequestTrace& t : d.servers[k]->recent_traces()) {
      const std::int64_t at =
          d.server_epoch_ns[k] + static_cast<std::int64_t>(t.start_ns);
      if (at < from || at >= to) continue;
      out.push_back(t);
      if (admitted_ns) admitted_ns->push_back(at);
    }
  return out;
}

/// The daemon request path of `traces` into the ladder, `scale` times
/// their mean (a cluster request waits on one shard request per leg).
void ladder_server_path(Ladder& ladder,
                        const std::vector<obs::RequestTrace>& traces,
                        double threads, double scale) {
  if (traces.empty()) return;
  const double w = scale / static_cast<double>(traces.size());
  for (const obs::RequestTrace& t : traces) {
    double stage[obs::kStageCount];
    double busy = 0.0;
    for (int s = 0; s < obs::kStageCount; ++s) {
      // stage_seconds is the request's 1/batch share of the sweep's busy
      // time; the request waited for the whole sweep, spread over the crew.
      stage[s] = t.stage_seconds[s] * t.batch_size / threads;
      busy += stage[s];
    }
    ladder.add("queue", w * t.queue_seconds);
    ladder.add("coalesce", w * t.coalesce_seconds);
    ladder.add("msv", w * (stage[static_cast<int>(obs::Stage::kSsv)] +
                           stage[static_cast<int>(obs::Stage::kMsv)]));
    ladder.add("vit", w * stage[static_cast<int>(obs::Stage::kVit)]);
    ladder.add("fwd", w * stage[static_cast<int>(obs::Stage::kFwd)]);
    ladder.add("bwd", w * stage[static_cast<int>(obs::Stage::kBwd)]);
    ladder.add("engine", w * (t.sweep_seconds - busy));
    ladder.add("serialize", w * t.serialize_seconds);
    ladder.add("server", w * (t.total_seconds - t.queue_seconds -
                              t.coalesce_seconds - t.sweep_seconds -
                              t.serialize_seconds));
  }
}

/// A daemon request's spans rebuilt from its RequestTrace: queue,
/// coalesce and sweep back to back from admission, serialize ending at
/// completion.
void add_daemon_spans(SpanLog& spans, const obs::RequestTrace& t,
                      std::int64_t admitted, std::uint32_t track,
                      std::uint64_t parent) {
  const auto ns = [](double s) { return static_cast<std::int64_t>(s * 1e9); };
  const std::int64_t done = admitted + total_ns(t);
  const std::uint64_t srv = spans.add(std::string("server ") + t.verb, track,
                                      admitted, done, parent);
  std::int64_t at = admitted;
  for (const auto& [name, s] :
       {std::pair<const char*, double>{"queue", t.queue_seconds},
        {"coalesce", t.coalesce_seconds},
        {"sweep", t.sweep_seconds}}) {
    spans.add(name, track, at, at + ns(s), srv);
    at += ns(s);
  }
  spans.add("serialize", track, done - ns(t.serialize_seconds), done, srv);
}

/// Request spans for the trace file: the client's request (from its due
/// time), the generator's lag, and the daemon's spans rebuilt from the
/// RequestTrace joined by trace id.
void add_request_spans(SpanLog& spans, const Outcome& o,
                       const obs::RequestTrace* t, std::int64_t admitted) {
  const std::uint32_t track =
      kClientTrack + static_cast<std::uint32_t>(o.client);
  const std::uint64_t req =
      spans.add(o.req.scan ? "SCAN" : "SEARCH query" + std::to_string(o.req.query),
                track, o.due_ns, o.reply_ns);
  spans.add("loadgen.lag", track, o.due_ns, o.send_ns, req);
  if (t) add_daemon_spans(spans, *t, admitted, track, req);
}

/// The client side and the deployment it talks to.  Clients are declared
/// last so they disconnect before the deployment drains.
struct Stack {
  std::vector<Query> pool;
  std::unique_ptr<Deployment> deployment;
  Clients clients;
  double setup_s = 0.0;
};

/// The first SEARCH (and SCAN, which also tunes the daemon's lazily
/// planned fuse groups), so set-up time is the time to a first result.
void first_requests(Stack& s, const ServiceSpec& spec) {
  Outcome o;
  send_request(*s.clients[0], s.pool, o);
  FH_REQUIRE(o.ok, "first SEARCH failed");
  if (spec.library_models > 0) {
    o.req.scan = true;
    send_request(*s.clients[0], s.pool, o);
    FH_REQUIRE(o.ok, "first SCAN failed");
  }
}

/// Set-up: the deployment (database open, library load, shard split,
/// daemon and coordinator start), the client connections and the first
/// requests.
void stand_up(Stack& s, const ServiceSpec& spec, const RunOptions& opt,
              bool traced) {
  s.clients.clear();
  s.deployment.reset();
  const double t0 = now_s();
  s.deployment = std::make_unique<Deployment>(spec, opt, traced);
  for (std::size_t c = 0; c < bench_threads(); ++c) {
    s.clients.push_back(
        std::make_unique<server::BlockingClient>(s.deployment->connect()));
    FH_REQUIRE(s.clients.back()->ping(), "front end did not answer PING");
  }
  first_requests(s, spec);
  s.setup_s = now_s() - t0;
}

std::vector<double> latencies(const std::vector<Outcome>& outcomes,
                              bool scan) {
  std::vector<double> v;
  for (const Outcome& o : outcomes)
    if (o.ok && o.req.scan == scan) v.push_back(o.latency_s());
  return v;
}

/// The load generator's own record of an open-loop phase.  Lateness is
/// how far past its due time a waiting client thread actually sent (the
/// phase is valid while its p99 stays within 1 ms); a backlogged request
/// found every connection busy at its due time.  Returns the backlogged
/// share.
double report_loadgen(Report& out, const char* phase,
                      const std::vector<Outcome>& outcomes) {
  std::vector<double> lag;
  std::size_t backlogged = 0, failed = 0;
  for (const Outcome& o : outcomes) {
    if (o.backlogged)
      ++backlogged;
    else
      lag.push_back(o.lag_s());
    failed += !o.ok;
  }
  const Quantile p99 = quantile(lag, 0.99);
  layer_line(out, std::string("loadgen.lag_ms.p99 (") + phase + ")", p99);
  char line[160];
  std::snprintf(line, sizeof line,
                "layer loadgen: sent %zu, failed %zu, backlogged %zu; "
                "%s phase %s",
                outcomes.size(), failed, backlogged, phase,
                p99.value <= 1e-3 ? "valid" : "INVALID (lag p99 > 1 ms)");
  out.note(line);
  return outcomes.empty() ? 0.0
                          : static_cast<double>(backlogged) /
                                static_cast<double>(outcomes.size());
}

/// Cells one request asks for: query M (or the library's summed M) times
/// the database residues.
struct CellModel {
  double residues = 0.0;
  double library_m = 0.0;
  double of(const Outcome& o, const std::vector<Query>& pool) const {
    const double m =
        o.req.scan ? library_m : pool[o.req.query].model.length();
    return m * residues;
  }
};

/// serve_mixed's ladder: each SEARCH joined to its daemon trace by trace
/// id.  Returns the number of SEARCHes on the ladder.
std::size_t ladder_daemon(Report& out, Ladder& ladder, Deployment& d,
                          const std::vector<Outcome>& nominal,
                          const std::vector<obs::RequestTrace>& traces,
                          const std::vector<std::int64_t>& admitted,
                          double threads, SpanLog& spans) {
  std::size_t searches = 0;
  std::map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < traces.size(); ++i)
    by_id[traces[i].trace_id] = i;
  std::vector<double> client_overhead;
  std::size_t unjoined = 0;
  for (const Outcome& o : nominal) {
    if (!o.ok) continue;
    const auto it = by_id.find(o.trace_id);
    const obs::RequestTrace* t =
        it == by_id.end() ? nullptr : &traces[it->second];
    add_request_spans(spans, o, t, t ? admitted[it->second] : 0);
    if (o.req.scan) continue;
    if (!t) {
      ++unjoined;
      continue;
    }
    ++searches;
    client_overhead.push_back(o.latency_s() - o.lag_s() - t->total_seconds);
    ladder.add_wall(o.latency_s());
    ladder.add("loadgen", o.lag_s());
    ladder_server_path(ladder, {*t}, threads, 1.0);
  }
  layer_line(out, "server.client_overhead_ms.p50",
             quantile(client_overhead, 0.50));
  if (unjoined)
    out.note("  " + std::to_string(unjoined) +
             " SEARCH replies had no trace in the ring");
  char line[120];
  std::snprintf(line, sizeof line, "layer hmm.library_load_s = %.4f s",
                d.library_s);
  out.note(line);
  return searches;
}

/// cluster_search's ladder.  Shard requests cannot be joined to cluster
/// requests (the coordinator and the shards mint separate trace ids), so
/// it is built from means: the client's request, the coordinator's e2e
/// histogram, the slowest leg of each scatter (legs grouped by connect
/// time) and the mean shard request.  Returns the number of SEARCHes.
std::size_t ladder_cluster(Report& out, Ladder& ladder, Deployment& d,
                           const ServiceSpec& spec,
                           const std::vector<Outcome>& nominal,
                           const std::vector<obs::RequestTrace>& traces,
                           const std::vector<std::int64_t>& admitted,
                           std::int64_t from, std::int64_t to,
                           const Snapshot& s0, const Snapshot& s1,
                           double threads, SpanLog& spans) {
  std::size_t searches = 0;
  std::vector<Leg> legs;
  for (const Leg& l : d.legs.snapshot())
    if (l.complete() && l.connect_start >= from && l.connect_start < to)
      legs.push_back(l);
  std::sort(legs.begin(), legs.end(), [](const Leg& a, const Leg& b) {
    return a.connect_start < b.connect_start;
  });
  std::vector<std::vector<Leg>> groups;
  for (const Leg& l : legs) {
    const bool joins =
        !groups.empty() && groups.back().size() < spec.shards &&
        l.connect_start - groups.back()[0].connect_start < 2'000'000 &&
        std::none_of(groups.back().begin(), groups.back().end(),
                     [&](const Leg& g) { return g.shard == l.shard; });
    if (!joins) groups.emplace_back();
    groups.back().push_back(l);
  }
  std::vector<double> connect, rtt;
  for (const Leg& l : legs) {
    connect.push_back(static_cast<double>(l.connect_end - l.connect_start) *
                      1e-9);
    rtt.push_back(static_cast<double>(l.last_recv - l.connect_start) * 1e-9);
    spans.add("leg shard" + std::to_string(l.shard),
              kLegTrack + static_cast<std::uint32_t>(l.shard),
              l.connect_start, l.last_recv);
  }
  double crit_total = 0.0, crit_connect = 0.0, crit_handshake = 0.0;
  for (const auto& g : groups) {
    const Leg& c = *std::max_element(
        g.begin(), g.end(), [](const Leg& a, const Leg& b) {
          return a.last_recv - a.connect_start < b.last_recv - b.connect_start;
        });
    crit_total += static_cast<double>(c.last_recv - c.connect_start) * 1e-9;
    crit_connect += static_cast<double>(c.connect_end - c.connect_start) * 1e-9;
    crit_handshake +=
        static_cast<double>(c.request_sent - c.connect_end) * 1e-9;
  }
  const double n_groups = std::max<double>(1.0, groups.size());
  const double coord_mean = histogram_mean_s(s0.coordinator, s1.coordinator);
  const Quantile coord_p50 =
      histogram_delta(s0.coordinator, s1.coordinator, 0.50);
  const Quantile rtt_p50 = quantile(rtt, 0.50);
  layer_line(out, "cluster.connect_ms.p50", quantile(connect, 0.50));
  layer_line(out, "cluster.shard_rtt_ms.p50", rtt_p50);
  layer_line(out, "cluster.shard_rtt_ms.p99", quantile(rtt, 0.99));
  layer_line(out, "cluster.straggler_ms.p50",
             histogram_delta(s0.straggler, s1.straggler, 0.50));
  layer_line(out, "cluster.straggler_ms.p99",
             histogram_delta(s0.straggler, s1.straggler, 0.99));
  Quantile fanout = coord_p50;
  fanout.value -= rtt_p50.value;
  layer_line(out, "cluster.fanout_overhead_ms.p50 (approx: p50 difference)",
             fanout);

  double wall = 0.0, lag = 0.0;
  for (const Outcome& o : nominal) {
    add_request_spans(spans, o, nullptr, 0);
    if (!o.ok) continue;
    ++searches;
    wall += o.latency_s();
    lag += o.lag_s();
  }
  for (std::size_t i = 0; i < traces.size(); ++i)
    add_daemon_spans(spans, traces[i], admitted[i], kShardRequestTrack, 0);
  const double n = static_cast<double>(searches);
  ladder.add_wall(wall, searches);
  ladder.add("loadgen", lag);
  ladder.add("cluster", n * (coord_mean - crit_total / n_groups));
  ladder.add("connect", n * crit_connect / n_groups);
  ladder.add("handshake", n * crit_handshake / n_groups);
  ladder_server_path(ladder, traces, threads, n);
  out.note("  cluster ladder: means over " + std::to_string(groups.size()) +
           " scatters and " + std::to_string(traces.size()) +
           " shard requests (approximate)");
  return searches;
}

/// Per-layer accounting of the traced deployment's nominal phase.
void report_service_layers(Report& out, const ServiceSpec& spec,
                           const RunOptions& opt, Stack& s,
                           const std::vector<Outcome>& nominal,
                           std::int64_t from, std::int64_t to,
                           const Snapshot& s0, const Snapshot& s1,
                           const Snapshot& s2, SpanLog& spans) {
  Deployment& d = *s.deployment;
  const double threads =
      static_cast<double>(d.servers[0]->telemetry().threads);
  std::vector<std::int64_t> admitted;
  const std::vector<obs::RequestTrace> traces =
      traces_between(d, from, to, &admitted);

  std::vector<double> queue, sweep, coalesce, serialize;
  for (const obs::RequestTrace& t : traces) {
    queue.push_back(t.queue_seconds);
    sweep.push_back(t.sweep_seconds);
    coalesce.push_back(t.coalesce_seconds);
    serialize.push_back(t.serialize_seconds);
  }
  const std::string daemon = spec.shards ? "cluster.shard." : "server.";
  layer_line(out, daemon + "queue_wait_ms.p50", quantile(queue, 0.50));
  layer_line(out, daemon + "queue_wait_ms.p99", quantile(queue, 0.99));
  layer_line(out, daemon + "coalesce_ms.p50", quantile(coalesce, 0.50));
  layer_line(out, daemon + "sweep_ms.p50", quantile(sweep, 0.50));
  layer_line(out, daemon + "sweep_ms.p99", quantile(sweep, 0.99));
  layer_line(out, daemon + "serialize_ms.p50", quantile(serialize, 0.50));

  Ladder ladder;
  const std::size_t searches =
      spec.shards == 0
          ? ladder_daemon(out, ladder, d, nominal, traces, admitted, threads,
                          spans)
          : ladder_cluster(out, ladder, d, spec, nominal, traces, admitted,
                           from, to, s0, s1, threads, spans);

  // The pipeline under the daemons, over the nominal phase.
  const bio::MappedSeqDb db(input_path(opt, "db.fsqdb"));
  std::size_t mid = 0;  // the pool model closest to M=200 drives the probe
  for (std::size_t q = 0; q < s.pool.size(); ++q)
    if (std::abs(s.pool[q].model.length() - 200) <
        std::abs(s.pool[mid].model.length() - 200))
      mid = q;
  // The client calibrated its pool when the inputs were made; calibrating
  // the probe model again here times the stats layer.
  Timer calibrate;
  const pipeline::HmmSearch probe(s.pool[mid].model);
  out.metric("stats.calibrate_s", calibrate.seconds(), "s", 1);
  report_pipeline_layers(
      out, probe_kernels(probe, kernel_sample(db, 400000), 0.15),
      stage_delta(s0, s1));
  report_absent(out, {{"pipeline.scaling", "ratio"},
                      {"pipeline.worker_imbalance", "ratio"},
                      {"pipeline.queue.stalls", "count"},
                      {"pipeline.queue.rescues", "count"}});

  const double sweeps = static_cast<double>(s2.sweeps - s1.sweeps);
  out.metric("server.batch_size.mean",
             sweeps > 0.0 ? static_cast<double>(s2.completed - s1.completed) /
                                sweeps
                          : 0.0,
             "count", s2.sweeps - s1.sweeps);
  out.metric("hmm.fuse.lane_occupancy",
             spec.library_models ? d.servers[0]->stats().scan_lane_occupancy
                                 : 0.0,
             "ratio", 1);
  std::size_t connects = 0;
  for (const Leg& l : d.legs.snapshot())
    connects += l.connect_start >= from && l.connect_start < to;
  out.metric("cluster.connects_per_request",
             searches ? static_cast<double>(connects) /
                            static_cast<double>(searches)
                      : 0.0,
             "count", searches);
  ladder.report(out, spec.name);
}

}  // namespace

bool is_service_workload(const std::string& name) {
  for (const ServiceSpec& s : kSpecs)
    if (name == s.name) return true;
  return false;
}

void prepare_service(const RunOptions& opt) {
  const ServiceSpec& spec = spec_of(opt.workload);
  const std::uint64_t qseed = derive_seed(opt.seed, kQuerySeed);
  const std::vector<hmm::Plan7Hmm> pool = make_models(
      qseed, spaced_lengths(kPoolModels, kPoolMinM, kPoolMaxM), "query");
  bio::write_seq_db_file(
      input_path(opt, "db.fsqdb"),
      make_database(bio::SyntheticDbSpec::swissprot_like(spec.db_scale),
                    opt.seed, pool, spec.homolog_fraction));
  write_calibrated_models(input_path(opt, "queries.fhpdb"), pool);
  if (spec.library_models) {
    write_calibrated_models(input_path(opt, "library.fhpdb"),
                 make_models(kLibrarySeed,
                             spaced_lengths(spec.library_models, kLibraryMinM,
                                            kLibraryMaxM),
                             "lib"));
  }
}

void run_service(const RunOptions& opt, Report& out, SpanLog& spans) {
  const ServiceSpec& spec = spec_of(opt.workload);
  CellModel cells;
  cells.residues = static_cast<double>(
      bio::MappedSeqDb(input_path(opt, "db.fsqdb")).total_residues());
  if (spec.library_models)
    for (const hmm::ModelEntry& e :
         read_calibrated_models(input_path(opt, "library.fhpdb")))
      cells.library_m += e.model.length();
  const std::uint64_t nominal_seed = derive_seed(opt.seed, kScheduleSeed);
  const std::uint64_t low_seed = derive_seed(nominal_seed, 1);
  const std::uint64_t mix_seed = derive_seed(opt.seed, kMixSeed);
  // Shares of the run: low, nominal and capacity.  The gated median comes
  // from `low` at 10 rps, so it gets the largest share; a per-layer run
  // splits it between an untraced and a traced deployment.
  const double low_s = (opt.trace ? 0.2 : 0.4) * opt.seconds;
  const double nominal_s = 0.3 * opt.seconds;
  const double capacity_s = 0.3 * opt.seconds;
  ReplyChecker checker;
  const auto account = [&](const std::vector<Outcome>& outcomes) {
    for (const Outcome& o : outcomes) {
      ++out.attempted;
      out.failed += !o.ok;
      checker.add(o, out);
    }
  };

  // The baseline of obs.trace_overhead: the low phase on an untraced
  // deployment.
  double untraced_p50 = 0.0;
  if (opt.trace) {
    Stack base;
    base.pool = load_pool(opt);
    stand_up(base, spec, opt, false);
    const std::vector<Outcome> low = open_loop(
        base.clients, make_schedule(low_seed, spec, spec.low_rps, low_s),
        base.pool);
    account(low);
    untraced_p50 = quantile(latencies(low, false), 0.50).value;
  }

  // Set-up, repeated; the last one serves the run.
  std::vector<double> open_s;
  Stack s;
  s.pool = load_pool(opt);
  const std::vector<double> setup_s = repeat_setup([&] {
    stand_up(s, spec, opt, opt.trace);
    open_s.push_back(s.deployment->open_s);
    return s.setup_s;
  });
  const Deployment& d = *s.deployment;
  char line[240];
  std::snprintf(line, sizeof line,
                "set-up: median %.4f s of %zu (last: open %.4f, library %.4f, "
                "split %.4f, start %.4f)",
                median(setup_s), setup_s.size(), d.open_s, d.library_s,
                d.split_s, d.start_s);
  out.note(line);
  std::snprintf(line, sizeof line,
                "workload %s: %zu daemon(s)%s, %.0f residues, %zu-model query "
                "pool, %zu client connections, %s; open loop %.0f rps (low) "
                "and %.0f rps (nominal), then closed loop",
                spec.name, s.deployment->servers.size(),
                spec.shards ? " behind a coordinator" : "", cells.residues,
                s.pool.size(), s.clients.size(),
                spec.library_models ? "90% SEARCH / 10% SCAN" : "SEARCH only",
                spec.low_rps, spec.nominal_rps);
  out.note(line);

  const std::vector<Outcome> low = open_loop(
      s.clients, make_schedule(low_seed, spec, spec.low_rps, low_s), s.pool);
  const Snapshot s0 = snapshot(*s.deployment);
  const std::int64_t from = now_ns();
  const std::vector<Outcome> nominal = open_loop(
      s.clients,
      make_schedule(nominal_seed, spec, spec.nominal_rps, nominal_s), s.pool);
  const std::int64_t to = now_ns();
  const Snapshot s1 = snapshot(*s.deployment);
  // Peak RSS after a fixed number of requests: shard daemons keep a thread
  // per accepted connection until drain, and the coordinator opens one per
  // shard per request, so a peak taken after the closed loop would grow
  // with the throughput it reached.
  const double rss_mb = peak_rss_mb();
  const std::int64_t capacity_start = now_ns();
  auto [capacity, capacity_wall] =
      closed_loop(s.clients, s.pool, spec, mix_seed, capacity_s);
  const Snapshot s2 = snapshot(*s.deployment);
  account(low);
  account(nominal);
  account(capacity);
  checker.check_references(opt, s.pool, out);

  // Capacity: cells answered per second in each fifth of the phase (by
  // reply time), the median of the five.
  std::vector<std::pair<double, double>> windows(5, {capacity_wall / 5, 0.0});
  std::size_t completed = 0;
  for (const Outcome& o : capacity)
    if (o.ok) {
      const double at = static_cast<double>(o.reply_ns - capacity_start) * 1e-9;
      windows[std::min<std::size_t>(4, static_cast<std::size_t>(
                                           at / capacity_wall * 5))]
          .second += cells.of(o, s.pool);
      ++completed;
    }
  const std::vector<double> idle = latencies(low, false);
  const std::vector<double> search = latencies(nominal, false);
  const std::vector<double> saturated = latencies(capacity, false);
  report_loadgen(out, "low", low);
  const double backlog_share = report_loadgen(out, "nominal", nominal);

  if (!opt.trace) {
    out.metric("gcups", blocked_rate(windows) * 1e-9, "Gcells/s", completed);
    out.latency("latency_p50_ms", blocked_quantile(idle, 0.50));
    out.latency("latency_p90_ms", blocked_quantile(saturated, 0.90));
    out.metric("setup_s", median(setup_s), "s", setup_s.size());
    out.metric("peak_rss_mb", rss_mb, "MiB", 1);
    // The other tails and nominal load, for the record (README: not
    // gated).  At 60% of capacity the latencies sit in the queueing regime
    // and move by tens of percent between runs of one seed.
    layer_line(out, "low.search_p90_ms", quantile(idle, 0.90));
    layer_line(out, "capacity.search_p50_ms", quantile(saturated, 0.50));
    layer_line(out, "nominal.search_p50_ms", quantile(search, 0.50));
    layer_line(out, "nominal.search_p90_ms", quantile(search, 0.90));
    layer_line(out, "nominal.search_p99_ms", quantile(search, 0.99));
    const std::vector<double> scans = latencies(nominal, true);
    if (!scans.empty()) {
      layer_line(out, "nominal.scan_p50_ms", quantile(scans, 0.50));
      layer_line(out, "nominal.scan_p90_ms", quantile(scans, 0.90));
    }
    std::snprintf(line, sizeof line, "layer capacity_rps = %.2f req/s (n=%zu)",
                  static_cast<double>(completed) / capacity_wall, completed);
    out.note(line);
    return;
  }

  report_service_layers(out, spec, opt, s, nominal, from, to, s0, s1, s2,
                        spans);
  out.metric("bio.open_s", median(open_s), "s", open_s.size());
  double mapped = 0.0;
  for (const std::string& p : s.deployment->db_paths) mapped += file_mb(p);
  out.metric("bio.mapped_mb", mapped, "MiB", 1);
  out.metric("loadgen.backlog_share", backlog_share, "ratio", nominal.size());
  const double traced_p50 = quantile(idle, 0.50).value;
  out.metric("obs.trace_overhead",
             untraced_p50 > 0.0 ? traced_p50 / untraced_p50 - 1.0 : 0.0,
             "ratio", idle.size());
}

}  // namespace finehmm::bench
