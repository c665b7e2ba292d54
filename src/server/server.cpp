#include "server/server.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "obs/log.hpp"
#include "stats/distributions.hpp"

namespace finehmm::server {

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(b - a)
      .count();
}

std::uint64_t ns_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  if (b <= a) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Reconstruct a search from an inline binary profile blob.  Stored
/// calibration is used when present; otherwise the model is calibrated
/// here with the default deterministic options — identical to what a
/// local HmmSearch construction would compute, so remote hits stay
/// bit-identical to local ones either way.
std::shared_ptr<pipeline::HmmSearch> search_from_blob(
    const std::vector<std::uint8_t>& blob, const pipeline::Thresholds& thr) {
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(blob.data()), blob.size()));
  std::optional<stats::ModelStats> model_stats;
  hmm::Plan7Hmm model = hmm::read_hmm_binary(in, &model_stats);
  if (model_stats)
    return std::make_shared<pipeline::HmmSearch>(model, *model_stats, thr);
  return std::make_shared<pipeline::HmmSearch>(model, thr);
}

/// ServerConfig::scan_threads, with 0 resolved so that the crew (the
/// pool plus the scheduler thread) matches the hardware concurrency.
std::size_t pool_threads(std::size_t scan_threads) {
  if (scan_threads != 0) return scan_threads;
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw - 1 : 1;
}

}  // namespace

SearchServer::SearchServer(ServerConfig cfg)
    : Frontend(PingInfo{kWireRevision, cfg.role, cfg.shard_id},
               {"finehmmd status", "finehmm.server_stats.v2", "finehmm",
                "finehmm_server_events_total"}),
      cfg_(cfg),
      pool_(pool_threads(cfg.scan_threads)),
      queue_(cfg.admission_capacity == 0 ? 1 : cfg.admission_capacity),
      trace_ring_(cfg.trace_ring_capacity) {
  paused_ = cfg.start_paused;
  telemetry_.engine = "server";
  telemetry_.threads = pool_.workers();
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

SearchServer::~SearchServer() {
  // serve() joins the scheduler before returning; this reaps it when
  // serve() never ran (a paused scheduler must wake to see the close).
  set_paused(false);
  on_listener_closed();
}

std::uint32_t SearchServer::add_database(const std::string& fsqdb_path) {
  Db db;
  db.mapped = std::make_unique<bio::MappedSeqDb>(fsqdb_path);
  db.sequences = db.mapped->size();
  db.residues = db.mapped->total_residues();
  const bio::MappedSeqDb& m = *db.mapped;
  db.schedule = pipeline::make_length_schedule(
      m.size(), [&m](std::size_t i) { return std::size_t{m.length(i)}; });
  dbs_.push_back(std::move(db));
  return static_cast<std::uint32_t>(dbs_.size() - 1);
}

std::uint32_t SearchServer::add_database(bio::SequenceDatabase heap_db) {
  Db db;
  db.heap = std::make_unique<bio::SequenceDatabase>(std::move(heap_db));
  db.sequences = db.heap->size();
  db.residues = db.heap->total_residues();
  const bio::SequenceDatabase& h = *db.heap;
  db.schedule = pipeline::make_length_schedule(
      h.size(), [&h](std::size_t i) { return h[i].length(); });
  dbs_.push_back(std::move(db));
  return static_cast<std::uint32_t>(dbs_.size() - 1);
}

std::size_t SearchServer::add_model_library(const std::string& fhpdb_path) {
  std::vector<hmm::ModelEntry> entries = hmm::read_model_db_file(fhpdb_path);
  const std::size_t n = entries.size();
  for (hmm::ModelEntry& e : entries) {
    if (!e.model_stats) {
      // Calibrate once at load (deterministic), not per request.
      pipeline::HmmSearch calibrated(e.model);
      e.model_stats = calibrated.model_stats();
    }
    // The SCAN verb's resident search, built once here so a sweep pays
    // zero per-request profile/calibration cost.  Library order.
    scan_searches_.push_back(std::make_unique<pipeline::HmmSearch>(
        e.model, *e.model_stats));
    scan_names_.push_back(e.model.name());
    std::string name = e.model.name();
    models_[std::move(name)] = std::move(e);
  }
  scan_plan_.reset();  // the library changed; re-tune on the next scan
  return n;
}

void SearchServer::on_drain() {
  obs::log(obs::LogLevel::kInfo, "server.drain_begin",
           {{"queue_depth", static_cast<std::uint64_t>(queue_.size())}});
  paused_ = false;  // a paused scheduler must wake to drain
  pause_cv_.notify_all();
}

void SearchServer::on_listener_closed() {
  queue_.close();
  if (scheduler_.joinable()) scheduler_.join();
}

void SearchServer::set_paused(bool paused) {
  MutexLock lock(state_mu_);
  if (draining_) return;  // drain overrides: never re-freeze a drain
  paused_ = paused;
  pause_cv_.notify_all();
}

// --- Admission ---------------------------------------------------------

void SearchServer::on_search(const std::shared_ptr<Session>& session,
                             std::uint32_t id, SearchRequest req) {
  admit(session, id, req.db_id, req.deadline_ms,
        [&](Pending& p) -> std::optional<ErrorInfo> {
          pipeline::Thresholds thr;
          thr.report_evalue = req.evalue;
          thr.z_override = req.z_override;
          if (req.model_kind != ModelRefKind::kPressed) {
            p.search = search_from_blob(req.model_blob, thr);
            return std::nullopt;
          }
          auto it = models_.find(req.model_name);
          if (it == models_.end())
            return ErrorInfo{ErrorCode::kUnknownModel,
                             "no pressed model named '" + req.model_name +
                                 "'"};
          // add_model_library guaranteed stats are present.
          p.search = std::make_shared<pipeline::HmmSearch>(
              it->second.model, *it->second.model_stats, thr);
          return std::nullopt;
        });
}

void SearchServer::on_scan(const std::shared_ptr<Session>& session,
                           std::uint32_t id, ScanRequest req) {
  admit(session, id, req.db_id, req.deadline_ms,
        [&](Pending& p) -> std::optional<ErrorInfo> {
          if (scan_searches_.empty())
            return ErrorInfo{
                ErrorCode::kUnknownModel,
                "no model libraries loaded; SCAN has nothing to score"};
          p.is_scan = true;
          p.scan_evalue = req.evalue;
          p.scan_z_override = req.z_override;
          return std::nullopt;
        });
}

void SearchServer::admit(
    const std::shared_ptr<Session>& session, std::uint32_t id,
    std::uint32_t db_id, std::uint32_t deadline_ms,
    const std::function<std::optional<ErrorInfo>(Pending&)>& resolve) {
  auto reject = [&](ErrorCode code, const std::string& message) {
    count(&FrontendCounters::requests_bad);
    send_error(*session, id, code, message);
  };
  if (db_id >= dbs_.size()) {
    reject(ErrorCode::kUnknownDatabase,
           "no resident database with id " + std::to_string(db_id));
    return;
  }

  auto pending = std::make_shared<Pending>();
  pending->request_id = id;
  pending->db_id = db_id;
  pending->session = session;
  try {
    if (const std::optional<ErrorInfo> err = resolve(*pending)) {
      reject(err->code, err->message);
      return;
    }
  } catch (const Error& e) {
    reject(ErrorCode::kBadRequest, std::string("model rejected: ") + e.what());
    return;
  }
  if (deadline_ms > 0) {
    pending->has_deadline = true;
    pending->deadline =
        SteadyClock::now() + std::chrono::milliseconds(deadline_ms);
  }

  pending->trace_id = obs::next_trace_id();
  pending->admitted_at = SteadyClock::now();
  if (!queue_.try_push(pending)) {
    // Admission bound hit (or drain closed the queue after the frontend's
    // drain check): shed explicitly, never block the client.
    {
      MutexLock lock(stats_mu_);
      ++stats_.requests_overloaded;
    }
    // A shed storm is one warn per second, not one per shed request.
    static obs::LogRateLimit overload_limit(1);
    std::uint64_t suppressed = 0;
    if (overload_limit.allow(&suppressed))
      obs::log(obs::LogLevel::kWarn, "server.overload",
               {{"verb", pending->is_scan ? "SCAN" : "SEARCH"},
                {"queue_capacity", static_cast<std::uint64_t>(
                                       queue_.capacity())},
                {"suppressed", suppressed}});
    send_reply(*session, MsgType::kOverload, id,
               encode_overload(OverloadInfo{
                   static_cast<std::uint32_t>(queue_.capacity())}));
    return;
  }
  MutexLock lock(stats_mu_);
  ++stats_.requests_admitted;
  if (pending->is_scan) ++stats_.scan_requests;
}

// --- Scheduler tier ----------------------------------------------------

void SearchServer::wait_while_paused() {
  // Explicit wait loop (not a lambda predicate) so the guarded paused_
  // read stays inside this annotated function.
  MutexLock lock(state_mu_);
  while (paused_) pause_cv_.wait(state_mu_);
}

void SearchServer::scheduler_loop() {
  for (;;) {
    wait_while_paused();
    if (!scans_.empty()) {
      // Set-aside SCANs run in arrival order, each yielding to whatever
      // is queued at its chunk boundaries.
      ScanGroup next = std::move(scans_.front());
      scans_.pop_front();
      run_sweep(next.db_id, true, next.group);
      continue;
    }
    std::shared_ptr<Pending> first;
    const PopStatus st = queue_.pop_wait(first, std::chrono::milliseconds(50));
    // Drained: every admitted item is done and no SCAN is set aside.
    if (st == PopStatus::kClosed) break;
    if (st == PopStatus::kTimeout) continue;
    // A pause that began while pop_wait blocked holds this item too:
    // once set_paused(true) returns, nothing is scheduled.
    wait_while_paused();
    run_batch(std::move(first));
  }
}

void SearchServer::run_batch(std::shared_ptr<Pending> first) {
  // The batch is whatever is queued right now, up to max_batch: the
  // scheduler never idles waiting for companions.
  std::vector<std::shared_ptr<Pending>> batch;
  if (first) batch.push_back(std::move(first));
  for (std::shared_ptr<Pending> more;
       batch.size() < cfg_.max_batch && queue_.try_pop(more);)
    batch.push_back(std::move(more));
  if (batch.empty()) return;
  {
    MutexLock lock(stats_mu_);
    ++stats_.batches;
    stats_.max_batch_size =
        std::max<std::uint64_t>(stats_.max_batch_size, batch.size());
  }
  // One sweep per (database, verb): the SEARCHes queued for a resident db
  // coalesce into one sweep and run now; its SCANs share one fused
  // library sweep, set aside to run after the SCAN in flight.
  std::map<std::pair<std::uint32_t, bool>,
           std::vector<std::shared_ptr<Pending>>>
      groups;
  for (std::shared_ptr<Pending>& p : batch)
    groups[{p->db_id, p->is_scan}].push_back(std::move(p));
  for (auto& [key, group] : groups) {
    if (key.second)
      scans_.push_back(ScanGroup{key.first, std::move(group)});
    else
      run_sweep(key.first, false, group);
  }
}

void SearchServer::run_sweep(std::uint32_t db_id, bool scan,
                             std::vector<std::shared_ptr<Pending>>& group) {
  // Deadlines are checked when a group starts; its queue wait ends here.
  const auto started = SteadyClock::now();
  std::vector<std::shared_ptr<Pending>> live;
  for (std::shared_ptr<Pending>& p : group) {
    p->popped_at = started;
    if (!p->has_deadline || started <= p->deadline) {
      live.push_back(std::move(p));
      continue;
    }
    {
      MutexLock lock(stats_mu_);
      ++stats_.requests_deadline_expired;
    }
    send_error(*p->session, p->request_id, ErrorCode::kDeadlineExpired,
               "request expired while queued");
  }
  group.swap(live);
  if (group.empty()) return;

  const Db& db = dbs_[db_id];
  // A SEARCH sweep scores each request's own query; a SCAN sweep scores
  // the resident library once for every SCAN in the group.
  std::vector<const pipeline::HmmSearch*> searches;
  const hmm::FusePlan* plan = nullptr;
  if (scan) {
    for (const auto& s : scan_searches_) searches.push_back(s.get());
    // Tune once per library: the plan depends only on the model lengths
    // and the lane width of the active SIMD tier, both fixed from here.
    if (!scan_plan_) scan_plan_ = pipeline::plan_fusion(searches);
    plan = &*scan_plan_;
  } else {
    for (const auto& p : group) searches.push_back(p->search.get());
  }

  // A SCAN gives way at each chunk boundary once a request is queued:
  // one batch of what is queued runs (its SEARCHes at once, its SCANs
  // set aside) and the SCAN resumes, unless a pause holds it.  SEARCH
  // sweeps never yield.
  std::function<bool()> queued;
  if (scan) queued = [this] { return !queue_.empty(); };
  pipeline::HmmSearch::CoalescedScan sweep;
  const auto sweep_start = SteadyClock::now();
  SteadyClock::time_point sweep_end;
  try {
    pipeline::HmmSearch::Sweep core(searches, db.view(), pool_, plan,
                                    &db.schedule);
    while (!core.advance(pool_, queued)) {
      {
        MutexLock lock(stats_mu_);
        ++stats_.scan_yields;
      }
      wait_while_paused();
      run_batch(nullptr);
      wait_while_paused();
    }
    sweep = core.finish();
    sweep_end = SteadyClock::now();
  } catch (const Error& e) {
    {
      MutexLock lock(stats_mu_);
      stats_.requests_failed += group.size();
    }
    for (const auto& p : group)
      send_error(*p->session, p->request_id, ErrorCode::kInternal,
                 std::string("scan failed: ") + e.what());
    return;
  }
  // Sweep-level accounting lands BEFORE any reply goes out, so a client
  // that reads STATS right after its result already sees the sweep it
  // rode in (test_server leans on this ordering too).
  {
    MutexLock lock(stats_mu_);
    if (scan) {
      ++stats_.scan_sweeps;
      stats_.scan_models_scored += searches.size();
      // Mirror the (scheduler-owned) plan into stats so /statusz and
      // /metrics can read fuse shape without racing the lazy tuner.
      stats_.scan_fuse_groups = plan->groups.size();
      stats_.scan_lane_occupancy = plan->lane_occupancy();
    } else {
      ++stats_.db_sweeps;
    }
  }
  merge_batch_telemetry(sweep.telemetry);

  for (std::size_t i = 0; i < group.size(); ++i) {
    const Pending& p = *group[i];
    // Completion is accounted before the reply leaves, for the same
    // reason; only responses_dropped (needs the send outcome) lags.
    {
      MutexLock lock(stats_mu_);
      ++stats_.requests_completed;
    }
    const auto serialize_start = SteadyClock::now();
    const bool sent =
        scan ? send_reply(*p.session, MsgType::kScanResult, p.request_id,
                          encode_scan_result(scan_reply(p, db, sweep)))
             : send_reply(*p.session, MsgType::kResult, p.request_id,
                          encode_search_result(
                              search_reply(p, db, sweep.per_model[i])));
    if (!sent) {
      MutexLock lock(stats_mu_);
      ++stats_.responses_dropped;
    }
    finish_request_trace(p, scan ? "SCAN" : "SEARCH", sweep_start,
                         sweep_end,
                         seconds_between(serialize_start, SteadyClock::now()),
                         sweep.telemetry, group.size());
  }
}

SearchResultWire SearchServer::search_reply(
    const Pending& p, const Db& db, const pipeline::SearchResult& r) {
  SearchResultWire wire;
  wire.trace_id = p.trace_id;
  wire.db_sequences = db.sequences;
  wire.db_residues = db.residues;
  wire.ssv = r.ssv;
  wire.msv = r.msv;
  wire.vit = r.vit;
  wire.fwd = r.fwd;
  wire.bwd = r.bwd;
  wire.hits = r.hits;
  return wire;
}

ScanResultWire SearchServer::scan_reply(
    const Pending& p, const Db& db,
    const pipeline::HmmSearch::CoalescedScan& sweep) const {
  ScanResultWire wire;
  wire.trace_id = p.trace_id;
  wire.db_sequences = db.sequences;
  wire.db_residues = db.residues;
  wire.fuse_groups = scan_plan_->groups.size();
  wire.fused_models = scan_plan_->fused_models();
  wire.lane_occupancy = scan_plan_->lane_occupancy();
  wire.models.reserve(sweep.per_model.size());
  for (std::size_t m = 0; m < sweep.per_model.size(); ++m) {
    ScanModelHits mh;
    mh.model_name = scan_names_[m];
    // The resident library reports at E <= 10; a request's threshold can
    // only tighten.  Hits are E-value sorted, so this is a prefix.
    //
    // z_override (cluster shards): the resident sweep scored at the
    // shard-local Z, but E = p * Z is one multiply, so recomputing from
    // the carried P-value against the caller's Z is bit-identical to
    // having scored with it.  The recomputed E is monotone in p, exactly
    // like the resident E, so the prefix property holds.  The override
    // Z >= local Z (a cluster is a superset of its shard), so the
    // resident E <= 10 cut never hides a hit the caller wants.
    for (const pipeline::Hit& h : sweep.per_model[m].hits) {
      const double e = p.scan_z_override != 0
                           ? stats::evalue(h.pvalue, 0, p.scan_z_override)
                           : h.evalue;
      if (e > p.scan_evalue) break;
      pipeline::Hit adjusted = h;
      adjusted.evalue = e;
      mh.hits.push_back(std::move(adjusted));
    }
    wire.models.push_back(std::move(mh));
  }
  return wire;
}

// --- Observability -----------------------------------------------------

void SearchServer::merge_batch_telemetry(const obs::ScanTelemetry& t) {
  MutexLock lock(stats_mu_);
  telemetry_.sequences += t.sequences;
  telemetry_.residues += t.residues;
  telemetry_.wall_seconds += t.wall_seconds;
  telemetry_.zero_copy = t.zero_copy;
  telemetry_.mapped_bytes += t.mapped_bytes;
  telemetry_.heap_bytes += t.heap_bytes;
  telemetry_.decoded_bytes += t.decoded_bytes;
  for (const obs::StageTelemetry& st : t.stages) {
    auto it = std::find_if(
        telemetry_.stages.begin(), telemetry_.stages.end(),
        [&](const obs::StageTelemetry& have) { return have.stage == st.stage; });
    if (it == telemetry_.stages.end()) {
      telemetry_.stages.push_back(st);
      continue;
    }
    it->n_in += st.n_in;
    it->n_passed += st.n_passed;
    it->cells += st.cells;
    it->wall_seconds += st.wall_seconds;
    it->busy_seconds += st.busy_seconds;
    for (const auto& [key, value] : st.counters) {
      auto kv = std::find_if(
          it->counters.begin(), it->counters.end(),
          [&](const auto& have) { return have.first == key; });
      if (kv == it->counters.end())
        it->counters.emplace_back(key, value);
      else
        kv->second += value;
    }
  }
}

ServerStats SearchServer::stats() const {
  MutexLock lock(stats_mu_);
  ServerStats s = stats_;
  static_cast<FrontendCounters&>(s) = counters_;
  return s;
}

obs::ScanTelemetry SearchServer::telemetry() const {
  MutexLock lock(stats_mu_);
  return telemetry_;
}

void SearchServer::finish_request_trace(
    const Pending& p, const char* verb, SteadyClock::time_point sweep_start,
    SteadyClock::time_point sweep_end, double serialize_seconds,
    const obs::ScanTelemetry& sweep_telemetry, std::size_t batch_size) {
  const auto done = SteadyClock::now();

  obs::RequestTrace t;
  t.trace_id = p.trace_id;
  t.request_id = p.request_id;
  t.verb = verb;
  t.start_ns = ns_between(start_time(), p.admitted_at);
  t.queue_seconds = seconds_between(p.admitted_at, p.popped_at);
  t.coalesce_seconds = seconds_between(p.popped_at, sweep_start);
  // The sweep's own time: a yielded SCAN's intervals (other batches
  // running) are in no named span, only in total_seconds
  // (docs/observability.md §6).
  t.sweep_seconds = sweep_telemetry.wall_seconds;
  t.sweep_span_seconds = seconds_between(sweep_start, sweep_end);
  t.serialize_seconds = serialize_seconds;
  t.total_seconds = seconds_between(p.admitted_at, done);
  t.batch_size = static_cast<std::uint32_t>(batch_size == 0 ? 1 : batch_size);
  // The sweep scored the whole batch at once; attribute each request an
  // equal share of the per-stage busy time (requests in one coalesced
  // sweep walk the same database, so shares are genuinely symmetric).
  const double share = 1.0 / static_cast<double>(t.batch_size);
  for (const obs::StageTelemetry& st : sweep_telemetry.stages) {
    for (int s = 0; s < obs::kStageCount; ++s) {
      if (st.stage == obs::stage_name(static_cast<obs::Stage>(s))) {
        t.stage_seconds[s] += st.busy_seconds * share;
        break;
      }
    }
  }

  // Always-on histograms: three relaxed atomic adds per request.
  e2e_hist_.record(ns_between(p.admitted_at, done));
  queue_hist_.record(ns_between(p.admitted_at, p.popped_at));
  sweep_hist_.record(static_cast<std::uint64_t>(t.sweep_seconds * 1e9));
  trace_ring_.push(t);

  if (cfg_.slow_request_seconds > 0.0 &&
      t.total_seconds >= cfg_.slow_request_seconds) {
    static obs::LogRateLimit slow_limit(10);
    std::uint64_t suppressed = 0;
    if (slow_limit.allow(&suppressed))
      obs::log(
          obs::LogLevel::kWarn, "server.slow_request",
          {{"trace_id", obs::trace_id_hex(t.trace_id)},
           {"verb", verb},
           {"total_ms", t.total_seconds * 1e3},
           {"queue_ms", t.queue_seconds * 1e3},
           {"coalesce_ms", t.coalesce_seconds * 1e3},
           {"sweep_ms", t.sweep_seconds * 1e3},
           {"serialize_ms", t.serialize_seconds * 1e3},
           {"ssv_ms",
            t.stage_seconds[static_cast<int>(obs::Stage::kSsv)] * 1e3},
           {"msv_ms",
            t.stage_seconds[static_cast<int>(obs::Stage::kMsv)] * 1e3},
           {"vit_ms",
            t.stage_seconds[static_cast<int>(obs::Stage::kVit)] * 1e3},
           {"fwd_ms",
            t.stage_seconds[static_cast<int>(obs::Stage::kFwd)] * 1e3},
           {"bwd_ms",
            t.stage_seconds[static_cast<int>(obs::Stage::kBwd)] * 1e3},
           {"batch_size", t.batch_size},
           {"suppressed", suppressed}});
  }
}

void SearchServer::declare_metrics(obs::MetricSet& m,
                                   obs::MetricFamily& events) const {
  const ServerStats s = stats();
  std::uint64_t db_seqs = 0, db_residues = 0;
  for (const Db& db : dbs_) {
    db_seqs += db.sequences;
    db_residues += db.residues;
  }
  m.gauge("queue_depth", "Admission queue occupancy right now.",
          queue_.size());
  m.gauge("queue_capacity", "Admission queue bound (shed above).",
          queue_.capacity());
  m.gauge("resident_databases", "Databases held mmap-resident.",
          dbs_.size());
  m.gauge("resident_sequences", "Sequences in the resident databases.",
          db_seqs);
  m.gauge("resident_residues", "Residues in the resident databases.",
          db_residues);
  m.gauge("resident_models", "Models loaded from .fhpdb libraries.",
          models_.size());
  events.add({"requests_admitted"}, s.requests_admitted)
      .add({"requests_completed"}, s.requests_completed)
      .add({"requests_overloaded"}, s.requests_overloaded)
      .add({"requests_deadline_expired"}, s.requests_deadline_expired)
      .add({"requests_failed"}, s.requests_failed)
      .add({"batches"}, s.batches)
      .add({"db_sweeps"}, s.db_sweeps)
      .add({"responses_dropped"}, s.responses_dropped)
      .add({"scan_requests"}, s.scan_requests)
      .add({"scan_sweeps"}, s.scan_sweeps)
      .add({"scan_models_scored"}, s.scan_models_scored)
      .add({"scan_yields"}, s.scan_yields);
  m.gauge("max_batch_size", "Largest coalesced batch so far.",
          s.max_batch_size);
  m.gauge("scan_fuse_groups", "Groups in the current fuse plan.",
          s.scan_fuse_groups);
  m.gauge("scan_lane_occupancy",
          "Cell-weighted SIMD lane occupancy of fused sweeps (0..1).",
          s.scan_lane_occupancy);
  m.family("finehmm_request_latency_seconds", obs::MetricKind::kSummary,
           "End-to-end request latency (admission to reply written).",
           "latency.e2e")
      .add({}, e2e_hist_.snapshot());
  m.family("finehmm_queue_wait_seconds", obs::MetricKind::kSummary,
           "Time requests spent in the admission queue.",
           "latency.queue_wait")
      .add({}, queue_hist_.snapshot());
  m.family("finehmm_sweep_seconds", obs::MetricKind::kSummary,
           "Wall time of the database sweep each request rode in.",
           "latency.sweep")
      .add({}, sweep_hist_.snapshot());

  const obs::ScanTelemetry t = telemetry();
  t.declare_metrics(m);

  // Appendices: the trace ring and the telemetry document.
  const std::vector<obs::RequestTrace> traces = trace_ring_.snapshot();
  std::ostringstream ring;
  ring << "[";
  for (std::size_t i = 0; i < traces.size(); ++i) {
    ring << (i == 0 ? "\n" : ",\n");
    obs::write_trace_json(ring, traces[i], 4);
  }
  ring << (traces.empty() ? "" : "\n  ") << "]";
  m.stats_appendix("recent_traces", ring.str());
  std::ostringstream doc;
  t.write_json(doc, 2);
  m.stats_appendix("telemetry", doc.str().substr(2));

  std::ostringstream recent;
  recent << "recent requests: " << traces.size() << " (newest last)";
  for (std::size_t i = traces.size() > 8 ? traces.size() - 8 : 0;
       i < traces.size(); ++i) {
    const obs::RequestTrace& tr = traces[i];
    recent << "\n  " << obs::trace_id_hex(tr.trace_id) << " " << tr.verb
           << " total " << tr.total_seconds * 1e3 << " ms (queue "
           << tr.queue_seconds * 1e3 << ", sweep " << tr.sweep_seconds * 1e3
           << ", batch " << tr.batch_size << ")";
  }
  m.statusz_appendix(recent.str());
}

}  // namespace finehmm::server
