// Batch workloads: back-to-back run_cpu_overlapped scans of a mapped
// .fsqdb, the shape of one hmmsearch invocation over a large database.
//
//   search_filter   Env_nr-like database, M=400, 0.1% homologs, domains
//                   off: the paper's Fig. 1 shape, MSV does most of the
//                   work and decode none.
//   search_rescore  Swissprot-like database, M=200, 5% homologs, domains
//                   on: survivor rescoring (Viterbi, Forward, checkpointed
//                   Backward/decode) dominates and MSV is a few percent.
#include <cstdio>
#include <memory>
#include <optional>

#include "bio/seq_db_io.hpp"
#include "inputs.hpp"
#include "obs/recorder.hpp"
#include "util/error.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace finehmm::bench {

namespace {

struct BatchSpec {
  const char* name;
  int model_length;
  std::size_t models;  // query models, scanned round-robin
  bool envnr_like;     // else Swissprot-like
  double scale;        // of the full database's sequence count
  double homolog_fraction;
  bool define_domains;
};

constexpr BatchSpec kSpecs[] = {
    {"search_filter", 400, 8, true, 0.008, 0.001, false},
    {"search_rescore", 200, 16, false, 0.01, 0.10, true},
};

// Traced scans whose engine spans go into the trace file (a scan of
// search_filter records ~6k spans).
constexpr std::size_t kSpanScans = 2;

const BatchSpec& spec_of(const std::string& name) {
  for (const BatchSpec& s : kSpecs)
    if (name == s.name) return s;
  throw Error("unknown batch workload " + name);
}

/// Everything a scan needs, built from the inputs on disk.
struct Setup {
  std::unique_ptr<bio::MappedSeqDb> db;
  std::vector<std::unique_ptr<pipeline::HmmSearch>> searches;
  std::unique_ptr<ThreadPool> pool;
  double open_s = 0.0;
};

/// Set-up as hmmsearch pays it: map the database, build each query's
/// profiles from its stored calibration, start the pool; then the first
/// scan, so set-up time is the time to a first result.
Setup set_up(const BatchSpec& spec, const RunOptions& opt,
             std::size_t threads) {
  Setup s;
  const double t0 = now_s();
  s.db = std::make_unique<bio::MappedSeqDb>(input_path(opt, "db.fsqdb"));
  s.open_s = now_s() - t0;
  pipeline::Thresholds thr;
  thr.define_domains = spec.define_domains;
  for (const hmm::ModelEntry& e :
       read_calibrated_models(input_path(opt, "queries.fhpdb")))
    s.searches.push_back(
        std::make_unique<pipeline::HmmSearch>(e.model, *e.model_stats, thr));
  // The calling thread joins the crew, so threads - 1 pool workers.
  s.pool = std::make_unique<ThreadPool>(std::max<std::size_t>(1, threads - 1));
  s.searches[0]->run_cpu_overlapped(*s.db, *s.pool);
  return s;
}

/// What the traced scans of a per-layer run accumulate.
struct TraceTotals {
  StageTotals stages;
  Ladder ladder;
  std::vector<double> imbalance, stalls, rescues;
  std::vector<double> overhead;  // traced / untraced time, per pair
};

/// Fold one traced scan into the totals and, for the first few, its
/// engine spans into the trace file.
void account_traced_scan(const pipeline::SearchResult& r, double wall,
                         std::int64_t start_ns, std::int64_t rec_epoch_ns,
                         const obs::Recorder& rec, std::uint64_t scan_span,
                         bool keep_spans, TraceTotals& tt, SpanLog& spans) {
  FH_REQUIRE(r.telemetry.has_value(), "traced scan returned no telemetry");
  const obs::ScanTelemetry& tel = *r.telemetry;
  const double threads = static_cast<double>(tel.threads);
  tt.stages.add(r, tel.wall_seconds, tel.threads);

  // Ladder: scan (harness) -> engine (telemetry wall) -> stage busy time
  // spread over the crew.  Engine self time is the crew's idle and
  // scheduling time; the scan's self time is left unattributed.
  tt.ladder.add_wall(wall);
  const double msv = (r.ssv.seconds + r.msv.seconds) / threads;
  const double vit = r.vit.seconds / threads, fwd = r.fwd.seconds / threads,
               bwd = r.bwd.seconds / threads;
  tt.ladder.add("msv", msv);
  tt.ladder.add("vit", vit);
  tt.ladder.add("fwd", fwd);
  tt.ladder.add("bwd", bwd);
  tt.ladder.add("engine", tel.wall_seconds - msv - vit - fwd - bwd);

  double max_busy = 0.0, sum_busy = 0.0;
  for (const obs::ThreadTelemetry& row : tel.per_thread) {
    double busy = 0.0;
    for (double s : row.stage_busy_seconds) busy += s;
    max_busy = std::max(max_busy, busy);
    sum_busy += busy;
  }
  if (sum_busy > 0.0)
    tt.imbalance.push_back(max_busy * threads / sum_busy);
  if (tel.queue) {
    tt.stalls.push_back(static_cast<double>(tel.queue->enqueue_stalls));
    tt.rescues.push_back(static_cast<double>(tel.queue->help_first_rescues));
  }

  if (!keep_spans) return;
  const std::uint64_t engine = spans.add(
      "engine " + tel.engine, 0, start_ns,
      start_ns + static_cast<std::int64_t>(tel.wall_seconds * 1e9), scan_span);
  for (const obs::SpanEvent& e : rec.merged_events())
    spans.add(e.name, 1 + e.thread, rec_epoch_ns + e.start_ns,
              rec_epoch_ns + e.start_ns + e.dur_ns, engine);
}

}  // namespace

bool is_batch_workload(const std::string& name) {
  for (const BatchSpec& s : kSpecs)
    if (name == s.name) return true;
  return false;
}

void prepare_batch(const RunOptions& opt) {
  const BatchSpec& spec = spec_of(opt.workload);
  const std::vector<hmm::Plan7Hmm> models = make_models(
      derive_seed(opt.seed, kQuerySeed),
      std::vector<int>(spec.models, spec.model_length), "query");
  const bio::SyntheticDbSpec db_spec =
      spec.envnr_like ? bio::SyntheticDbSpec::envnr_like(spec.scale)
                      : bio::SyntheticDbSpec::swissprot_like(spec.scale);
  bio::write_seq_db_file(
      input_path(opt, "db.fsqdb"),
      make_database(db_spec, opt.seed, models, spec.homolog_fraction));
  write_calibrated_models(input_path(opt, "queries.fhpdb"), models);
}

void run_batch(const RunOptions& opt, Report& out, SpanLog& spans) {
  const BatchSpec& spec = spec_of(opt.workload);
  const std::size_t threads = bench_threads();

  // Set-up, repeated; the last one serves the run.
  std::vector<double> open_s;
  Setup s;
  const std::vector<double> setup_s = repeat_setup([&] {
    s = Setup{};
    const double t0 = now_s();
    s = set_up(spec, opt, threads);
    open_s.push_back(s.open_s);
    return now_s() - t0;
  });
  const pipeline::ScanSource src(*s.db);
  const std::size_t K = s.searches.size();
  const double residues = static_cast<double>(src.total_residues());
  char line[240];
  std::snprintf(line, sizeof line,
                "workload %s: %zu sequences, %.0f residues, %zu models M=%d, "
                "%zu-thread run_cpu_overlapped, domains %s",
                spec.name, src.size(), residues, K, spec.model_length,
                s.pool->workers(), spec.define_domains ? "on" : "off");
  out.note(line);

  // Timed scans.  Each result is checked against the first scan of the
  // same model outside its timed interval; the first scans are checked
  // against run_cpu afterwards.  A per-layer run alternates traced and
  // untraced scans in pairs, switching which arm goes first.
  std::vector<std::optional<pipeline::SearchResult>> first(K);
  std::vector<double> scan_s;                    // untraced scans, in order
  std::vector<std::pair<double, double>> scans;  // (seconds, cells)
  const double cells = residues * spec.model_length;
  TraceTotals tt;
  double pair_other = 0.0;  // the previous scan's seconds (a pair's first arm)
  std::size_t traced_scans = 0;
  const double start = now_s();
  for (std::size_t i = 0; i == 0 || now_s() - start < opt.seconds; ++i) {
    const std::size_t pair = i / 2;
    const std::size_t m = opt.trace ? pair % K : i % K;
    const bool traced = opt.trace && (i % 2) == (pair % 2);
    pipeline::HmmSearch& search = *s.searches[m];

    std::optional<obs::Recorder> rec;
    std::int64_t rec_epoch_ns = 0;
    if (traced) {
      rec_epoch_ns = now_ns();
      rec.emplace();
      search.set_recorder(&*rec);
    }
    const std::int64_t t0 = now_ns();
    pipeline::SearchResult r;
    std::string error;
    try {
      r = search.run_cpu_overlapped(src, *s.pool);
    } catch (const Error& e) {
      error = e.what();
    }
    const std::int64_t t1 = now_ns();
    search.set_recorder(nullptr);
    const double wall = static_cast<double>(t1 - t0) * 1e-9;

    ++out.attempted;
    if (!error.empty()) {
      ++out.failed;
      out.mismatch("scan raised: " + error);
      continue;
    }
    if (!first[m]) {
      first[m] = r;
    } else if (const std::string d = diff_results(*first[m], r, true);
               !d.empty()) {
      ++out.failed;
      out.mismatch("scan " + std::to_string(i) + ": " + d);
    }

    if (!traced) {
      scan_s.push_back(wall);
      scans.emplace_back(wall, cells);
    } else {
      const std::uint64_t scan_span =
          spans.add("scan " + search.profile().name(), 0, t0, t1);
      account_traced_scan(r, wall, t0, rec_epoch_ns, *rec, scan_span,
                          traced_scans++ < kSpanScans, tt, spans);
    }
    if (opt.trace && i % 2 == 1)
      tt.overhead.push_back(traced ? wall / pair_other : pair_other / wall);
    pair_other = wall;
  }

  // run_cpu reference, one serial scan per model (outside the timed
  // phase; its time is the one-thread baseline of pipeline.scaling).
  double serial_s = 0.0, serial_cells = 0.0;
  for (std::size_t m = 0; m < K; ++m) {
    if (!first[m]) continue;
    Timer t;
    const pipeline::SearchResult ref = s.searches[m]->run_cpu(src);
    serial_s += t.seconds();
    serial_cells += cells;
    if (const std::string d = diff_results(ref, *first[m], true); !d.empty()) {
      out.mismatch("model " + std::to_string(m) + " vs run_cpu: " + d);
      continue;
    }
    std::snprintf(line, sizeof line,
                  "  model %zu: %zu hits, msv pass %.4f, vit pass %.4f, "
                  "identical to run_cpu",
                  m, ref.hits.size(), ref.msv.pass_rate(),
                  ref.vit.pass_rate());
    out.note(line);
  }

  const double gcups = blocked_rate(scans) * 1e-9;

  if (!opt.trace) {
    out.metric("gcups", gcups, "Gcells/s", scans.size());
    out.latency("latency_p50_ms", blocked_quantile(scan_s, 0.50));
    out.latency("latency_p90_ms", blocked_quantile(scan_s, 0.90));
    out.metric("setup_s", median(setup_s), "s", setup_s.size());
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    return;
  }

  // The queries were calibrated when the inputs were made; calibrating
  // one again times the stats layer.
  const hmm::Plan7Hmm model =
      read_calibrated_models(input_path(opt, "queries.fhpdb"))[0].model;
  Timer calibrate;
  const pipeline::HmmSearch calibrated(model);
  const double calibrate_s = calibrate.seconds();
  const KernelRates k = probe_kernels(calibrated,
                                      kernel_sample(*s.db, 400000), 0.15);
  report_pipeline_layers(out, k, tt.stages);
  const double serial_gcups = serial_cells / serial_s * 1e-9;
  out.metric("pipeline.scaling",
             gcups / (static_cast<double>(s.pool->workers()) * serial_gcups),
             "ratio", scan_s.size());
  out.metric("pipeline.worker_imbalance", median(tt.imbalance), "ratio",
             tt.imbalance.size());
  out.metric("pipeline.queue.stalls", median(tt.stalls), "count",
             tt.stalls.size());
  out.metric("pipeline.queue.rescues", median(tt.rescues), "count",
             tt.rescues.size());
  out.metric("bio.open_s", median(open_s), "s", open_s.size());
  out.metric("bio.mapped_mb", file_mb(input_path(opt, "db.fsqdb")), "MiB", 1);
  out.metric("stats.calibrate_s", calibrate_s, "s", 1);
  report_absent(out, {{"server.batch_size.mean", "count"},
                      {"hmm.fuse.lane_occupancy", "ratio"},
                      {"cluster.connects_per_request", "count"},
                      {"loadgen.backlog_share", "ratio"}});
  out.metric("obs.trace_overhead", median(tt.overhead) - 1.0, "ratio",
             tt.overhead.size());
  tt.ladder.report(out, spec.name);
}

}  // namespace finehmm::bench
