// Database-scan throughput per filter stage, per SIMD tier, per thread
// count, on a Swissprot-like synthetic database — plus a full-pipeline
// end-to-end sweep comparing the heap-decoded parallel engine against the
// zero-copy streaming engine (MappedSeqDb + overlapped rescoring).
//
// Unlike the micro suite (one hot sequence), this drives the
// allocation-free BatchScanner over a whole database through the
// ThreadPool's chunked dynamic scheduler — the same path the CPU engines
// use — so the numbers include real length imbalance and scheduling
// overhead.  Results are written to BENCH_throughput.json (machine
// readable; cells/sec per stage x tier x threads, and per pipeline
// engine x threads, with host info) for the roadmap's evidence trail.
//
// Usage: bench_throughput [db_scale] [model_length] [out.json]
//   db_scale default 0.001 (~460 sequences), model_length default 400.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "bench_common.hpp"
#include "bio/seq_db_io.hpp"
#include "bio/synthetic.hpp"
#include "cpu/simd_backend/backend.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "hmm/generator.hpp"
#include "hmm/model_group.hpp"
#include "hmm/profile.hpp"
#include "obs/histogram.hpp"
#include "obs/recorder.hpp"
#include "obs/request_trace.hpp"
#include "obs/telemetry.hpp"
#include "pipeline/batch_scanner.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/workload.hpp"
#include "profile/fwd_profile.hpp"
#include "profile/msv_profile.hpp"
#include "profile/vit_profile.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"

namespace {

using namespace finehmm;

struct Record {
  const char* stage;
  const char* tier;
  std::size_t threads;
  double cells;
  double seconds;
  double cells_per_sec() const { return obs::safe_rate(cells, seconds); }
};

/// Time one stage over the first `n` database sequences; returns cells/s.
template <class ScoreFn>
Record time_stage(const char* stage, cpu::SimdTier tier, ThreadPool& pool,
                  std::size_t threads, const bio::SequenceDatabase& db,
                  std::size_t n, int M, ScoreFn&& score) {
  Timer timer;
  pool.parallel_for_chunked(
      n, 16, [&](std::size_t worker, std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s)
          score(worker, db[s].codes.data(), db[s].length());
      });
  Record r;
  r.stage = stage;
  r.tier = cpu::simd_tier_name(tier);
  r.threads = threads;
  r.seconds = timer.seconds();
  r.cells = 0;
  for (std::size_t s = 0; s < n; ++s)
    r.cells += static_cast<double>(db[s].length()) * M;
  return r;
}

std::string host_name() {
#if defined(__unix__) || defined(__APPLE__)
  char buf[256] = {0};
  if (::gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0')
    return buf;
#endif
  return "unknown";
}

struct PipelineRecord {
  const char* engine;  // "overlapped_heap" or "overlapped_mmap"
  std::size_t threads;
  double cells = 0;    // total DP cells across all stages, one scan
  double seconds = 0;  // best-of-3 end-to-end (load + scan)
  std::size_t hits = 0;
  double cells_per_sec() const { return obs::safe_rate(cells, seconds); }
};

double total_cells(const pipeline::SearchResult& r) {
  return r.ssv.cells + r.msv.cells + r.vit.cells + r.fwd.cells + r.bwd.cells;
}

void check_hits_match(const pipeline::SearchResult& a,
                      const pipeline::SearchResult& b) {
  if (a.hits.size() != b.hits.size()) {
    std::cerr << "FATAL: engines disagree on hit count: " << a.hits.size()
              << " vs " << b.hits.size() << "\n";
    std::exit(1);
  }
  for (std::size_t i = 0; i < a.hits.size(); ++i) {
    if (a.hits[i].seq_index != b.hits[i].seq_index ||
        a.hits[i].fwd_bits != b.hits[i].fwd_bits ||
        a.hits[i].evalue != b.hits[i].evalue) {
      std::cerr << "FATAL: engines disagree on hit " << i << "\n";
      std::exit(1);
    }
  }
}

/// Telemetry sections of the emitted JSON: one ScanTelemetry snapshot of
/// the overlapped scan, plus the span-tracing overhead measurement (arm
/// B: a tracing recorder attached; the roadmap's guard is < 2%).
struct TelemetryReport {
  std::optional<obs::ScanTelemetry> snapshot;  // overlapped, max threads
  bench::AbTiming tracing;
};

/// The always-on per-request observability cost: the daemon records
/// every completed request into three ConcurrentHistograms and a
/// TraceRing (server.cpp finish_request_trace) — instrumentation that
/// is never compiled out or gated.  Arm B replays exactly that
/// bookkeeping around each scan.  The roadmap guard (checked in CI) is
/// < 2%.
using HistogramReport = bench::AbTiming;

/// One overhead guard's JSON fields: both medians under their names,
/// the overhead, and its spread over the interleaved pairs.
void write_ab(std::ostream& out, const char* variant_key,
              const bench::AbTiming& t) {
  out << "{\"baseline_seconds\": " << t.baseline_seconds << ", \""
      << variant_key << "\": " << t.variant_seconds
      << ", \"overhead_fraction\": " << t.overhead()
      << ", \"pairs\": " << t.pairs << ", \"overhead_q1\": " << t.pair_q1
      << ", \"overhead_q3\": " << t.pair_q3 << "}";
}

/// Each overhead guard times interleaved pairs for at least this long:
/// a CI-scale scan takes about a millisecond, so a handful of best-of
/// runs measures host noise, not a percent-level cost.
constexpr double kGuardSeconds = 1.0;

/// End-to-end pipeline sweep: database load (from .fsqdb) + full filter
/// cascade through the overlapped engine, heap-decoded vs. mmap'd,
/// threads in {1, N/2, N}.  Each timing is best-of-3 after one warm-up;
/// hit lists are asserted bit-identical between the two representations
/// at every thread count.
std::vector<PipelineRecord> bench_pipeline(double scale, int M,
                                           TelemetryReport& tel,
                                           HistogramReport& hist) {
  pipeline::WorkloadSpec wspec;
  wspec.db = bio::SyntheticDbSpec::swissprot_like(scale);
  wspec.homolog_fraction = 0.01;
  auto model = hmm::paper_model(M);
  auto db = pipeline::make_workload(model, wspec);
  const std::string path = "/tmp/finehmm_bench_pipeline.fsqdb";
  bio::write_seq_db_file(path, db);

  stats::CalibrateOptions calib;
  calib.n_samples = 100;
  pipeline::HmmSearch search(model, {}, calib);

  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  std::vector<std::size_t> thread_counts{1};
  if (hw / 2 > 1) thread_counts.push_back(hw / 2);
  if (hw > 1) thread_counts.push_back(hw);

  std::vector<PipelineRecord> records;
  for (std::size_t threads : thread_counts) {
    auto run_heap = [&] {
      auto loaded = bio::read_seq_db_file(path);
      return search.run_cpu_overlapped(loaded, threads);
    };
    auto run_stream = [&] {
      bio::MappedSeqDb mapped(path);
      return search.run_cpu_overlapped(mapped, threads);
    };

    PipelineRecord heap{"overlapped_heap", threads};
    PipelineRecord stream{"overlapped_mmap", threads};
    pipeline::SearchResult heap_result, stream_result;
    for (int rep = 0; rep < 4; ++rep) {  // rep 0 is the warm-up
      Timer t;
      heap_result = run_heap();
      double s = t.seconds();
      if (rep > 0 && (heap.seconds == 0 || s < heap.seconds))
        heap.seconds = s;
      t.reset();
      stream_result = run_stream();
      s = t.seconds();
      if (rep > 0 && (stream.seconds == 0 || s < stream.seconds))
        stream.seconds = s;
    }
    check_hits_match(heap_result, stream_result);
    heap.cells = total_cells(heap_result);
    heap.hits = heap_result.hits.size();
    stream.cells = total_cells(stream_result);
    stream.hits = stream_result.hits.size();
    records.push_back(heap);
    records.push_back(stream);
    std::printf("pipeline threads=%zu  heap=%.4g  mmap-overlap=%.4g "
                "cells/s  (x%.2f, %zu hits)\n",
                threads, heap.cells_per_sec(), stream.cells_per_sec(),
                obs::safe_rate(heap.seconds, stream.seconds), stream.hits);
  }

  // Span-tracing overhead guard: the overlapped scan at max threads with
  // no recorder vs. a tracing recorder attached must cost < 2%.  Each
  // traced run gets a fresh recorder whose logs are built before the
  // clock starts, so the timed region holds only the span recording.
  // Both guards scan on one persistent pool, so crew start-up is not in
  // the timed region.  Every engine fills its telemetry either way; the
  // last traced run's snapshot goes into the report.
  const std::size_t guard_threads = thread_counts.back();
  bio::MappedSeqDb mapped(path);
  ThreadPool pool(guard_threads);
  tel.tracing = bench::time_ab(
      [&](bool traced) {
        obs::Recorder rec;
        if (traced) rec.reserve_threads(pool.workers());
        search.set_recorder(traced ? &rec : nullptr);
        Timer t;
        auto r = search.run_cpu_overlapped(mapped, pool);
        const double s = t.seconds();
        search.set_recorder(nullptr);
        if (traced) tel.snapshot = std::move(r.telemetry);
        return s;
      },
      kGuardSeconds);
  std::printf("telemetry overhead (tracing recorder): %+.2f%% "
              "(pairs %zu, q1 %+.2f%%, q3 %+.2f%%)\n",
              tel.tracing.overhead() * 100.0, tel.tracing.pairs,
              tel.tracing.pair_q1 * 100.0, tel.tracing.pair_q3 * 100.0);

  // Always-on histogram guard: the same overlapped scan, with and
  // without the daemon's per-completed-request bookkeeping (three
  // ConcurrentHistogram records, the steady_clock reads that feed them,
  // and a TraceRing push).  A request's sweep costs milliseconds; the
  // records cost a few relaxed atomic adds, so this should be noise.
  obs::ConcurrentHistogram e2e_hist, queue_hist, sweep_hist;
  obs::TraceRing ring(64);
  hist = bench::time_ab(
      [&](bool instrumented) {
        Timer t;
        const auto admitted = std::chrono::steady_clock::now();
        auto r = search.run_cpu_overlapped(mapped, pool);
        if (instrumented) {
          const auto done = std::chrono::steady_clock::now();
          const double total =
              std::chrono::duration<double>(done - admitted).count();
          const auto ns = static_cast<std::uint64_t>(total * 1e9);
          e2e_hist.record(ns);
          queue_hist.record(0);
          sweep_hist.record(ns);
          obs::RequestTrace trace;
          trace.trace_id = obs::next_trace_id();
          trace.verb = "BENCH";
          trace.sweep_seconds = total;
          trace.total_seconds = total;
          ring.push(trace);
        }
        (void)r;
        return t.seconds();
      },
      kGuardSeconds);
  std::printf("histogram overhead (per-request records): %+.2f%% "
              "(pairs %zu, q1 %+.2f%%, q3 %+.2f%%)\n",
              hist.overhead() * 100.0, hist.pairs, hist.pair_q1 * 100.0,
              hist.pair_q3 * 100.0);
  std::remove(path.c_str());
  return records;
}

/// The hmmscan dual: many short models, one database.  Times 32
/// per-model overlapped scans against ONE lane-packed fused sweep
/// on the same pool, asserts the per-model hit lists bit-identical, and
/// records models/sec plus the packed-group shape so CI can guard the
/// >= 2x fused speedup on AVX2-capable hosts (docs/multi_model.md).
struct MultiModelReport {
  std::size_t n_models = 0;
  int min_length = 0, max_length = 0;
  std::size_t threads = 0;
  double cells = 0;          // per-model DP cells (identical both paths)
  double seq_seconds = 0;    // best-of-3 after warm-up
  double fused_seconds = 0;  // best-of-3 after warm-up
  std::size_t groups = 0, fused_models = 0;
  double models_per_group = 0, lane_occupancy = 0;
  double speedup() const {
    return obs::safe_rate(seq_seconds, fused_seconds);
  }
  double seq_models_per_sec() const {
    return obs::safe_rate(static_cast<double>(n_models), seq_seconds);
  }
  double fused_models_per_sec() const {
    return obs::safe_rate(static_cast<double>(n_models), fused_seconds);
  }
};

MultiModelReport bench_multi_model(double scale) {
  constexpr std::size_t kModels = 32;
  auto db = bio::generate_database(bio::SyntheticDbSpec::swissprot_like(scale));
  pipeline::ScanSource src(db);

  MultiModelReport rep;
  rep.n_models = kModels;
  stats::CalibrateOptions calib;
  calib.n_samples = 60;
  std::vector<std::unique_ptr<pipeline::HmmSearch>> searches;
  std::vector<int> lengths;
  for (std::size_t i = 0; i < kModels; ++i) {
    const int M = 50 + static_cast<int>(i % 8) * 6;
    lengths.push_back(M);
    auto model = hmm::generate_hmm(
        hmm::RandomHmmSpec{M, 4200 + static_cast<std::uint64_t>(i)});
    searches.push_back(
        std::make_unique<pipeline::HmmSearch>(model, pipeline::Thresholds{},
                                              calib));
  }
  rep.min_length = *std::min_element(lengths.begin(), lengths.end());
  rep.max_length = *std::max_element(lengths.begin(), lengths.end());

  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  rep.threads = hw;
  ThreadPool pool(hw);

  std::vector<const pipeline::HmmSearch*> ptrs;
  for (const auto& s : searches) ptrs.push_back(s.get());
  const auto plan = pipeline::plan_fusion(ptrs);
  rep.groups = plan.groups.size();
  rep.fused_models = plan.fused_models();
  rep.models_per_group = plan.models_per_group();
  rep.lane_occupancy = plan.lane_occupancy();

  std::vector<pipeline::SearchResult> seq_results;
  pipeline::HmmSearch::CoalescedScan fused;
  for (int rep_i = 0; rep_i < 4; ++rep_i) {  // rep 0 is the warm-up
    Timer t;
    seq_results.clear();
    for (const auto* s : ptrs)
      seq_results.push_back(s->run_cpu_overlapped(src, pool));
    double s = t.seconds();
    if (rep_i > 0 && (rep.seq_seconds == 0 || s < rep.seq_seconds))
      rep.seq_seconds = s;
    t.reset();
    fused = pipeline::HmmSearch::run_cpu_coalesced(ptrs, src, pool, &plan);
    s = t.seconds();
    if (rep_i > 0 && (rep.fused_seconds == 0 || s < rep.fused_seconds))
      rep.fused_seconds = s;
  }
  // Fused hits are bit-identical to the per-model scans by contract;
  // check_hits_match exits nonzero on the first divergence.
  for (std::size_t m = 0; m < kModels; ++m)
    check_hits_match(seq_results[m], fused.per_model[m]);
  for (const auto& r : seq_results) rep.cells += total_cells(r);

  std::printf("multi-model: %zu models, sequential=%.4gs fused=%.4gs "
              "(x%.2f; %zu groups, %.1f models/group, %.1f%% lanes)\n",
              rep.n_models, rep.seq_seconds, rep.fused_seconds,
              rep.speedup(), rep.groups, rep.models_per_group,
              rep.lane_occupancy * 100.0);
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = argc > 1 ? std::stod(argv[1]) : 0.001;
  const int M = argc > 2 ? std::stoi(argv[2]) : 400;
  const std::string out_path =
      argc > 3 ? argv[3] : "BENCH_throughput.json";

  auto spec = bio::SyntheticDbSpec::swissprot_like(scale);
  auto db = bio::generate_database(spec);
  std::size_t total_residues = 0;
  for (std::size_t s = 0; s < db.size(); ++s)
    total_residues += db[s].length();

  auto model = hmm::paper_model(M);
  hmm::SearchProfile prof(model, hmm::AlignMode::kLocalMultihit, 400);
  profile::MsvProfile msv(prof);
  profile::VitProfile vit(prof);
  profile::FwdProfile fwd(prof);

  // Word/float stages cost ~5x the byte stages per cell; cap their slice
  // of the database so a full sweep stays interactive.
  const std::size_t n_byte = db.size();
  const std::size_t n_word = std::min<std::size_t>(db.size(), 200);

  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  std::vector<std::size_t> thread_counts{1};
  if (hw > 1) thread_counts.push_back(hw);

  std::vector<Record> records;
  for (cpu::SimdTier tier : cpu::supported_simd_tiers()) {
    cpu::set_simd_tier(tier);
    for (std::size_t threads : thread_counts) {
      ThreadPool pool(threads);
      pipeline::BatchScanner scanner(msv, vit, &fwd, pool.workers(), tier);
      std::vector<std::vector<float>> moccs(scanner.workers());
      // Warm-up: fault in the scanner state before the timed loops.
      for (std::size_t w = 0; w < scanner.workers(); ++w) {
        scanner.msv(w, db[0].codes.data(), db[0].length());
        scanner.decode(w, db[0].codes.data(), db[0].length(), moccs[w]);
      }

      records.push_back(time_stage(
          "ssv", tier, pool, threads, db, n_byte, M,
          [&](std::size_t w, const std::uint8_t* s, std::size_t L) {
            scanner.ssv(w, s, L);
          }));
      records.push_back(time_stage(
          "msv", tier, pool, threads, db, n_byte, M,
          [&](std::size_t w, const std::uint8_t* s, std::size_t L) {
            scanner.msv(w, s, L);
          }));
      records.push_back(time_stage(
          "vit", tier, pool, threads, db, n_word, M,
          [&](std::size_t w, const std::uint8_t* s, std::size_t L) {
            scanner.vit(w, s, L);
          }));
      records.push_back(time_stage(
          "fwd", tier, pool, threads, db, n_word, M,
          [&](std::size_t w, const std::uint8_t* s, std::size_t L) {
            scanner.fwd(w, s, L);
          }));
      records.push_back(time_stage(
          "bwd", tier, pool, threads, db, n_word, M,
          [&](std::size_t w, const std::uint8_t* s, std::size_t L) {
            scanner.decode(w, s, L, moccs[w]);
          }));

      const auto& r = records;
      std::printf("tier=%-8s threads=%zu  ssv=%.3g msv=%.3g vit=%.3g "
                  "fwd=%.3g bwd=%.3g cells/s\n",
                  cpu::simd_tier_name(tier), threads,
                  r[r.size() - 5].cells_per_sec(),
                  r[r.size() - 4].cells_per_sec(),
                  r[r.size() - 3].cells_per_sec(),
                  r[r.size() - 2].cells_per_sec(),
                  r[r.size() - 1].cells_per_sec());
    }
  }
  cpu::reset_simd_tier();

  // Full-pipeline end-to-end: the overlapped engine over the heap and the
  // mmap'd database at double the stage-sweep database scale (still
  // interactive).
  TelemetryReport tel;
  HistogramReport hist;
  auto pipeline_records = bench_pipeline(scale * 2, M, tel, hist);

  // Many-model fused sweep: 32 short models, sequential vs lane-packed.
  auto multi = bench_multi_model(scale);

  std::ofstream out(out_path);
  out << "{\n";
  out << "  \"bench\": \"throughput\",\n";
  out << "  \"host\": {\"name\": \"" << host_name()
      << "\", \"hardware_threads\": "
      << std::thread::hardware_concurrency() << ", \"simd_tier\": \""
      << cpu::simd_tier_name(cpu::active_simd_tier()) << "\"},\n";
  out << "  \"database\": {\"preset\": \"swissprot_like\", \"scale\": "
      << scale << ", \"n_sequences\": " << db.size()
      << ", \"n_residues\": " << total_residues << "},\n";
  out << "  \"model_length\": " << M << ",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    out << "    {\"stage\": \"" << r.stage << "\", \"tier\": \"" << r.tier
        << "\", \"threads\": " << r.threads << ", \"cells\": " << r.cells
        << ", \"seconds\": " << r.seconds << ", \"cells_per_sec\": "
        << obs::json_rate(r.cells, r.seconds) << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  // Reference point for the streaming-scan work: end-to-end cells/sec of
  // the pre-streaming engine (heap decode + barrier-staged parallel scan)
  // on this workload, measured on the roadmap host before the mmap /
  // bucketed / overlapped changes landed.
  out << "  \"pipeline_baseline\": {\"engine\": \"parallel_heap\", "
         "\"threads\": 1, \"cells_per_sec\": 2.67178e9, "
         "\"note\": \"pre-streaming main\"},\n";
  // Reference point for the widened Forward/Backward work: single-thread
  // Forward cells/sec on this workload before the vector ladder was
  // widened past 128 bits (fwd_tier() clamped every request to SSE2).
  // The CI bench smoke guard asserts the best current fwd rate is
  // >= 3x this on AVX2-capable hosts.
  out << "  \"fwd_baseline\": {\"stage\": \"fwd\", \"tier\": \"sse2\", "
         "\"threads\": 1, \"cells_per_sec\": 1.9322e8, "
         "\"note\": \"pre-widening main, SSE2-clamped\"},\n";
  out << "  \"pipeline\": [\n";
  for (std::size_t i = 0; i < pipeline_records.size(); ++i) {
    const auto& r = pipeline_records[i];
    out << "    {\"engine\": \"" << r.engine
        << "\", \"threads\": " << r.threads << ", \"cells\": " << r.cells
        << ", \"seconds\": " << r.seconds << ", \"cells_per_sec\": "
        << obs::json_rate(r.cells, r.seconds) << ", \"hits\": " << r.hits
        << "}" << (i + 1 < pipeline_records.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  // The hmmscan-style many-model sweep: per-model cells are identical on
  // both paths (fused hits/stage counts are bit-identical by contract),
  // so the cells/sec and models/sec ratios both equal the time speedup.
  // CI asserts speedup >= 2 on AVX2-capable hosts.
  out << "  \"multi_model\": {\n";
  out << "    \"models\": " << multi.n_models << ", \"model_length_min\": "
      << multi.min_length << ", \"model_length_max\": " << multi.max_length
      << ", \"threads\": " << multi.threads << ",\n";
  out << "    \"sequential\": {\"seconds\": " << multi.seq_seconds
      << ", \"cells_per_sec\": " << obs::json_rate(multi.cells,
                                                   multi.seq_seconds)
      << ", \"models_per_sec\": "
      << obs::json_rate(static_cast<double>(multi.n_models),
                        multi.seq_seconds)
      << "},\n";
  out << "    \"fused\": {\"seconds\": " << multi.fused_seconds
      << ", \"cells_per_sec\": " << obs::json_rate(multi.cells,
                                                   multi.fused_seconds)
      << ", \"models_per_sec\": "
      << obs::json_rate(static_cast<double>(multi.n_models),
                        multi.fused_seconds)
      << ",\n";
  out << "      \"groups\": " << multi.groups << ", \"fused_models\": "
      << multi.fused_models << ", \"models_per_group\": "
      << multi.models_per_group << ", \"lane_occupancy_pct\": "
      << multi.lane_occupancy * 100.0 << "},\n";
  out << "    \"speedup\": " << multi.speedup()
      << ", \"hits_match\": true\n";
  out << "  },\n";
  // Overhead of span tracing (roadmap guard: < 2%), and the overlapped
  // scan's unified snapshot.
  out << "  \"telemetry_overhead\": ";
  write_ab(out, "tracing_recorder_seconds", tel.tracing);
  out << ",\n";
  // Per-request histogram + trace-ring bookkeeping (always on in the
  // daemon; roadmap guard: < 2%).
  out << "  \"histogram_overhead\": ";
  write_ab(out, "instrumented_seconds", hist);
  out << ",\n";
  out << "  \"telemetry\":";
  if (tel.snapshot) {
    out << "\n";
    tel.snapshot->write_json(out, 2);
    out << "\n";
  } else {
    out << " null\n";
  }
  out << "}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
