#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>
#include <type_traits>
#include <utility>

#include "cpu/msv_group.hpp"
#include "gpu/search.hpp"
#include "obs/recorder.hpp"
#include "pipeline/batch_scanner.hpp"
#include "pipeline/null2.hpp"
#include "pipeline/workload.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/mpmc_queue.hpp"
#include "util/timer.hpp"

namespace finehmm::pipeline {

HmmSearch::HmmSearch(const hmm::Plan7Hmm& model, Thresholds thresholds,
                     stats::CalibrateOptions calib)
    : model_(model),
      prof_(model, hmm::AlignMode::kLocalMultihit, 400),
      msv_(prof_),
      vit_(prof_),
      fwd_(prof_),
      thr_(thresholds) {
  stats_ = stats::calibrate(prof_, msv_, vit_, calib);
}

HmmSearch::HmmSearch(const hmm::Plan7Hmm& model,
                     const stats::ModelStats& model_stats,
                     Thresholds thresholds)
    : model_(model),
      prof_(model, hmm::AlignMode::kLocalMultihit, 400),
      msv_(prof_),
      vit_(prof_),
      fwd_(prof_),
      stats_(model_stats),
      thr_(thresholds) {}

namespace {

constexpr int kSsv = static_cast<int>(obs::Stage::kSsv);
constexpr int kMsv = static_cast<int>(obs::Stage::kMsv);
constexpr int kVit = static_cast<int>(obs::Stage::kVit);
constexpr int kFwd = static_cast<int>(obs::Stage::kFwd);
constexpr int kBwd = static_cast<int>(obs::Stage::kBwd);

/// Byte lanes of the active SIMD tier: the width fuse plans pack into.
int active_u8_lanes() {
  return cpu::backend::tier_kernels(
             cpu::resolve_simd_tier(cpu::active_simd_tier()))
      .u8_lanes;
}

/// The byte-stage gate every engine applies: an overflowed byte score
/// passes unconditionally (it is provably huge); otherwise its bits
/// against null1 go through the stage's Gumbel P-value.
bool byte_gate(const stats::Gumbel& null, double p_max, cpu::FilterResult r,
               std::size_t L) {
  return r.overflowed ||
         null.surv(hmm::nats_to_bits(r.score_nats, static_cast<int>(L))) <=
             p_max;
}

// run_cpu's byte filters consume either representation without a
// decode: the packed overloads instantiate the identical kernel loop, so
// the branch here cannot change a score.
cpu::FilterResult ssv_score(BatchScanner& scanner, std::size_t w,
                            ScanSource src, std::size_t s, std::size_t L) {
  return src.zero_copy() ? scanner.ssv(w, src.packed(s), L)
                         : scanner.ssv(w, src.codes(s), L);
}

cpu::FilterResult msv_score(BatchScanner& scanner, std::size_t w,
                            ScanSource src, std::size_t s, std::size_t L) {
  return src.zero_copy() ? scanner.msv(w, src.packed(s), L)
                         : scanner.msv(w, src.codes(s), L);
}

void sort_hits(std::vector<Hit>& hits) {
  // (evalue, seq_index) is a total order, so the hit list is a pure
  // function of the hit set — a cluster coordinator merging shard hits
  // re-sorts by the same key and reproduces this order byte-for-byte.
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    return a.evalue != b.evalue ? a.evalue < b.evalue
                                : a.seq_index < b.seq_index;
  });
}

/// Per-worker scratch of the word stages, reused across survivors so the
/// steady state allocates only for reported hits (names, alignments).
struct WordScratch {
  std::vector<std::uint8_t> codes;  // packed survivors decode here
  cpu::TraceWorkspace trace;
  std::vector<float> mocc;  // checkpointed-decode occupancy track
};

/// Forward -> null2 -> alignments / posterior decode for one Viterbi
/// survivor `s` on worker `w` — the one rescore every engine runs (the
/// sweep core on whichever worker is idle, forward_stage serially).
/// Fills `h` and returns true when the hit is reported; banks the
/// Forward and decode busy time into `stage_s`.
bool rescore_survivor(const HmmSearch& hs, BatchScanner& scanner,
                      std::size_t w, WordScratch& ws, ScanSource src,
                      std::size_t s, const std::uint8_t* codes, Hit& h,
                      double* stage_s) {
  const Thresholds& thr = hs.thresholds();
  const hmm::SearchProfile& prof = hs.profile();
  const std::size_t L = src.length(s);
  Timer t;
  const float raw = scanner.fwd(w, codes, L);
  struct Scored {
    float bits;
    double p, e;
  };
  const auto score = [&](float bias_nats) {
    const float bits =
        hmm::nats_to_bits(raw - bias_nats, static_cast<int>(L));
    const double p = hs.model_stats().fwd_pvalue(bits);
    return Scored{bits, p, stats::evalue(p, src.size(), thr.z_override)};
  };
  // null2 is >= 0 and bits -> P -> E are monotone, so a survivor whose
  // uncorrected E-value misses the threshold is dropped either way: it
  // needs no traceback.
  if (score(0.0f).e > thr.report_evalue) {
    stage_s[kFwd] += t.seconds();
    return false;
  }
  cpu::ViterbiTrace trace;
  float bias_nats = 0.0f;
  if (thr.null2_correction || thr.compute_alignments)
    trace = cpu::viterbi_trace(prof, codes, L, ws.trace);
  if (thr.null2_correction) bias_nats = null2_correction(prof, trace, codes);
  const Scored sc = score(bias_nats);
  const bool reported = sc.e <= thr.report_evalue;
  if (reported) {
    h.seq_index = s;
    h.name = std::string(src.name(s));
    h.fwd_bits = sc.bits;
    h.bias_bits = bias_nats / static_cast<float>(M_LN2);
    h.pvalue = sc.p;
    h.evalue = sc.e;
    if (thr.compute_alignments)
      h.alignments = cpu::trace_alignments(trace, prof, codes);
  }
  stage_s[kFwd] += t.seconds();
  if (reported && thr.define_domains) {
    // Checkpointed Forward/Backward on the scanner's vectorized tier:
    // decode fills the occupancy track, envelope definition and
    // rescoring run on it directly.  Banked as its own stage (kBwd).
    t.reset();
    scanner.decode(w, codes, L, ws.mocc);
    h.domains =
        cpu::domains_from_occupancy(prof, codes, L, ws.mocc.data(), ws.trace);
    stage_s[kBwd] += t.seconds();
  }
  return reported;
}

// --- Telemetry plumbing -------------------------------------------------
//
// Stage busy time and items are accumulated into per-worker slots
// (cacheline-sized, written only by the owning worker, merged serially
// after the crew joins) on every run: the sweep core's StageStats::seconds
// are exactly this merge, and every engine's telemetry reads it.  A
// recorder only adds trace spans.

struct alignas(64) WorkerClock {
  double stage_s[obs::kStageCount] = {};
  /// (query, non-empty sequence) pairs this worker scored, per stage.
  std::uint64_t items[obs::kStageCount] = {};
  std::uint64_t rescues = 0;        // help-first rescores (full ring)
  std::uint64_t decoded_bytes = 0;  // residues unpacked for word stages
};

std::uint64_t packed_stream_bytes(const ScanSource& src) {
  std::uint64_t bytes = 0;
  for (std::size_t s = 0; s < src.size(); ++s)
    bytes += (src.length(s) + bio::kResiduesPerWord - 1) /
             bio::kResiduesPerWord * sizeof(std::uint32_t);
  return bytes;
}

/// The one snapshot builder every engine finishes with: database shape,
/// byte accounting, and one row per active stage totalled over the
/// scan's `k` queries (wall == busy; the sweep core zeroes the walls).
/// The byte stages are one pass shared by every query, so their row
/// takes that pass's time, the largest per-query time (a query without
/// SSV reads 0 there); the word stages sum.
obs::ScanTelemetry make_telemetry(const ScanSource& src, std::size_t threads,
                                  const SearchResult* results, std::size_t k,
                                  double wall_s, bool use_ssv, bool use_bwd) {
  obs::ScanTelemetry t;
  t.threads = threads;
  t.sequences = src.size();
  t.residues = src.total_residues();
  t.wall_seconds = wall_s;
  t.zero_copy = src.zero_copy();
  if (src.zero_copy())
    t.mapped_bytes = packed_stream_bytes(src);
  else
    t.heap_bytes = src.total_residues();
  const auto add = [&](const char* name, StageStats SearchResult::*stage,
                       bool shared) {
    obs::StageTelemetry st;
    st.stage = name;
    for (std::size_t q = 0; q < k; ++q) {
      const StageStats& s = results[q].*stage;
      st.n_in += s.n_in;
      st.n_passed += s.n_passed;
      st.cells += s.cells;
      st.busy_seconds = shared ? std::max(st.busy_seconds, s.seconds)
                               : st.busy_seconds + s.seconds;
    }
    st.wall_seconds = st.busy_seconds;
    t.stages.push_back(std::move(st));
  };
  if (use_ssv) add("ssv", &SearchResult::ssv, true);
  add("msv", &SearchResult::msv, true);
  add("vit", &SearchResult::vit, false);
  add("fwd", &SearchResult::fwd, false);
  if (use_bwd) add("bwd", &SearchResult::bwd, false);
  return t;
}

/// Per-thread rows from the engine clocks and, with a recorder attached,
/// its span tallies.
void fill_threads(obs::ScanTelemetry& t, std::size_t crew,
                  const WorkerClock* clocks, const obs::Recorder* rec) {
  t.per_thread.resize(crew);
  for (std::size_t w = 0; w < crew; ++w) {
    obs::ThreadTelemetry& row = t.per_thread[w];
    row.thread = static_cast<std::uint32_t>(w);
    for (int s = 0; s < obs::kStageCount; ++s) {
      row.stage_busy_seconds[s] = clocks[w].stage_s[s];
      row.stage_items[s] = clocks[w].items[s];
      row.sequences_scored += clocks[w].items[s];
    }
    row.help_first_rescues = clocks[w].rescues;
    row.decoded_bytes = clocks[w].decoded_bytes;
    if (rec != nullptr && w < rec->threads()) {
      row.spans = rec->log_at(w).events().size();
      row.spans_dropped = rec->log_at(w).spans_dropped();
    }
    t.decoded_bytes += row.decoded_bytes;
  }
}

// --- Sweep core state ----------------------------------------------------

/// One byte-stage group of queries: a shared lane-packed table plus one
/// filter (DP state) per worker.  A plan's fuse group, or one query alone.
struct FuseGroup {
  std::vector<std::size_t> members;  // query indices, table member order
  std::unique_ptr<cpu::FusedMsvGroup> table;
  std::vector<std::unique_ptr<cpu::FusedMsvFilter>> filters;
  bool any_ssv = false;
};

/// One rescored (query, sequence) survivor.  Results are stored per
/// survivor — per-pair state stays at the two byte-stage keep bytes.
struct Survivor {
  std::uint64_t key = 0;  // query << 32 | sequence
  bool vit_pass = false;
  bool reported = false;
  double stage_s[obs::kStageCount] = {};  // this survivor's busy time
  Hit hit;
};

struct SweepWorker {
  WordScratch words;
  std::vector<cpu::FilterResult> group_scores;  // one fuse group's members
  std::vector<std::uint32_t> passed;  // queries whose MSV gate s passed
  std::vector<Survivor> found;        // survivors this worker rescored
};

}  // namespace

SearchResult HmmSearch::run_cpu(ScanSource src) const {
  SearchResult out;
  obs::Recorder* rec = recorder_;
  if (rec) rec->reserve_threads(1);
  Timer total;
  Timer timer;
  BatchScanner scanner(msv_, vit_, &fwd_, /*workers=*/1);
  WorkerClock clock;  // the one worker's busy time and items

  // ---- Stage 0 (optional): SSV pre-filter ----
  // Zero-length sequences cannot match; every engine counts them into the
  // first active stage's n_in and fails them there without scoring.
  std::vector<std::size_t> candidates;
  if (thr_.use_ssv_prefilter) {
    OBS_SPAN(rec, 0, "ssv");
    out.ssv.n_in = src.size();
    for (std::size_t s = 0; s < src.size(); ++s) {
      const std::size_t L = src.length(s);
      if (L == 0) continue;
      ++clock.items[kSsv];
      out.ssv.cells += static_cast<double>(L) * msv_.length();
      if (byte_gate(stats_.ssv, thr_.ssv_p, ssv_score(scanner, 0, src, s, L),
                    L))
        candidates.push_back(s);
    }
    out.ssv.n_passed = candidates.size();
    out.ssv.seconds = timer.seconds();
    timer.reset();
  } else {
    candidates.resize(src.size());
    std::iota(candidates.begin(), candidates.end(), std::size_t{0});
  }

  // ---- Stage 1: MSV ----
  std::vector<std::size_t> msv_pass;
  out.msv.n_in = candidates.size();
  {
    OBS_SPAN(rec, 0, "msv");
    for (std::size_t s : candidates) {
      const std::size_t L = src.length(s);
      if (L == 0) continue;
      ++clock.items[kMsv];
      out.msv.cells += static_cast<double>(L) * msv_.length();
      if (byte_gate(stats_.msv, thr_.msv_p, msv_score(scanner, 0, src, s, L),
                    L))
        msv_pass.push_back(s);
    }
  }
  out.msv.n_passed = msv_pass.size();
  out.msv.seconds = timer.seconds();

  // ---- Stage 2: P7Viterbi over the MSV survivors ----
  timer.reset();
  std::vector<std::size_t> vit_pass;
  std::vector<float> vit_bits_pass;
  out.vit.n_in = msv_pass.size();
  std::vector<std::uint8_t> scratch;
  if (src.zero_copy()) scratch.resize(src.max_length());
  {
    OBS_SPAN(rec, 0, "vit");
    for (std::size_t s : msv_pass) {
      const std::size_t L = src.length(s);
      const std::uint8_t* codes = src.fetch_codes(s, scratch.data());
      auto r = scanner.vit(0, codes, L);
      float bits = hmm::nats_to_bits(r.score_nats, static_cast<int>(L));
      out.vit.cells += static_cast<double>(L) * vit_.length();
      if (stats_.vit_pvalue(bits) <= thr_.vit_p) {
        vit_pass.push_back(s);
        vit_bits_pass.push_back(bits);
      }
    }
  }
  out.vit.n_passed = vit_pass.size();
  out.vit.seconds = timer.seconds();

  forward_stage(src, scanner, vit_pass, vit_bits_pass, out);

  out.telemetry = make_telemetry(src, 1, &out, 1, total.seconds(),
                                 thr_.use_ssv_prefilter, thr_.define_domains);
  out.telemetry->engine = "cpu_serial";
  // Serial engine: one thread, busy == wall per stage.  Every word-stage
  // entrant is one scored (non-empty) sequence.
  clock.items[kVit] = out.vit.n_in;
  clock.items[kFwd] = out.fwd.n_in;
  clock.items[kBwd] = out.bwd.n_in;
  clock.stage_s[kSsv] = out.ssv.seconds;
  clock.stage_s[kMsv] = out.msv.seconds;
  clock.stage_s[kVit] = out.vit.seconds;
  clock.stage_s[kFwd] = out.fwd.seconds;
  clock.stage_s[kBwd] = out.bwd.seconds;
  fill_threads(*out.telemetry, 1, &clock, rec);
  return out;
}

SearchResult HmmSearch::run_cpu_overlapped(ScanSource src,
                                          std::size_t threads) const {
  ThreadPool pool(threads);
  return run_cpu_overlapped(src, pool);
}

SearchResult HmmSearch::run_cpu_overlapped(ScanSource src,
                                          ThreadPool& pool) const {
  Sweep sweep({this}, src, pool, nullptr, nullptr, recorder_);
  sweep.advance(pool);
  CoalescedScan scan = sweep.finish();
  SearchResult out = std::move(scan.per_model[0]);
  scan.telemetry.engine = "cpu_overlapped";
  // One query in one pass: the batch counters say nothing here.
  for (auto& st : scan.telemetry.stages) st.counters.clear();
  out.telemetry = std::move(scan.telemetry);
  return out;
}

HmmSearch::CoalescedScan HmmSearch::run_cpu_coalesced(
    const std::vector<const HmmSearch*>& searches, ScanSource src,
    ThreadPool& pool, const hmm::FusePlan* plan,
    const ScanSchedule* schedule, obs::Recorder* rec) {
  Sweep sweep(searches, src, pool, plan, schedule, rec);
  sweep.advance(pool);
  return sweep.finish();
}

hmm::FusePlan plan_fusion(const std::vector<const HmmSearch*>& searches) {
  std::vector<int> lengths;
  lengths.reserve(searches.size());
  for (const HmmSearch* hs : searches)
    lengths.push_back(hs->msv_profile().length());
  return hmm::plan_model_groups(lengths, active_u8_lanes());
}

// --- The sweep core -------------------------------------------------------

struct HmmSearch::Sweep::State {
  static constexpr std::size_t kChunk = 16;

  std::vector<const HmmSearch*> queries;
  ScanSource src;
  std::size_t k, n, crew;
  const hmm::FusePlan* plan;
  obs::Recorder* rec;
  ScanSchedule local;
  const ScanSchedule* schedule;

  // Per-query scanners own each query's word-stage DP state per worker;
  // model parameters are immutable and shared across the crew.  Every
  // worker can run any stage of any query; Viterbi and Forward state are
  // built on a worker's first call, so queries without survivors skip it.
  std::vector<std::unique_ptr<BatchScanner>> scanners;
  bool any_ssv = false, any_domains = false;
  std::vector<FuseGroup> groups;
  std::vector<SweepWorker> workers;

  // Per-pair state: two keep bytes per (query, sequence), row q = query q.
  // ssv_keep stays 1 for queries without the SSV stage.
  std::vector<std::uint8_t> ssv_keep, msv_keep;

  // Stage busy time banks into per-worker clocks; each survivor also
  // carries its own word-stage times so the replay can attribute them
  // per query.  Neither is written by two threads.
  std::vector<WorkerClock> clocks;

  // Schedule position: the next chunk any advance fetches.  Chunks are
  // fetched whole and scored to the end, so everything below the cursor
  // is done once an advance returns.
  std::atomic<std::size_t> cursor{0};
  std::size_t queue_capacity;
  BoundedMpmcQueue<std::uint64_t>::Stats queue_stats;  // over every advance
  double wall_s = 0.0;  // setup + advances + replay

  State(const std::vector<const HmmSearch*>& qs, ScanSource source,
        std::size_t crew_size, const hmm::FusePlan* fuse_plan,
        const ScanSchedule* cached, obs::Recorder* recorder)
      : queries(qs),
        src(source),
        k(qs.size()),
        n(source.size()),
        crew(crew_size),
        plan(fuse_plan),
        rec(recorder),
        schedule(cached),
        workers(crew_size),
        ssv_keep(k * n, 1),
        msv_keep(k * n, 0),
        clocks(crew_size),
        queue_capacity(std::max<std::size_t>(64, 8 * crew_size)) {
    FH_REQUIRE(!queries.empty(), "coalesced scan needs at least one query");
    for (const HmmSearch* hs : queries)
      FH_REQUIRE(hs != nullptr, "coalesced scan given a null query");
    if (schedule == nullptr) {
      local = make_length_schedule(
          n, [this](std::size_t i) { return src.length(i); });
      schedule = &local;
    }
    FH_REQUIRE(schedule->order.size() == n,
               "scan schedule built for a different database");
    for (const HmmSearch* hs : queries) {
      scanners.push_back(
          std::make_unique<BatchScanner>(hs->msv_, hs->vit_, &hs->fwd_, crew));
      any_ssv = any_ssv || hs->thr_.use_ssv_prefilter;
      any_domains = any_domains || hs->thr_.define_domains;
    }
    build_groups();
    for (SweepWorker& me : workers) {
      me.passed.reserve(k);
      if (src.zero_copy()) me.words.codes.resize(src.max_length());
    }
  }

  bool ssv_on(std::size_t q) const {
    return queries[q]->thr_.use_ssv_prefilter;
  }

  void add_group(std::vector<std::size_t> members,
                 std::unique_ptr<cpu::FusedMsvGroup> table) {
    FuseGroup& g = groups.emplace_back();
    g.members = std::move(members);
    g.table = std::move(table);
    for (std::size_t w = 0; w < crew; ++w)
      g.filters.push_back(std::make_unique<cpu::FusedMsvFilter>(*g.table));
    for (std::size_t q : g.members) g.any_ssv = g.any_ssv || ssv_on(q);
    for (SweepWorker& me : workers)
      if (me.group_scores.size() < g.members.size())
        me.group_scores.resize(g.members.size());
  }

  // Byte-stage routing: every query's SSV/MSV runs through one fuse
  // group — the plan's groups as planned, every other query as a
  // one-member group (the single-model striped layout) — so one loop per
  // stage scores them all through the one byte-stage kernel.
  void build_groups() {
    const int lane_width = active_u8_lanes();
    const auto add_alone = [&](std::size_t q) {
      add_group({q}, std::make_unique<cpu::FusedMsvGroup>(queries[q]->msv_,
                                                          lane_width));
    };
    if (plan == nullptr) {
      for (std::size_t q = 0; q < k; ++q) add_alone(q);
      return;
    }
    FH_REQUIRE(plan->lane_width == lane_width,
               "fuse plan built for a different lane width");
    std::vector<std::uint8_t> seen(k, 0);
    const auto mark = [&](std::size_t q) {
      FH_REQUIRE(q < k && !seen[q],
                 "fuse plan does not cover the model list exactly once");
      seen[q] = 1;
    };
    for (const hmm::GroupShape& shape : plan->groups) {
      std::vector<const profile::MsvProfile*> profs;
      for (std::size_t q : shape.members) {
        mark(q);
        profs.push_back(&queries[q]->msv_);
      }
      add_group(shape.members, std::make_unique<cpu::FusedMsvGroup>(
                                   std::move(profs), lane_width, shape.Q));
    }
    for (std::size_t q : plan->unfused) {
      mark(q);
      add_alone(q);
    }
    FH_REQUIRE(std::find(seen.begin(), seen.end(), 0) == seen.end(),
               "fuse plan misses a model");
  }

  void rescore(std::size_t w, std::uint64_t key) {
    OBS_SPAN(rec, w, "rescore");
    const std::size_t q = key >> 32;
    const std::size_t s = key & 0xffffffffu;
    const HmmSearch& hs = *queries[q];
    BatchScanner& scanner = *scanners[q];
    SweepWorker& me = workers[w];
    WorkerClock& clock = clocks[w];
    const std::size_t L = src.length(s);
    const std::uint8_t* codes = src.fetch_codes(s, me.words.codes.data());
    if (src.zero_copy()) clock.decoded_bytes += L;
    Survivor& sv = me.found.emplace_back();
    sv.key = key;
    Timer t;
    const cpu::FilterResult r = scanner.vit(w, codes, L);
    sv.stage_s[kVit] = t.seconds();
    ++clock.items[kVit];
    const float bits = hmm::nats_to_bits(r.score_nats, static_cast<int>(L));
    if (hs.stats_.vit_pvalue(bits) <= hs.thr_.vit_p) {
      sv.vit_pass = true;
      sv.hit.vit_bits = bits;
      sv.reported = rescore_survivor(hs, scanner, w, me.words, src, s, codes,
                                     sv.hit, sv.stage_s);
      ++clock.items[kFwd];
      // rescore_survivor decodes exactly the reported hits of a query
      // that defines domains.
      if (sv.reported && hs.thr_.define_domains) ++clock.items[kBwd];
    }
    for (int st = 0; st < obs::kStageCount; ++st)
      clock.stage_s[st] += sv.stage_s[st];
  }

  // The byte stage of sequence s for every query: SSV for all queries
  // that use it, then MSV for every query SSV kept, one fuse group at a
  // time.  Per query the gate decisions are exactly run_cpu's, so the
  // replay reproduces its hits.  Every (query, sequence) survivor flows
  // through one bounded queue to whichever worker goes idle first.
  // try_push backpressure is "help-first": a producer facing a full ring
  // rescores one queued survivor itself, so the crew cannot deadlock and
  // the queue stays a fixed ring.
  void byte_stage(std::size_t w, std::size_t s,
                  BoundedMpmcQueue<std::uint64_t>& queue) {
    SweepWorker& me = workers[w];
    WorkerClock& clock = clocks[w];
    const std::size_t L = src.length(s);
    if (L == 0) {
      // Zero-length sequences fail the first active stage unscored.
      for (std::size_t q = 0; q < k; ++q)
        if (ssv_on(q)) ssv_keep[q * n + s] = 0;
      return;
    }
    const auto fused = [&](cpu::FusedMsvFilter& f, bool ssv) {
      cpu::FilterResult* out = me.group_scores.data();
      if (src.zero_copy())
        ssv ? f.ssv(src.packed(s), L, out) : f.msv(src.packed(s), L, out);
      else
        ssv ? f.ssv(src.codes(s), L, out) : f.msv(src.codes(s), L, out);
      return out;
    };
    Timer t;
    if (any_ssv) {
      for (FuseGroup& g : groups) {
        if (!g.any_ssv) continue;
        const cpu::FilterResult* r = fused(*g.filters[w], true);
        for (std::size_t i = 0; i < g.members.size(); ++i) {
          const std::size_t q = g.members[i];
          if (!ssv_on(q)) continue;
          ++clock.items[kSsv];
          const HmmSearch& hs = *queries[q];
          if (!byte_gate(hs.stats_.ssv, hs.thr_.ssv_p, r[i], L))
            ssv_keep[q * n + s] = 0;
        }
      }
      clock.stage_s[kSsv] += t.seconds();
      t.reset();
    }
    me.passed.clear();
    const auto live = [&](std::size_t q) { return ssv_keep[q * n + s] != 0; };
    for (FuseGroup& g : groups) {
      if (std::none_of(g.members.begin(), g.members.end(), live))
        continue;  // every member shed by SSV
      const cpu::FilterResult* r = fused(*g.filters[w], false);
      for (std::size_t i = 0; i < g.members.size(); ++i) {
        const std::size_t q = g.members[i];
        if (!live(q)) continue;
        ++clock.items[kMsv];
        const HmmSearch& hs = *queries[q];
        if (!byte_gate(hs.stats_.msv, hs.thr_.msv_p, r[i], L)) continue;
        msv_keep[q * n + s] = 1;
        me.passed.push_back(static_cast<std::uint32_t>(q));
      }
    }
    clock.stage_s[kMsv] += t.seconds();

    for (std::uint32_t q : me.passed) {
      const std::uint64_t key = std::uint64_t{q} << 32 | s;
      while (!queue.try_push(key)) {
        std::uint64_t other;
        if (queue.try_pop(other)) {
          ++clock.rescues;
          rescore(w, other);
        }
      }
    }
  }

  void advance(ThreadPool& pool, const std::function<bool()>& yield) {
    FH_REQUIRE(pool.workers() == crew,
               "sweep advanced on a pool of a different size");
    Timer timer;
    BoundedMpmcQueue<std::uint64_t> queue(queue_capacity);
    std::atomic<std::size_t> producing{crew};
    std::atomic<bool> stop{false};
    // True when no worker may fetch another chunk: a worker saw the
    // predicate fire, or polls it now.
    const auto yielding = [&] {
      if (stop.load(std::memory_order_relaxed)) return true;
      if (!yield || !yield()) return false;
      stop.store(true, std::memory_order_relaxed);
      return true;
    };
    pool.run_workers(crew, [&](std::size_t w) {
      {
        // The last producer out closes the queue, which wakes every
        // drainer for the final pops — also when a sweep throws, so the
        // crew still joins and run_workers can rethrow.
        struct Leave {
          std::atomic<std::size_t>& producing;
          BoundedMpmcQueue<std::uint64_t>& queue;
          ~Leave() {
            if (producing.fetch_sub(1, std::memory_order_acq_rel) == 1)
              queue.close();
          }
        } leave{producing, queue};
        // Each worker scores one chunk before it polls: every advance
        // makes progress, and on the whole crew at once — a yield never
        // leaves workers idle behind one worker's chunk.
        for (bool first = true; first || !yielding(); first = false) {
          const std::size_t begin =
              cursor.fetch_add(kChunk, std::memory_order_relaxed);
          if (begin >= n) break;
          const std::size_t end = std::min(begin + kChunk, n);
          OBS_SPAN(rec, w, "produce.chunk");
          for (std::size_t idx = begin; idx < end; ++idx) {
            if (idx + 1 < end) src.prefetch(schedule->order[idx + 1]);
            byte_stage(w, schedule->order[idx], queue);
          }
        }
      }
      // Drain: sleep (not spin — co-located shard daemons keep the cores)
      // until a survivor arrives or the closed queue runs dry.
      OBS_SPAN(rec, w, "drain");
      std::uint64_t key;
      for (;;) {
        const PopStatus st =
            queue.pop_wait(key, std::chrono::milliseconds(50));
        if (st == PopStatus::kClosed) break;
        if (st == PopStatus::kItem) rescore(w, key);
      }
    });
    FINEHMM_CHECK(queue.empty(), "sweep left survivors queued");
    const auto qs = queue.stats();
    queue_stats.pushes += qs.pushes;
    queue_stats.pops += qs.pops;
    queue_stats.push_failures += qs.push_failures;
    queue_stats.max_depth = std::max(queue_stats.max_depth, qs.max_depth);
    wall_s += timer.seconds();
  }

  bool done() const { return cursor.load(std::memory_order_relaxed) >= n; }

  CoalescedScan finish() {
    FH_REQUIRE(done(), "sweep finished before it covered the database");
    Timer timer;
    // ---- Serial replay in (query, sequence) order: output identical to
    // run_cpu regardless of which worker rescored what, when.
    std::vector<Survivor*> found;
    for (SweepWorker& me : workers)
      for (Survivor& sv : me.found) found.push_back(&sv);
    std::sort(found.begin(), found.end(),
              [](const Survivor* a, const Survivor* b) {
                return a->key < b->key;
              });
    double byte_s[2] = {0.0, 0.0};
    for (const WorkerClock& c : clocks) {
      byte_s[0] += c.stage_s[kSsv];
      byte_s[1] += c.stage_s[kMsv];
    }
    CoalescedScan out;
    out.per_model.resize(k);
    std::size_t next = 0;
    for (std::size_t q = 0; q < k; ++q) {
      const HmmSearch& hs = *queries[q];
      SearchResult& res = out.per_model[q];
      res.msv.n_in = n;
      for (std::size_t s = 0; s < n; ++s) {
        const double L = static_cast<double>(src.length(s));
        if (ssv_on(q)) {
          res.ssv.n_in += 1;
          res.ssv.cells += L * hs.msv_.length();
          if (!ssv_keep[q * n + s]) continue;
          res.ssv.n_passed += 1;
        }
        res.msv.cells += L * hs.msv_.length();
        if (!msv_keep[q * n + s]) continue;
        FH_REQUIRE(next < found.size() &&
                       found[next]->key == (std::uint64_t{q} << 32 | s),
                   "every MSV survivor is rescored exactly once");
        Survivor& sv = *found[next++];
        res.vit.n_in += 1;
        res.vit.cells += L * hs.vit_.length();
        res.vit.seconds += sv.stage_s[kVit];
        if (!sv.vit_pass) continue;
        res.vit.n_passed += 1;
        res.fwd.cells += L * hs.prof_.length();
        res.fwd.seconds += sv.stage_s[kFwd];
        if (!sv.reported) continue;
        if (hs.thr_.define_domains) {
          res.bwd.n_in += 1;
          res.bwd.n_passed += 1;
          res.bwd.cells += L * hs.prof_.length();
          res.bwd.seconds += sv.stage_s[kBwd];
        }
        res.hits.push_back(std::move(sv.hit));
      }
      if (ssv_on(q)) {
        res.msv.n_in = res.ssv.n_passed;
        res.ssv.seconds = byte_s[0];
      }
      res.msv.n_passed = res.vit.n_in;
      res.msv.seconds = byte_s[1];
      res.fwd.n_in = res.vit.n_passed;
      res.fwd.n_passed = res.hits.size();
      sort_hits(res.hits);
    }
    FH_REQUIRE(next == found.size(), "a survivor was rescored twice");

    obs::ScanTelemetry& t = out.telemetry;
    t = make_telemetry(src, crew, out.per_model.data(), k,
                       wall_s + timer.seconds(), any_ssv, any_domains);
    t.engine = plan != nullptr ? "cpu_fused" : "cpu_coalesced";
    // Stages overlap by design, so no per-stage wall clock exists.
    for (auto& st : t.stages) {
      st.wall_seconds = 0.0;
      if (st.stage != "msv") continue;
      st.counters.emplace_back("batch.queries", static_cast<double>(k));
      st.counters.emplace_back("batch.sweeps", 1.0);
      if (plan == nullptr) continue;
      st.counters.emplace_back("fuse.groups",
                               static_cast<double>(plan->groups.size()));
      st.counters.emplace_back("fuse.fused_models",
                               static_cast<double>(plan->fused_models()));
      st.counters.emplace_back("fuse.models_per_group",
                               plan->models_per_group());
      st.counters.emplace_back("fuse.lane_occupancy", plan->lane_occupancy());
    }
    obs::QueueTelemetry qt;
    qt.capacity = queue_capacity;
    qt.enqueued = queue_stats.pushes;
    qt.dequeued = queue_stats.pops;
    qt.enqueue_stalls = queue_stats.push_failures;
    qt.max_depth = queue_stats.max_depth;
    for (const WorkerClock& c : clocks) qt.help_first_rescues += c.rescues;
    t.queue = qt;
    t.buckets.reserve(schedule->bucket_sequences.size());
    for (std::size_t b = 0; b < schedule->bucket_sequences.size(); ++b)
      t.buckets.push_back(obs::BucketTelemetry{
          schedule->bucket_sequences[b], schedule->bucket_residues[b]});
    fill_threads(t, crew, clocks.data(), rec);
    return out;
  }
};

HmmSearch::Sweep::Sweep(const std::vector<const HmmSearch*>& queries,
                        ScanSource src, const ThreadPool& pool,
                        const hmm::FusePlan* plan,
                        const ScanSchedule* schedule, obs::Recorder* rec) {
  Timer setup;
  const std::size_t crew = pool.workers();
  if (rec) rec->reserve_threads(crew);
  state_ = std::make_unique<State>(queries, src, crew, plan, schedule, rec);
  state_->wall_s += setup.seconds();
}

HmmSearch::Sweep::~Sweep() = default;

bool HmmSearch::Sweep::advance(ThreadPool& pool,
                               const std::function<bool()>& yield) {
  state_->advance(pool, yield);
  return state_->done();
}

HmmSearch::CoalescedScan HmmSearch::Sweep::finish() {
  return state_->finish();
}

namespace {

template <class Profile>
using GpuStageFn = gpu::StageResult (gpu::GpuSearch::*)(
    const Profile&, const bio::PackedDatabase&, gpu::ParamPlacement,
    const std::vector<std::size_t>*) const;

/// One GPU filter stage over `items` (ascending ids of non-empty
/// sequences), split across `devs` by residues; a null `placement` asks
/// the occupancy policy per device.  The slices are contiguous, so
/// `gate(s, score, overflowed)` sees the items in their original order
/// for any device count.  Returns the SIMT counters summed over devices.
template <class Profile, class Gate>
simt::PerfCounters gpu_stage(const std::vector<simt::DeviceSpec>& devs,
                             GpuStageFn<Profile> run, const Profile& prof,
                             const bio::PackedDatabase& packed,
                             const std::vector<std::size_t>& items,
                             std::optional<gpu::ParamPlacement> placement,
                             Gate gate) {
  constexpr gpu::Stage kind = std::is_same_v<Profile, profile::MsvProfile>
                                  ? gpu::Stage::kMsv
                                  : gpu::Stage::kViterbi;
  simt::PerfCounters sum;
  const auto parts = gpu::partition_by_residues(packed, devs.size(), &items);
  for (std::size_t d = 0; d < devs.size(); ++d) {
    if (parts[d].empty()) continue;
    const gpu::ParamPlacement p =
        placement ? *placement
                  : gpu::choose_placement(kind, prof.length(), devs[d])
                        .placement;
    const gpu::StageResult r =
        (gpu::GpuSearch(devs[d]).*run)(prof, packed, p, &parts[d]);
    for (std::size_t i = 0; i < parts[d].size(); ++i)
      gate(parts[d][i], r.scores[i], !r.overflow.empty() && r.overflow[i]);
    sum.merge(r.counters);
  }
  return sum;
}

}  // namespace

SearchResult HmmSearch::run_gpu(
    const std::vector<simt::DeviceSpec>& devs,
    const bio::SequenceDatabase& db, const bio::PackedDatabase& packed,
    std::optional<gpu::ParamPlacement> placement) const {
  FH_REQUIRE(!devs.empty(), "need at least one device");
  FH_REQUIRE(packed.size() == db.size(), "packed database mismatch");
  SearchResult out;
  obs::Recorder* rec = recorder_;
  if (rec) rec->reserve_threads(1);
  std::vector<std::pair<const char*, simt::PerfCounters>> simt_rows;
  Timer total;
  Timer timer;
  // Closes a filter stage: survivors, cells, wall clock, SIMT counters.
  // Cells are L x M per scored sequence, as the CPU engines count them;
  // the SIMT counters (which stop at an overflow) ride as counters.
  const auto finish = [&](const char* row, StageStats& st, int M,
                          const std::vector<std::size_t>& scored,
                          std::size_t n_passed, const simt::PerfCounters& c) {
    st.n_passed = n_passed;
    for (std::size_t s : scored)
      st.cells += static_cast<double>(db[s].length()) * M;
    st.seconds = timer.seconds();
    timer.reset();
    simt_rows.emplace_back(row, c);
  };
  // SSV and MSV: the byte gate run_cpu applies; `items` becomes the
  // survivors.
  const auto byte_stage = [&](const char* row, StageStats& st,
                              GpuStageFn<profile::MsvProfile> run,
                              const stats::Gumbel& null, double p_max,
                              std::vector<std::size_t>& items) {
    std::vector<std::size_t> pass;
    const simt::PerfCounters c = gpu_stage(
        devs, run, msv_, packed, items, placement,
        [&](std::size_t s, float score, bool overflowed) {
          if (byte_gate(null, p_max, {score, overflowed}, db[s].length()))
            pass.push_back(s);
        });
    finish(row, st, msv_.length(), items, pass.size(), c);
    items.swap(pass);
  };

  // Zero-length sequences cannot match: as in run_cpu they count into the
  // first active stage's n_in and fail there, never reaching a kernel.
  std::vector<std::size_t> items;
  for (std::size_t s = 0; s < db.size(); ++s)
    if (db[s].length() > 0) items.push_back(s);
  out.msv.n_in = db.size();
  if (thr_.use_ssv_prefilter) {
    OBS_SPAN(rec, 0, "gpu.ssv");
    out.ssv.n_in = db.size();
    byte_stage("ssv", out.ssv, &gpu::GpuSearch::run_ssv, stats_.ssv,
               thr_.ssv_p, items);
    out.msv.n_in = items.size();
  }
  {
    OBS_SPAN(rec, 0, "gpu.msv");
    byte_stage("msv", out.msv, &gpu::GpuSearch::run_msv, stats_.msv,
               thr_.msv_p, items);
  }

  out.vit.n_in = items.size();
  std::vector<std::size_t> vit_pass;
  std::vector<float> vit_bits;
  {
    OBS_SPAN(rec, 0, "gpu.vit");
    const simt::PerfCounters c = gpu_stage(
        devs, &gpu::GpuSearch::run_vit, vit_, packed, items, placement,
        [&](std::size_t s, float score, bool) {
          const float bits =
              hmm::nats_to_bits(score, static_cast<int>(db[s].length()));
          if (stats_.vit_pvalue(bits) <= thr_.vit_p) {
            vit_pass.push_back(s);
            vit_bits.push_back(bits);
          }
        });
    finish("vit", out.vit, vit_.length(), items, vit_pass.size(), c);
  }

  BatchScanner scanner(msv_, vit_, &fwd_, /*workers=*/1);
  forward_stage(db, scanner, vit_pass, vit_bits, out);

  out.telemetry = make_telemetry(db, 1, &out, 1, total.seconds(),
                                 thr_.use_ssv_prefilter, thr_.define_domains);
  out.telemetry->engine = "gpu_sim";
  // The SIMT counters ride on the shared stage rows, so device runs read
  // through the same schema.
  for (auto& st : out.telemetry->stages)
    for (const auto& [row, c] : simt_rows)
      if (st.stage == row) st.counters = obs::counters_kv(c);
  return out;
}

void HmmSearch::forward_stage(ScanSource src, BatchScanner& scanner,
                              const std::vector<std::size_t>& survivors,
                              const std::vector<float>& vit_bits,
                              SearchResult& out) const {
  OBS_SPAN(recorder_, 0, "fwd");
  out.fwd.n_in = survivors.size();
  WordScratch ws;
  if (src.zero_copy()) ws.codes.resize(src.max_length());
  double stage_s[obs::kStageCount] = {};
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    const std::size_t s = survivors[i];
    const std::size_t L = src.length(s);
    const std::uint8_t* codes = src.fetch_codes(s, ws.codes.data());
    out.fwd.cells += static_cast<double>(L) * prof_.length();
    Hit h;
    h.vit_bits = vit_bits[i];
    if (!rescore_survivor(*this, scanner, 0, ws, src, s, codes, h, stage_s))
      continue;
    if (thr_.define_domains) {
      out.bwd.n_in += 1;
      out.bwd.n_passed += 1;
      out.bwd.cells += static_cast<double>(L) * prof_.length();
    }
    out.hits.push_back(std::move(h));
    ++out.fwd.n_passed;
  }
  // The decode share of the rescore belongs to the bwd stage, not fwd.
  out.fwd.seconds = stage_s[kFwd];
  out.bwd.seconds = stage_s[kBwd];
  sort_hits(out.hits);
}

}  // namespace finehmm::pipeline
