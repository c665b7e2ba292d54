// The obs telemetry subsystem: span recording and nesting, the span
// budget, null-recorder zero-allocation, Chrome trace schema, rate
// guards, the structured JSON logger, Prometheus exposition hygiene, and
// the engines' telemetry invariants (every engine reports, queue
// accounting, per-thread merge).
//
// This file lives in its own test binary (finehmm_obs_tests): it replaces
// the global operator new/delete to count allocations, which must not
// leak into the other binaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "hmm/generator.hpp"
#include "obs/histogram.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/telemetry.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/workload.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}

// The replaced operators pair malloc with free by design; with the
// definitions visible in this TU, GCC 12 inlines callers and flags the
// free() as -Wmismatched-new-delete (it cannot know the replaced new is
// malloc-backed).  False positive for the global-replacement pattern.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow forms must be replaced too (std::stable_sort's temporary
// buffer uses them); otherwise their allocations would be freed by the
// replaced operator delete below — an alloc/dealloc mismatch under ASan.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace finehmm;

// ---------------------------------------------------------------- spans

TEST(Recorder, NestedSpansStayWithinParent) {
  obs::Recorder rec;
  rec.reserve_threads(1);
  {
    obs::ScopedSpan outer(&rec, 0, "outer");
    {
      obs::ScopedSpan inner(&rec, 0, "inner");
      OBS_SPAN(&rec, 0, "leaf");
    }
  }
  auto events = rec.merged_events();
  ASSERT_EQ(events.size(), 3u);
  // merged_events sorts by start time: outer opened first.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_STREQ(events[2].name, "leaf");
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].start_ns, events[0].start_ns);
    EXPECT_LE(events[i].start_ns + events[i].dur_ns,
              events[0].start_ns + events[0].dur_ns);
  }
}

TEST(Recorder, SpanBudgetDropsAreCounted) {
  obs::Recorder rec;
  rec.reserve_threads(2);
  const std::size_t over = 6;
  for (std::size_t i = 0; i < obs::kMaxSpansPerThread + over; ++i)
    OBS_SPAN(&rec, 1, "tick");
  EXPECT_EQ(rec.log_at(1).events().size(), obs::kMaxSpansPerThread);
  EXPECT_EQ(rec.log_at(1).spans_dropped(), over);
  EXPECT_EQ(rec.log_at(0).spans_dropped(), 0u);  // budgets are per thread
  EXPECT_EQ(rec.merged_events().size(), obs::kMaxSpansPerThread);
}

// --------------------------------------- no recorder attached: truly free

TEST(Recorder, DisabledModeAllocatesNothing) {
  // With no recorder attached every instrumentation site is one pointer
  // test: no log, no clock read, no allocation.
  obs::Recorder* null_rec = nullptr;

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    OBS_SPAN(null_rec, 0, "hot");
    obs::ScopedSpan s(null_rec, 7, "hot");
    { OBS_SPAN(null_rec, 3, "nested"); }
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
}

// --------------------------------------------------- exporters / rates

TEST(Telemetry, RateGuardsNeverEmitInf) {
  EXPECT_EQ(obs::json_rate(10.0, 0.0), "null");
  EXPECT_EQ(obs::json_rate(10.0, 1e-300), "null");  // denormal-ish elapsed
  EXPECT_EQ(obs::json_rate(std::nan(""), 1.0), "null");
  EXPECT_NE(obs::json_rate(10.0, 2.0), "null");
  EXPECT_DOUBLE_EQ(obs::safe_rate(10.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(obs::safe_rate(10.0, 2.0), 5.0);
  EXPECT_FALSE(obs::valid_rate(10.0, -1.0));
}

TEST(Telemetry, JsonSnapshotHasNoInfOrNan) {
  obs::ScanTelemetry t;
  t.engine = "cpu_serial";
  obs::StageTelemetry st;
  st.stage = "msv";
  st.cells = 1e9;
  st.wall_seconds = 0.0;  // a rate denominator of zero
  t.stages.push_back(st);
  std::ostringstream os;
  t.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"finehmm.scan_telemetry.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("null"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

/// Minimal structural JSON check: braces/brackets balance outside of
/// string literals and the text is non-empty.  Not a parser, but enough
/// to catch the classic trailing-comma / unterminated-string bugs.
bool json_balanced(const std::string& s) {
  int brace = 0, bracket = 0;
  bool in_string = false, escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped)
        escaped = false;
      else if (c == '\\')
        escaped = true;
      else if (c == '"')
        in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++brace;
    if (c == '}') --brace;
    if (c == '[') ++bracket;
    if (c == ']') --bracket;
    if (brace < 0 || bracket < 0) return false;
  }
  return !s.empty() && brace == 0 && bracket == 0 && !in_string;
}

TEST(Telemetry, ChromeTraceRoundTrip) {
  obs::Recorder rec;
  rec.reserve_threads(2);
  {
    obs::ScopedSpan a(&rec, 0, "produce.chunk");
    obs::ScopedSpan b(&rec, 1, "rescore");
  }
  std::ostringstream os;
  rec.write_chrome_trace(os);
  const std::string json = os.str();
  ASSERT_TRUE(json_balanced(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"produce.chunk\""), std::string::npos);
  EXPECT_NE(json.find("\"rescore\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  // One complete "X" event per recorded span.
  std::size_t x_events = 0;
  for (std::size_t pos = 0;
       (pos = json.find("\"ph\": \"X\"", pos)) != std::string::npos; ++pos)
    ++x_events;
  EXPECT_EQ(x_events, rec.merged_events().size());
}

TEST(Telemetry, PrometheusExportCoversTheFamilies) {
  obs::ScanTelemetry t;
  t.engine = "cpu_overlapped";
  t.wall_seconds = 1.5;
  obs::StageTelemetry st;
  st.stage = "vit";
  st.busy_seconds = 0.5;
  t.stages.push_back(st);
  obs::QueueTelemetry q;
  q.capacity = 64;
  t.queue = q;
  obs::MetricSet m;
  t.declare_metrics(m);
  const std::string text = m.prometheus();
  EXPECT_NE(text.find("finehmm_scan_wall_seconds"), std::string::npos);
  EXPECT_NE(text.find("finehmm_stage_seconds"), std::string::npos);
  EXPECT_NE(text.find("finehmm_queue_enqueued_total"), std::string::npos);
  EXPECT_NE(text.find("engine=\"cpu_overlapped\""), std::string::npos);
}

// ----------------------------------------- always-on histograms: free

TEST(Histogram, RecordingPathAllocatesNothing) {
  // The daemon records EVERY request into these — the path must never
  // touch the heap.  Construction, recording, snapshot, and quantile
  // math all run on inline storage.
  static obs::ConcurrentHistogram concurrent;  // ~30 KB, static storage
  static obs::Histogram plain;

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    concurrent.record(i * 977 + 13);
    plain.record(i * 977 + 13);
  }
  const obs::Histogram snap = concurrent.snapshot();
  const auto q = obs::latency_quantiles(snap);
  (void)plain.quantile(0.99);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
  EXPECT_EQ(q.count, 10000u);
}

// --------------------------------------------- prometheus exposition

TEST(Telemetry, PrometheusLabelEscaping) {
  // The exposition-format escapes for label values: backslash, double
  // quote, and newline.  Everything else passes through untouched.
  EXPECT_EQ(obs::prometheus_escape_label("plain-0.9"), "plain-0.9");
  EXPECT_EQ(obs::prometheus_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::prometheus_escape_label("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::prometheus_escape_label("a\nb"), "a\\nb");
  EXPECT_EQ(obs::prometheus_escape_label("\\\"\n"), "\\\\\\\"\\n");
  EXPECT_EQ(obs::prometheus_escape_label(""), "");
}

TEST(Telemetry, PrometheusEveryFamilyHasTypeAndHelp) {
  obs::ScanTelemetry t;
  t.engine = "cpu\"over\nlapped\\x";  // hostile label value
  t.wall_seconds = 1.5;
  obs::StageTelemetry st;
  st.stage = "vit";
  st.busy_seconds = 0.5;
  st.counters.push_back({"warp\\div\"ergence", 3.0});
  t.stages.push_back(st);
  obs::QueueTelemetry q;
  q.capacity = 64;
  t.queue = q;
  obs::MetricSet m;
  t.declare_metrics(m);
  const std::string text = m.prometheus();

  // Hostile engine name arrives escaped, never raw.
  EXPECT_NE(text.find("cpu\\\"over\\nlapped\\\\x"), std::string::npos);
  EXPECT_EQ(text.find("over\nlapped"), std::string::npos);

  // Every sample line's family must have been declared with # TYPE and
  // # HELP before any sample appears.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    const std::string family = line.substr(0, name_end);
    EXPECT_NE(text.find("# TYPE " + family + " "), std::string::npos)
        << "undeclared family: " << family;
    EXPECT_NE(text.find("# HELP " + family + " "), std::string::npos)
        << "family without help: " << family;
  }
  // The previously undeclared counter family is covered too, with its
  // counter key escaped.
  EXPECT_NE(text.find("# TYPE finehmm_stage_counter gauge"),
            std::string::npos);
  EXPECT_NE(text.find("counter=\"warp\\\\div\\\"ergence\""),
            std::string::npos);
}

TEST(Telemetry, PrometheusMatchesTheFrozenExposition) {
  // The scan families moved from a hand-written exporter to metric
  // declarations; scrapers must see the same bytes.  These goldens are
  // the hand-written exporter's output for the same structs: every
  // family (queue and stage counters included), a quoted engine name,
  // a zero-busy thread slot that is skipped, and the empty snapshot whose
  // optional families are absent and whose list families keep their
  // headers.
  obs::ScanTelemetry t;
  t.engine = "cpu_\"fused\"";
  t.threads = 2;
  t.sequences = 1234567;
  t.residues = 987654321;
  t.wall_seconds = 0.123456789;
  obs::StageTelemetry msv;
  msv.stage = "msv";
  msv.n_in = 1234567;
  msv.n_passed = 24691;
  msv.cells = 3.5e11;
  msv.wall_seconds = 0.1;
  msv.busy_seconds = 0.19876543;
  msv.counters = {{"batch.sweeps", 3}, {"batch.queries", 7}};
  obs::StageTelemetry vit;
  vit.stage = "vit";
  vit.n_in = 24691;
  vit.n_passed = 250;
  vit.cells = 7.25e9;
  vit.busy_seconds = 0.0421;
  t.stages = {msv, vit};
  obs::QueueTelemetry q;
  q.capacity = 256;
  q.enqueued = 24691;
  q.dequeued = 24691;
  q.enqueue_stalls = 12;
  q.help_first_rescues = 3;
  q.max_depth = 200;
  t.queue = q;
  t.buckets = {{1000, 500000}, {200, 20000}, {0, 0}};
  obs::ThreadTelemetry a;
  a.thread = 0;
  a.stage_busy_seconds[static_cast<int>(obs::Stage::kMsv)] = 0.1;
  a.stage_busy_seconds[static_cast<int>(obs::Stage::kVit)] = 0.02;
  obs::ThreadTelemetry b;
  b.thread = 1;
  b.stage_busy_seconds[static_cast<int>(obs::Stage::kMsv)] = 0.09876543;
  t.per_thread = {a, b};

  const auto exposition = [](const obs::ScanTelemetry& tel) {
    obs::MetricSet m;
    tel.declare_metrics(m);
    return m.prometheus();
  };
  EXPECT_EQ(exposition(t), R"(# HELP finehmm_scan_wall_seconds End-to-end scan wall clock in seconds.
# TYPE finehmm_scan_wall_seconds gauge
finehmm_scan_wall_seconds{engine="cpu_\"fused\""} 0.123457
# HELP finehmm_scan_sequences Database sequences covered by the scan.
# TYPE finehmm_scan_sequences gauge
finehmm_scan_sequences{engine="cpu_\"fused\""} 1234567
# HELP finehmm_scan_cells_total DP cells evaluated across all stages.
# TYPE finehmm_scan_cells_total counter
finehmm_scan_cells_total{engine="cpu_\"fused\""} 3.5725e+11
# HELP finehmm_stage_seconds Per-stage wall and merged busy seconds.
# TYPE finehmm_stage_seconds gauge
finehmm_stage_seconds{engine="cpu_\"fused\"",stage="msv",kind="wall"} 0.1
finehmm_stage_seconds{engine="cpu_\"fused\"",stage="msv",kind="busy"} 0.198765
finehmm_stage_seconds{engine="cpu_\"fused\"",stage="vit",kind="wall"} 0
finehmm_stage_seconds{engine="cpu_\"fused\"",stage="vit",kind="busy"} 0.0421
# HELP finehmm_stage_sequences Sequences entering and surviving each filter stage.
# TYPE finehmm_stage_sequences gauge
finehmm_stage_sequences{engine="cpu_\"fused\"",stage="msv",dir="in"} 1234567
finehmm_stage_sequences{engine="cpu_\"fused\"",stage="msv",dir="passed"} 24691
finehmm_stage_sequences{engine="cpu_\"fused\"",stage="vit",dir="in"} 24691
finehmm_stage_sequences{engine="cpu_\"fused\"",stage="vit",dir="passed"} 250
# HELP finehmm_stage_cells_total DP cells evaluated per stage.
# TYPE finehmm_stage_cells_total counter
finehmm_stage_cells_total{engine="cpu_\"fused\"",stage="msv"} 3.5e+11
finehmm_stage_cells_total{engine="cpu_\"fused\"",stage="vit"} 7.25e+09
# HELP finehmm_stage_counter Engine-specific per-stage counters (SIMT PerfCounters).
# TYPE finehmm_stage_counter gauge
finehmm_stage_counter{engine="cpu_\"fused\"",stage="msv",counter="batch.sweeps"} 3
finehmm_stage_counter{engine="cpu_\"fused\"",stage="msv",counter="batch.queries"} 7
# HELP finehmm_queue_enqueued_total Survivors pushed into the overlapped queue.
# TYPE finehmm_queue_enqueued_total counter
finehmm_queue_enqueued_total{engine="cpu_\"fused\""} 24691
# HELP finehmm_queue_dequeued_total Survivors drained from the overlapped queue.
# TYPE finehmm_queue_dequeued_total counter
finehmm_queue_dequeued_total{engine="cpu_\"fused\""} 24691
# HELP finehmm_queue_enqueue_stalls_total try_push rejections (ring full).
# TYPE finehmm_queue_enqueue_stalls_total counter
finehmm_queue_enqueue_stalls_total{engine="cpu_\"fused\""} 12
# HELP finehmm_queue_help_first_rescues_total Producers that drained one survivor themselves.
# TYPE finehmm_queue_help_first_rescues_total counter
finehmm_queue_help_first_rescues_total{engine="cpu_\"fused\""} 3
# HELP finehmm_queue_max_depth High-water occupancy of the overlapped queue.
# TYPE finehmm_queue_max_depth gauge
finehmm_queue_max_depth{engine="cpu_\"fused\""} 200
# HELP finehmm_thread_busy_seconds Per-worker busy seconds by stage.
# TYPE finehmm_thread_busy_seconds gauge
finehmm_thread_busy_seconds{engine="cpu_\"fused\"",thread="0",stage="msv"} 0.1
finehmm_thread_busy_seconds{engine="cpu_\"fused\"",thread="0",stage="vit"} 0.02
finehmm_thread_busy_seconds{engine="cpu_\"fused\"",thread="1",stage="msv"} 0.0987654
# HELP finehmm_bucket_sequences Sequences per geometric length bucket of the scan schedule.
# TYPE finehmm_bucket_sequences gauge
finehmm_bucket_sequences{engine="cpu_\"fused\"",bucket="0"} 1000
finehmm_bucket_sequences{engine="cpu_\"fused\"",bucket="1"} 200
finehmm_bucket_sequences{engine="cpu_\"fused\"",bucket="2"} 0
)");
  EXPECT_EQ(exposition(obs::ScanTelemetry{}), R"(# HELP finehmm_scan_wall_seconds End-to-end scan wall clock in seconds.
# TYPE finehmm_scan_wall_seconds gauge
finehmm_scan_wall_seconds{engine=""} 0
# HELP finehmm_scan_sequences Database sequences covered by the scan.
# TYPE finehmm_scan_sequences gauge
finehmm_scan_sequences{engine=""} 0
# HELP finehmm_scan_cells_total DP cells evaluated across all stages.
# TYPE finehmm_scan_cells_total counter
finehmm_scan_cells_total{engine=""} 0
# HELP finehmm_stage_seconds Per-stage wall and merged busy seconds.
# TYPE finehmm_stage_seconds gauge
# HELP finehmm_stage_sequences Sequences entering and surviving each filter stage.
# TYPE finehmm_stage_sequences gauge
# HELP finehmm_stage_cells_total DP cells evaluated per stage.
# TYPE finehmm_stage_cells_total counter
# HELP finehmm_thread_busy_seconds Per-worker busy seconds by stage.
# TYPE finehmm_thread_busy_seconds gauge
# HELP finehmm_bucket_sequences Sequences per geometric length bucket of the scan schedule.
# TYPE finehmm_bucket_sequences gauge
)");
}

// ------------------------------------------------- structured logging

TEST(Log, LevelNamesRoundTrip) {
  using L = obs::LogLevel;
  for (L level : {L::kDebug, L::kInfo, L::kWarn, L::kError, L::kOff})
    EXPECT_EQ(obs::parse_log_level(obs::log_level_name(level)), level);
  EXPECT_EQ(obs::parse_log_level("nonsense"), L::kOff);
}

TEST(Log, JsonEscapeCoversControlCharacters) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(obs::json_escape(std::string("\x01", 1)), "\\u0001");
}

TEST(Log, EmitsOneJsonLinePerEventAndFiltersByLevel) {
  std::ostringstream sink;
  obs::set_log_sink(&sink);
  obs::set_log_level(obs::LogLevel::kInfo);
  obs::log(obs::LogLevel::kDebug, "test.hidden");  // below threshold
  obs::log(obs::LogLevel::kWarn, "test.event",
           {{"name", std::string("a\"b\nc")},
            {"count", std::uint64_t{42}},
            {"delta", -7},
            {"ratio", 0.25},
            {"flag", true},
            {"broken", std::nan("")}});
  obs::set_log_level(obs::LogLevel::kOff);
  obs::set_log_sink(nullptr);

  const std::string text = sink.str();
  EXPECT_EQ(text.find("test.hidden"), std::string::npos);
  ASSERT_NE(text.find("test.event"), std::string::npos);
  EXPECT_NE(text.find("\"level\": \"warn\""), std::string::npos);
  EXPECT_NE(text.find("\"ts\": "), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"a\\\"b\\nc\""), std::string::npos);
  EXPECT_NE(text.find("\"count\": 42"), std::string::npos);
  EXPECT_NE(text.find("\"delta\": -7"), std::string::npos);
  EXPECT_NE(text.find("\"flag\": true"), std::string::npos);
  EXPECT_NE(text.find("\"broken\": null"), std::string::npos);
  // Exactly one line, '\n'-terminated, structurally sound JSON.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
  EXPECT_EQ(text.back(), '\n');
}

TEST(Log, RateLimitCapsASiteAndAccountsEverySuppressedEvent) {
  obs::LogRateLimit limit(1);  // one event per second
  constexpr int kCalls = 1000;
  std::uint64_t reported = 0;
  int allowed = 0;
  for (int i = 0; i < kCalls; ++i) {
    std::uint64_t suppressed = 0;
    if (limit.allow(&suppressed)) {
      ++allowed;
      reported += suppressed;
    }
  }
  // The burst spans at most two one-second windows, so at most two
  // events clear the cap — the limiter held under a 1000-call storm.
  EXPECT_GE(allowed, 1);
  EXPECT_LE(allowed, 2);

  // After the window rolls over, the site re-opens and reports exactly
  // how many events the cap swallowed: every call — including the
  // failed polls below — was either allowed or reported as suppressed
  // precisely once.
  std::uint64_t final_suppressed = 0;
  std::uint64_t polls = 1;
  while (!limit.allow(&final_suppressed)) {
    ++polls;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ++allowed;
  reported += final_suppressed;
  EXPECT_EQ(reported + static_cast<std::uint64_t>(allowed),
            static_cast<std::uint64_t>(kCalls) + polls);
}

// ------------------------------------- engine wiring: the real invariants

struct TelemetryFixture {
  hmm::Plan7Hmm model;
  bio::SequenceDatabase db;

  explicit TelemetryFixture(int M = 80, std::size_t n = 500)
      : model(hmm::paper_model(M)) {
    pipeline::WorkloadSpec spec;
    spec.db.name = "obs-test";
    spec.db.n_sequences = n;
    spec.db.log_length_mu = 5.0;
    spec.db.log_length_sigma = 0.4;
    spec.db.seed = 4242;
    spec.homolog_fraction = 0.03;
    db = pipeline::make_workload(model, spec);
  }
};

TEST(EngineTelemetry, EveryEngineReportsWithoutARecorder) {
  // The engines count their own work: no recorder is needed for the
  // snapshot, and without one no per-thread row reports a span.
  TelemetryFixture fx(60, 300);
  const pipeline::HmmSearch search(fx.model);
  ASSERT_EQ(search.recorder(), nullptr);
  ThreadPool pool(2);
  const bio::PackedDatabase packed(fx.db);
  const auto serial = search.run_cpu(fx.db);
  const auto overlapped = search.run_cpu_overlapped(fx.db, pool);
  const auto gpu =
      search.run_gpu({simt::DeviceSpec::tesla_k40()}, fx.db, packed);
  const auto coalesced =
      pipeline::HmmSearch::run_cpu_coalesced({&search}, fx.db, pool);

  const std::pair<const char*, const std::optional<obs::ScanTelemetry>*>
      engines[] = {{"cpu_serial", &serial.telemetry},
                   {"cpu_overlapped", &overlapped.telemetry},
                   {"gpu_sim", &gpu.telemetry}};
  for (const auto& [engine, tel] : engines) {
    ASSERT_TRUE(tel->has_value()) << engine;
    EXPECT_EQ((*tel)->engine, engine);
    EXPECT_EQ((*tel)->sequences, fx.db.size()) << engine;
    EXPECT_FALSE((*tel)->stages.empty()) << engine;
  }
  EXPECT_EQ(coalesced.telemetry.engine, "cpu_coalesced");
  // Every engine counts L x M per scored sequence (the SIMT counters,
  // which stop at an overflow, ride on gpu_sim's stage rows instead).
  EXPECT_DOUBLE_EQ(overlapped.telemetry->total_cells(),
                   serial.telemetry->total_cells());
  EXPECT_DOUBLE_EQ(coalesced.telemetry.total_cells(),
                   serial.telemetry->total_cells());
  EXPECT_DOUBLE_EQ(gpu.telemetry->total_cells(),
                   serial.telemetry->total_cells());

  for (const obs::ScanTelemetry* t :
       {&*serial.telemetry, &*overlapped.telemetry, &coalesced.telemetry}) {
    ASSERT_EQ(t->per_thread.size(), t->threads) << t->engine;
    for (const auto& row : t->per_thread) {
      EXPECT_EQ(row.spans, 0u) << t->engine;
      EXPECT_EQ(row.spans_dropped, 0u) << t->engine;
    }
  }
  EXPECT_EQ(overlapped.telemetry->threads, pool.workers());
}

TEST(EngineTelemetry, OverlappedQueueInvariantsHold) {
  TelemetryFixture fx;
  pipeline::HmmSearch search(fx.model);
  obs::Recorder rec;
  search.set_recorder(&rec);
  auto result = search.run_cpu_overlapped(fx.db, 3);

  ASSERT_TRUE(result.telemetry.has_value());
  const auto& t = *result.telemetry;
  ASSERT_TRUE(t.queue.has_value());
  const auto& q = *t.queue;
  // Every produced survivor is drained, stalls only ever reject (the
  // item is retried, not lost), rescues are stall responses, and the
  // ring never exceeds its capacity.
  EXPECT_EQ(q.dequeued, q.enqueued);
  EXPECT_EQ(q.enqueued, result.vit.n_in);
  EXPECT_LE(q.help_first_rescues, q.enqueue_stalls);
  EXPECT_LE(q.max_depth, q.capacity);
  if (q.enqueued > 0) {
    EXPECT_GE(q.max_depth, 1u);
  }
}

TEST(EngineTelemetry, PerThreadMergeMatchesGlobalTotals) {
  TelemetryFixture fx;
  pipeline::HmmSearch search(fx.model);
  obs::Recorder rec;
  search.set_recorder(&rec);
  auto result = search.run_cpu_overlapped(fx.db, 3);

  ASSERT_TRUE(result.telemetry.has_value());
  const auto& t = *result.telemetry;
  ASSERT_EQ(t.per_thread.size(), t.threads);

  // The stage rows and StageStats::seconds are both serial merges of the
  // same per-worker clocks, so they agree exactly — and re-summing the
  // per-thread rows reproduces them.
  struct Want {
    const char* name;
    obs::Stage stage;
    const pipeline::StageStats* stats;
  };
  const Want wants[] = {{"msv", obs::Stage::kMsv, &result.msv},
                        {"vit", obs::Stage::kVit, &result.vit},
                        {"fwd", obs::Stage::kFwd, &result.fwd}};
  for (const auto& w : wants) {
    const auto* row = t.stage(w.name);
    ASSERT_NE(row, nullptr) << w.name;
    EXPECT_DOUBLE_EQ(row->busy_seconds, w.stats->seconds) << w.name;
    double per_thread_sum = 0.0;
    for (const auto& th : t.per_thread)
      per_thread_sum += th.stage_busy_seconds[static_cast<int>(w.stage)];
    EXPECT_NEAR(per_thread_sum, row->busy_seconds,
                1e-9 * (1.0 + row->busy_seconds))
        << w.name;
    EXPECT_EQ(row->n_in, w.stats->n_in) << w.name;
    EXPECT_EQ(row->n_passed, w.stats->n_passed) << w.name;
  }

  // Bucket utilization sums back to the database.
  std::uint64_t bucket_seqs = 0, bucket_residues = 0;
  for (const auto& b : t.buckets) {
    bucket_seqs += b.sequences;
    bucket_residues += b.residues;
  }
  EXPECT_EQ(bucket_seqs, t.sequences);
  EXPECT_EQ(bucket_residues, t.residues);
  EXPECT_GT(t.wall_seconds, 0.0);
}

TEST(EngineTelemetry, SharedByteRowsReadTheSweepWhicheverQueryComesFirst) {
  // Query 0 skips SSV, query 1 runs it: the shared ssv row is the one
  // pass's busy time, not query 0's zero.
  TelemetryFixture fx(120, 2000);
  pipeline::Thresholds off, on;
  on.use_ssv_prefilter = true;
  const pipeline::HmmSearch first(fx.model, off);
  const pipeline::HmmSearch second(fx.model, first.model_stats(), on);
  ThreadPool pool(3);
  const auto scan =
      pipeline::HmmSearch::run_cpu_coalesced({&first, &second}, fx.db, pool);
  for (const obs::Stage stage : {obs::Stage::kSsv, obs::Stage::kMsv}) {
    const auto* row = scan.telemetry.stage(obs::stage_name(stage));
    ASSERT_NE(row, nullptr);
    double per_thread_sum = 0.0;
    for (const auto& th : scan.telemetry.per_thread)
      per_thread_sum += th.stage_busy_seconds[static_cast<int>(stage)];
    EXPECT_GT(row->busy_seconds, 0.0) << row->stage;
    EXPECT_NEAR(row->busy_seconds, per_thread_sum,
                1e-9 * (1.0 + per_thread_sum))
        << row->stage;
  }
}

TEST(EngineTelemetry, OverlappedHitsMatchSerialWithRecorderAttached) {
  TelemetryFixture fx;
  pipeline::HmmSearch search(fx.model);
  auto serial = search.run_cpu(fx.db);
  EXPECT_TRUE(serial.telemetry.has_value());  // reported with no recorder

  obs::Recorder rec;
  search.set_recorder(&rec);
  auto overlapped = search.run_cpu_overlapped(fx.db, 2);
  ASSERT_EQ(overlapped.hits.size(), serial.hits.size());
  for (std::size_t i = 0; i < serial.hits.size(); ++i) {
    EXPECT_EQ(overlapped.hits[i].seq_index, serial.hits[i].seq_index);
    EXPECT_EQ(overlapped.hits[i].fwd_bits, serial.hits[i].fwd_bits);
  }
  EXPECT_EQ(overlapped.msv.n_passed, serial.msv.n_passed);
  EXPECT_EQ(overlapped.fwd.n_in, serial.fwd.n_in);
  EXPECT_DOUBLE_EQ(overlapped.msv.cells, serial.msv.cells);

  // The recorder adds spans and their per-thread tallies, nothing else:
  // the crew's item totals are the unrecorded serial engine's.
  ASSERT_TRUE(overlapped.telemetry.has_value());
  const auto& rows = overlapped.telemetry->per_thread;
  ASSERT_EQ(rows.size(), rec.threads());
  std::uint64_t spans = 0;
  for (std::size_t w = 0; w < rows.size(); ++w) {
    EXPECT_EQ(rows[w].spans, rec.log_at(w).events().size()) << w;
    EXPECT_EQ(rows[w].spans_dropped, 0u) << w;
    spans += rows[w].spans;
  }
  EXPECT_GT(spans, 0u);
  EXPECT_EQ(spans, rec.merged_events().size());
  for (int st = 0; st < obs::kStageCount; ++st) {
    std::uint64_t items = 0;
    for (const auto& row : rows) items += row.stage_items[st];
    EXPECT_EQ(items, serial.telemetry->per_thread[0].stage_items[st]) << st;
  }
}

TEST(EngineTelemetry, SerialAndParallelEnginesReportTheSameSchema) {
  TelemetryFixture fx(60, 300);
  pipeline::HmmSearch search(fx.model);
  obs::Recorder rec;
  search.set_recorder(&rec);

  auto serial = search.run_cpu(fx.db);
  ASSERT_TRUE(serial.telemetry.has_value());
  EXPECT_EQ(serial.telemetry->engine, "cpu_serial");
  EXPECT_EQ(serial.telemetry->threads, 1u);
  EXPECT_FALSE(serial.telemetry->queue.has_value());

  auto parallel = search.run_cpu_overlapped(fx.db, 2);
  ASSERT_TRUE(parallel.telemetry.has_value());
  EXPECT_EQ(parallel.telemetry->engine, "cpu_overlapped");
  EXPECT_FALSE(parallel.telemetry->buckets.empty());
  // Overlapped stages have no wall clock of their own, and each stage's
  // busy time cannot exceed crew * end-to-end wall.
  for (const auto& st : parallel.telemetry->stages) {
    EXPECT_GE(st.wall_seconds, 0.0);
    EXPECT_LE(st.busy_seconds,
              static_cast<double>(parallel.telemetry->threads) *
                      parallel.telemetry->wall_seconds +
                  1e-6);
  }
  // Both engines agree on what was scanned.
  EXPECT_EQ(parallel.telemetry->sequences, serial.telemetry->sequences);
  EXPECT_EQ(parallel.telemetry->residues, serial.telemetry->residues);
  EXPECT_DOUBLE_EQ(parallel.telemetry->total_cells(),
                   serial.telemetry->total_cells());
}

}  // namespace
