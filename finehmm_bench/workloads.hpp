// The four finehmm_bench workloads and the per-layer probes they share.
//
//   search_filter, search_rescore  batch scans (batch.cpp)
//   serve_mixed, cluster_search    resident daemon / sharded cluster
//                                  under generated load (service.cpp)
//
// `prepare` writes a workload's seeded inputs into RunOptions::dir; `run`
// reads them back in a fresh process, sets up, measures for
// RunOptions::seconds and checks every output against run_cpu.
#pragma once

#include <string>
#include <vector>

#include "bio/seq_db_io.hpp"
#include "bio/sequence.hpp"
#include "harness.hpp"
#include "pipeline/pipeline.hpp"

namespace finehmm::bench {

bool is_batch_workload(const std::string& name);
void prepare_batch(const RunOptions& opt);
void run_batch(const RunOptions& opt, Report& out, SpanLog& spans);

bool is_service_workload(const std::string& name);
void prepare_service(const RunOptions& opt);
void run_service(const RunOptions& opt, Report& out, SpanLog& spans);

/// Scan threads of the batch engines and client connections of the load
/// generator: min(4, hardware threads), as the benchmark's load rules say.
std::size_t bench_threads();

/// One-thread throughput of BatchScanner's scorers on the active SIMD
/// tier, Gcells/s, each timed over `sample` for about `budget_s`.
struct KernelRates {
  double msv = 0.0, vit = 0.0, fwd = 0.0, decode = 0.0;
};
/// The leading sequences of `db` (about `residues` of them), decoded: the
/// workload's own sequences for the kernel probe.
bio::SequenceDatabase kernel_sample(const bio::MappedSeqDb& db,
                                    std::size_t residues);
KernelRates probe_kernels(const pipeline::HmmSearch& search,
                          const bio::SequenceDatabase& sample,
                          double budget_s);

/// Stage totals of one or more scans or sweeps (StageStats::seconds hold
/// busy time) and the thread-seconds the engine had to spend on them.
struct StageTotals {
  pipeline::StageStats ssv, msv, vit, fwd, bwd;
  double thread_seconds = 0.0;
  void add(const pipeline::SearchResult& r, double wall, std::size_t threads);
};

/// cpu.*, pipeline.{msv,vit}.pass_rate, pipeline.fwd.{hit_yield,
/// us_per_survivor} and pipeline.kernel_share.
void report_pipeline_layers(Report& out, const KernelRates& k,
                            const StageTotals& t);

/// Per-layer metrics whose layer this workload does not exercise: reported
/// as 0 so every workload prints one schema (all are counts or ratios).
struct AbsentMetric {
  const char* name;
  const char* unit;
};
void report_absent(Report& out, const std::vector<AbsentMetric>& metrics);

/// Byte size of a mapped database file, MiB.
double file_mb(const std::string& path);

}  // namespace finehmm::bench
