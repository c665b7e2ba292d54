// Shared machinery for the figure-reproduction benches.
//
// Strategy (documented in EXPERIMENTS.md): the functional SIMT simulator
// executes each kernel on a *sample* of the synthetic database — enough
// sequences for stable per-cell counter statistics — and the analytic cost
// model extrapolates to the paper's full database size (171.7M residues
// for Swissprot, 1.29G for Env_nr), which is valid because these are
// streaming kernels whose counters grow linearly in DP cells.  The CPU
// baseline is the modeled quad-core SSE HMMER 3.0 (see perf::CostModelParams).
//
// Environment knobs:
//   FINEHMM_BENCH_CELLS   sampled DP-cell budget per configuration
//                         (default 8e6; raise for tighter statistics)
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <latch>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bio/packing.hpp"
#include "bio/synthetic.hpp"
#include "gpu/search.hpp"
#include "hmm/generator.hpp"
#include "hmm/profile.hpp"
#include "obs/telemetry.hpp"
#include "perf/cost_model.hpp"
#include "pipeline/workload.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace finehmm::bench {

/// The paper's full database sizes (total residues).
inline constexpr double kSwissprotResidues = 171731281.0;
inline constexpr double kEnvnrResidues = 1290247663.0;

struct DbPreset {
  std::string name;
  double full_residues;
  bio::SyntheticDbSpec spec(double scale) const {
    return name == "Swissprot" ? bio::SyntheticDbSpec::swissprot_like(scale)
                               : bio::SyntheticDbSpec::envnr_like(scale);
  }
  static DbPreset swissprot() { return {"Swissprot", kSwissprotResidues}; }
  static DbPreset envnr() { return {"Envnr", kEnvnrResidues}; }
};

inline double bench_cell_budget() {
  if (const char* env = std::getenv("FINEHMM_BENCH_CELLS"))
    return std::atof(env);
  return 8e6;
}

/// Generate a sample database with roughly `cell_budget / M` residues.
inline bio::SequenceDatabase sample_database(const DbPreset& preset, int M,
                                             double cell_budget) {
  double want_residues = cell_budget / static_cast<double>(M);
  auto probe = preset.spec(1e-6);
  double mean_len = probe.expected_mean_length();
  std::size_t n = static_cast<std::size_t>(want_residues / mean_len);
  if (n < 24) n = 24;
  auto spec = probe;
  spec.n_sequences = n;
  return bio::generate_database(spec);
}

/// One stage measurement: functional sample run + extrapolated times.
struct StageMeasurement {
  gpu::StageResult run;          // counters of the sampled run
  perf::TimeEstimate gpu_time;   // extrapolated to the full database
  double cpu_time = 0.0;         // modeled CPU baseline, full database
  double occupancy = 0.0;
  bool feasible = false;
  /// Modeled CPU time over modeled GPU time; 0 when the GPU time is
  /// zero/denormal (infeasible launch) rather than inf.
  double speedup() const {
    return obs::safe_rate(cpu_time, gpu_time.total_s);
  }
};

/// Run the MSV stage of size-M model over a sampled preset database on
/// `dev`, extrapolated to the preset's full residue count.
inline StageMeasurement measure_msv(const simt::DeviceSpec& dev,
                                    const profile::MsvProfile& prof,
                                    const bio::PackedDatabase& packed,
                                    gpu::ParamPlacement placement,
                                    double full_residues) {
  StageMeasurement m;
  auto plan = gpu::plan_launch(gpu::Stage::kMsv, placement, prof.length(), dev);
  if (!plan.feasible) return m;
  m.feasible = true;
  gpu::GpuSearch search(dev);
  m.run = search.run_msv(prof, packed, placement);
  double factor =
      full_residues / static_cast<double>(packed.total_residues());
  auto sampled = perf::estimate_gpu_time(dev, m.run.counters, m.run.plan.occ,
                                         m.run.plan.cfg.warps_per_block);
  m.gpu_time = perf::extrapolate(sampled, factor);
  m.cpu_time = perf::estimate_cpu_time(
      perf::CpuStage::kMsv,
      static_cast<double>(m.run.counters.cells) * factor);
  m.occupancy = m.run.plan.occ.fraction;
  return m;
}

/// Same for the P7Viterbi stage (run over all sampled sequences; the
/// stage speedup is input-set invariant).
inline StageMeasurement measure_vit(const simt::DeviceSpec& dev,
                                    const profile::VitProfile& prof,
                                    const bio::PackedDatabase& packed,
                                    gpu::ParamPlacement placement,
                                    double full_residues) {
  StageMeasurement m;
  auto plan =
      gpu::plan_launch(gpu::Stage::kViterbi, placement, prof.length(), dev);
  if (!plan.feasible) return m;
  m.feasible = true;
  gpu::GpuSearch search(dev);
  m.run = search.run_vit(prof, packed, placement);
  double factor =
      full_residues / static_cast<double>(packed.total_residues());
  auto sampled = perf::estimate_gpu_time(dev, m.run.counters, m.run.plan.occ,
                                         m.run.plan.cfg.warps_per_block);
  m.gpu_time = perf::extrapolate(sampled, factor);
  m.cpu_time = perf::estimate_cpu_time(
      perf::CpuStage::kViterbi,
      static_cast<double>(m.run.counters.cells) * factor);
  m.occupancy = m.run.plan.occ.fraction;
  return m;
}

/// An interleaved A/B timing (time_ab): medians of each arm plus the
/// spread of the per-pair overheads.
struct AbTiming {
  double baseline_seconds = 0;  // median of the A runs
  double variant_seconds = 0;   // median of the B runs
  std::size_t pairs = 0;
  double pair_q1 = 0, pair_q3 = 0;  // quartiles of B/A - 1 over the pairs
  /// Fractional cost of B over A; negative values are noise.
  double overhead() const {
    return obs::valid_rate(variant_seconds, baseline_seconds)
               // finehmm-lint: allow(unguarded-rate) -- valid_rate-guarded
               ? variant_seconds / baseline_seconds - 1.0
               : 0.0;
  }
};

/// Time arm A (`run(false)`) against arm B (`run(true)`) in interleaved
/// pairs, alternating which arm runs first, until at least `min_pairs`
/// pairs and `min_seconds` of timed runs are in; one warm-up pair is
/// discarded.  `run` returns the seconds of its own timed region, so
/// set-up stays outside the clock.  Interleaving exposes both arms to
/// the same clock ramp and cache drift, and medians over many pairs keep
/// one descheduled run from deciding a percent-level comparison.
template <class Run>
AbTiming time_ab(Run&& run, double min_seconds, std::size_t min_pairs = 21) {
  std::vector<double> a, b, ratio;
  double timed = 0;
  run(false);
  run(true);
  while (a.size() < min_pairs || timed < min_seconds) {
    const bool b_first = a.size() % 2 == 1;
    const double first = run(b_first);
    const double second = run(!b_first);
    const double sa = b_first ? second : first;
    const double sb = b_first ? first : second;
    a.push_back(sa);
    b.push_back(sb);
    ratio.push_back(obs::safe_rate(sb, sa) - 1.0);
    timed += sa + sb;
  }
  const auto quantile = [](std::vector<double> v, double q) {
    const auto k =
        static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                     v.end());
    return v[k];
  };
  AbTiming t;
  t.baseline_seconds = quantile(a, 0.5);
  t.variant_seconds = quantile(b, 0.5);
  t.pairs = a.size();
  t.pair_q1 = quantile(ratio, 0.25);
  t.pair_q3 = quantile(ratio, 0.75);
  return t;
}

/// One closed-loop load point (run_closed_loop).
struct LoadRun {
  std::vector<double> latency_ms;  // timed requests that succeeded, sorted
  std::size_t failed = 0;          // warm-up and timed requests
  double wall_seconds = 0;         // the timed phase
  double requests_per_sec() const {
    return obs::safe_rate(static_cast<double>(latency_ms.size()),
                          wall_seconds);
  }
};

/// Drive `clients` closed-loop clients.  `connect(c)` runs on client c's
/// thread and returns its request callable (`bool()`, true on success).
/// Each client makes one untimed warm-up request; once every client is
/// warm, all of them fire requests back to back until the point has run
/// `min_seconds` and each has made `min_requests`.  Connection set-up and
/// first-touch costs stay off the clock, and the minimum duration keeps
/// one stall from deciding a point of a few milliseconds.
template <class Connect>
LoadRun run_closed_loop(std::size_t clients, std::size_t min_requests,
                        double min_seconds, Connect&& connect) {
  std::vector<std::vector<double>> lat(clients);
  std::vector<std::size_t> failed(clients, 0);
  std::latch warm(static_cast<std::ptrdiff_t>(clients + 1));
  std::vector<std::thread> crew;
  for (std::size_t c = 0; c < clients; ++c) {
    crew.emplace_back([&, c] {
      auto request = connect(c);
      if (!request()) ++failed[c];
      warm.arrive_and_wait();
      const Timer since;
      for (std::size_t n = 0;
           n < min_requests || since.seconds() < min_seconds; ++n) {
        const Timer t;
        if (request())
          lat[c].push_back(t.seconds() * 1e3);
        else
          ++failed[c];
      }
    });
  }
  warm.arrive_and_wait();
  const Timer wall;
  for (std::thread& t : crew) t.join();
  LoadRun run;
  run.wall_seconds = wall.seconds();
  for (std::size_t c = 0; c < clients; ++c) {
    run.latency_ms.insert(run.latency_ms.end(), lat[c].begin(), lat[c].end());
    run.failed += failed[c];
  }
  std::sort(run.latency_ms.begin(), run.latency_ms.end());
  return run;
}

/// The model sizes of Figs. 9-11.
inline const std::vector<int>& paper_sizes() {
  static const std::vector<int> sizes(std::begin(hmm::kPaperModelSizes),
                                      std::end(hmm::kPaperModelSizes));
  return sizes;
}

}  // namespace finehmm::bench
