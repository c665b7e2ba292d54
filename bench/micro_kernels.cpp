// google-benchmark micro suite: real host-machine throughput of every
// scoring engine (these are wall-clock numbers on THIS machine, unlike
// the figure benches, which model the paper's hardware).
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bio/packing.hpp"
#include "bio/synthetic.hpp"
#include "cpu/fwd_filter.hpp"
#include "cpu/generic.hpp"
#include "cpu/msv_filter.hpp"
#include "cpu/msv_group.hpp"
#include "cpu/msv_scalar.hpp"
#include "cpu/posterior.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "cpu/trace.hpp"
#include "cpu/vit_filter.hpp"
#include "cpu/vit_scalar.hpp"
#include "gpu/search.hpp"
#include "hmm/generator.hpp"
#include "hmm/model_group.hpp"
#include "hmm/sampler.hpp"
#include "pipeline/batch_scanner.hpp"

namespace {

using namespace finehmm;

struct MicroFixture {
  hmm::Plan7Hmm model;
  hmm::SearchProfile prof;
  profile::MsvProfile msv;
  profile::VitProfile vit;
  bio::Sequence seq;

  explicit MicroFixture(int M)
      : model(hmm::paper_model(M)),
        prof(model, hmm::AlignMode::kLocalMultihit, 400),
        msv(prof),
        vit(prof) {
    Pcg32 rng(1);
    seq = bio::random_sequence(400, rng);
  }
};

MicroFixture& fixture(int M) {
  static MicroFixture f100(100);
  static MicroFixture f400(400);
  static MicroFixture f1002(1002);
  if (M == 100) return f100;
  if (M == 400) return f400;
  return f1002;
}

void set_cell_rate(benchmark::State& state, int M) {
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 400.0 * M,
      benchmark::Counter::kIsRate);
}

void BM_MsvScalar(benchmark::State& state) {
  auto& f = fixture(static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        cpu::msv_scalar(f.msv, f.seq.codes.data(), f.seq.length()));
  set_cell_rate(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_MsvScalar)->Arg(100)->Arg(400)->Arg(1002);

void BM_MsvStriped(benchmark::State& state) {
  auto& f = fixture(static_cast<int>(state.range(0)));
  cpu::MsvFilter filter(f.msv);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        filter.score(f.seq.codes.data(), f.seq.length()));
  set_cell_rate(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_MsvStriped)->Arg(100)->Arg(400)->Arg(1002);

// Short sequences: M = 100 against L = range(0) residues, where the
// per-sequence setup (row clear, lane constants, final reduction) is a
// visible share of every call; the fixed L = 400 rows above hide it.
void BM_MsvStripedShort(benchmark::State& state) {
  auto& f = fixture(100);
  const int L = static_cast<int>(state.range(0));
  Pcg32 rng(2);
  const bio::Sequence seq =
      bio::random_sequence(static_cast<std::size_t>(L), rng);
  cpu::MsvFilter filter(f.msv);
  for (auto _ : state)
    benchmark::DoNotOptimize(filter.score(seq.codes.data(), seq.length()));
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * L * 100.0,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MsvStripedShort)->Arg(50);

// Per-tier variants: range(1) is the SimdTier (0 portable / 1 sse2 /
// 2 avx2 / 3 avx512); tiers this host can't run are skipped, not failed.
void BM_MsvStripedTier(benchmark::State& state) {
  auto& f = fixture(static_cast<int>(state.range(0)));
  const auto tier = static_cast<cpu::SimdTier>(state.range(1));
  if (!cpu::simd_tier_supported(tier)) {
    state.SkipWithError("tier not supported on this host");
    return;
  }
  cpu::MsvFilter filter(f.msv, tier);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        filter.score(f.seq.codes.data(), f.seq.length()));
  set_cell_rate(state, static_cast<int>(state.range(0)));
  state.SetLabel(cpu::simd_tier_name(filter.tier()));
}
BENCHMARK(BM_MsvStripedTier)
    ->Args({400, 0})
    ->Args({400, 1})
    ->Args({400, 2})
    ->Args({400, 3})
    ->Args({1002, 0})
    ->Args({1002, 2})
    ->Args({1002, 3});

void BM_VitStripedTier(benchmark::State& state) {
  auto& f = fixture(static_cast<int>(state.range(0)));
  const auto tier = static_cast<cpu::SimdTier>(state.range(1));
  if (!cpu::simd_tier_supported(tier)) {
    state.SkipWithError("tier not supported on this host");
    return;
  }
  cpu::VitFilter filter(f.vit, tier);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        filter.score(f.seq.codes.data(), f.seq.length()));
  set_cell_rate(state, static_cast<int>(state.range(0)));
  state.SetLabel(cpu::simd_tier_name(filter.tier()));
}
BENCHMARK(BM_VitStripedTier)
    ->Args({400, 0})
    ->Args({400, 1})
    ->Args({400, 2})
    ->Args({400, 3})
    ->Args({1002, 0})
    ->Args({1002, 2})
    ->Args({1002, 3});

void BM_VitScalar(benchmark::State& state) {
  auto& f = fixture(static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        cpu::vit_scalar(f.vit, f.seq.codes.data(), f.seq.length()));
  set_cell_rate(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_VitScalar)->Arg(100)->Arg(400);

void BM_VitStriped(benchmark::State& state) {
  auto& f = fixture(static_cast<int>(state.range(0)));
  cpu::VitFilter filter(f.vit);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        filter.score(f.seq.codes.data(), f.seq.length()));
  set_cell_rate(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_VitStriped)->Arg(100)->Arg(400);

void BM_SsvStriped(benchmark::State& state) {
  auto& f = fixture(static_cast<int>(state.range(0)));
  pipeline::BatchScanner scanner(f.msv, f.vit);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        scanner.ssv(0, f.seq.codes.data(), f.seq.length()));
  set_cell_rate(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_SsvStriped)->Arg(100)->Arg(400);

// Per-tier SSV: range(1) is the SimdTier, as in BM_MsvStripedTier.
void BM_SsvStripedTier(benchmark::State& state) {
  auto& f = fixture(static_cast<int>(state.range(0)));
  const auto tier = static_cast<cpu::SimdTier>(state.range(1));
  if (!cpu::simd_tier_supported(tier)) {
    state.SkipWithError("tier not supported on this host");
    return;
  }
  cpu::MsvFilter filter(f.msv, tier);
  for (auto _ : state)
    benchmark::DoNotOptimize(filter.ssv(f.seq.codes.data(), f.seq.length()));
  set_cell_rate(state, static_cast<int>(state.range(0)));
  state.SetLabel(cpu::simd_tier_name(filter.tier()));
}
BENCHMARK(BM_SsvStripedTier)
    ->Args({400, 0})
    ->Args({400, 1})
    ->Args({400, 2})
    ->Args({400, 3});

/// The 32-short-model library of bench_throughput's fused-sweep guard
/// (M = 50 + 6*(i%8), seeds 4200+i), planned for the active tier.
struct LibraryFixture {
  std::vector<hmm::Plan7Hmm> models;
  std::vector<hmm::SearchProfile> profs;
  std::vector<profile::MsvProfile> msvs;
  hmm::FusePlan plan;
  std::vector<bio::Sequence> seqs;
  double cells = 0;  // per sweep over seqs, summed over models

  LibraryFixture() {
    constexpr int kModels = 32;
    std::vector<int> lengths;
    for (int i = 0; i < kModels; ++i) {
      lengths.push_back(50 + (i % 8) * 6);
      models.push_back(hmm::generate_hmm(hmm::RandomHmmSpec{
          lengths.back(), 4200 + static_cast<std::uint64_t>(i)}));
    }
    profs.reserve(kModels);
    msvs.reserve(kModels);
    for (const auto& model : models) {
      profs.emplace_back(model, hmm::AlignMode::kLocalMultihit, 400);
      msvs.emplace_back(profs.back());
    }
    const int lanes = cpu::backend::tier_kernels(
                          cpu::resolve_simd_tier(cpu::active_simd_tier()))
                          .u8_lanes;
    plan = hmm::plan_model_groups(lengths, lanes);
    Pcg32 rng(11);
    for (int s = 0; s < 16; ++s) seqs.push_back(bio::random_sequence(350, rng));
    for (int M : lengths) cells += 16.0 * 350.0 * M;
  }
};

// Single-thread MSV over the guard's library: range(0) = 0 scores every
// model with its own MsvFilter, 1 runs the planned fused groups (plus any
// unfused model on its own).  The cells/s ratio of /1 over /0 is the
// kernel-level margin behind the end-to-end fused >= 2x guard.
void BM_MsvLibrary(benchmark::State& state) {
  static LibraryFixture f;
  const bool fused = state.range(0) != 0;
  std::vector<cpu::MsvFilter> singles;
  std::vector<std::unique_ptr<cpu::FusedMsvGroup>> tables;
  std::vector<cpu::FusedMsvFilter> groups;
  if (fused) {
    for (const auto& shape : f.plan.groups) {
      std::vector<const profile::MsvProfile*> members;
      for (std::size_t m : shape.members) members.push_back(&f.msvs[m]);
      tables.push_back(std::make_unique<cpu::FusedMsvGroup>(
          std::move(members), f.plan.lane_width, shape.Q));
      groups.emplace_back(*tables.back());
    }
    for (std::size_t m : f.plan.unfused) singles.emplace_back(f.msvs[m]);
  } else {
    for (const auto& msv : f.msvs) singles.emplace_back(msv);
  }
  std::vector<cpu::FilterResult> out(f.msvs.size());
  for (auto _ : state) {
    for (const auto& seq : f.seqs) {
      for (auto& g : groups) g.msv(seq.codes.data(), seq.length(), out.data());
      for (auto& s : singles)
        benchmark::DoNotOptimize(s.score(seq.codes.data(), seq.length()));
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * f.cells,
      benchmark::Counter::kIsRate);
  state.SetLabel(fused ? "fused" : "singles");
}
BENCHMARK(BM_MsvLibrary)->Arg(0)->Arg(1);

void BM_FwdFilterStriped(benchmark::State& state) {
  auto& f = fixture(static_cast<int>(state.range(0)));
  profile::FwdProfile fwd(f.prof);
  cpu::FwdFilter filter(fwd);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        filter.score(f.seq.codes.data(), f.seq.length()));
  set_cell_rate(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_FwdFilterStriped)->Arg(100)->Arg(400);

void BM_GenericForward(benchmark::State& state) {
  auto& f = fixture(static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        cpu::generic_forward(f.prof, f.seq.codes.data(), f.seq.length()));
  set_cell_rate(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_GenericForward)->Arg(100)->Arg(400);

// The scalar loop the row kernel behind BM_GenericForward reproduces.
void BM_GenericForwardScalar(benchmark::State& state) {
  auto& f = fixture(static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(cpu::generic_forward_scalar(
        f.prof, f.seq.codes.data(), f.seq.length()));
  set_cell_rate(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_GenericForwardScalar)->Arg(100)->Arg(400);

void BM_ViterbiTrace(benchmark::State& state) {
  auto& f = fixture(static_cast<int>(state.range(0)));
  cpu::TraceWorkspace ws;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        cpu::viterbi_trace(f.prof, f.seq.codes.data(), f.seq.length(), ws));
  set_cell_rate(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_ViterbiTrace)->Arg(100)->Arg(400);

void BM_ViterbiTraceScalar(benchmark::State& state) {
  auto& f = fixture(static_cast<int>(state.range(0)));
  cpu::TraceWorkspace ws;
  for (auto _ : state)
    benchmark::DoNotOptimize(cpu::viterbi_trace_scalar(
        f.prof, f.seq.codes.data(), f.seq.length(), ws));
  set_cell_rate(state, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_ViterbiTraceScalar)->Arg(100)->Arg(400);

/// The rescoring tail of one reported hit: envelopes from a decoded
/// occupancy track, each rescored by Forward and aligned by traceback.
/// The target is a homolog between two 100-residue random flanks.
void BM_DomainsFromOccupancy(benchmark::State& state) {
  auto& f = fixture(static_cast<int>(state.range(0)));
  Pcg32 rng(5);
  std::vector<std::uint8_t> seq = bio::random_sequence(100, rng).codes;
  const bio::Sequence core = hmm::sample_homolog(f.model, rng);
  seq.insert(seq.end(), core.codes.begin(), core.codes.end());
  const bio::Sequence flank = bio::random_sequence(100, rng);
  seq.insert(seq.end(), flank.codes.begin(), flank.codes.end());
  profile::FwdProfile fwd(f.prof);
  cpu::FwdFilter filter(fwd);
  std::vector<float> mocc;
  filter.decode(seq.data(), seq.size(), mocc);
  cpu::TraceWorkspace ws;
  std::size_t envelope = 0;
  for (const cpu::Domain& d : cpu::domains_from_occupancy(
           f.prof, seq.data(), seq.size(), mocc.data(), ws))
    envelope += d.i_end - d.i_start + 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(cpu::domains_from_occupancy(
        f.prof, seq.data(), seq.size(), mocc.data(), ws));
  state.counters["envelope"] = static_cast<double>(envelope);
}
BENCHMARK(BM_DomainsFromOccupancy)->Arg(100)->Arg(400)->Unit(
    benchmark::kMicrosecond);

void BM_SimtMsvKernel(benchmark::State& state) {
  // Functional simulator speed (not GPU speed): warp MSV over a small DB.
  const int M = static_cast<int>(state.range(0));
  auto& f = fixture(M);
  Pcg32 rng(7);
  bio::SequenceDatabase db;
  for (int i = 0; i < 16; ++i) db.add(bio::random_sequence(300, rng));
  bio::PackedDatabase packed(db);
  gpu::GpuSearch search(simt::DeviceSpec::tesla_k40());
  for (auto _ : state)
    benchmark::DoNotOptimize(
        search.run_msv(f.msv, packed, gpu::ParamPlacement::kShared));
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 16 * 300.0 * M,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimtMsvKernel)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);

void BM_ResiduePacking(benchmark::State& state) {
  Pcg32 rng(3);
  auto seq = bio::random_sequence(10000, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(bio::pack_residues(seq.codes));
  state.counters["residues/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 10000.0,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ResiduePacking);

}  // namespace

BENCHMARK_MAIN();
