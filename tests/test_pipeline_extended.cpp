// Extended pipeline features: auto placement, multi-GPU pipeline, hit
// alignments, multi-model search, and the GPU cascade's differential
// test against run_cpu.
#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <string>
#include <tuple>

#include "gpu/placement_policy.hpp"
#include "hmm/generator.hpp"
#include "obs/recorder.hpp"
#include "pipeline/multi_search.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/workload.hpp"

namespace {

using namespace finehmm;

struct ExtFixture {
  hmm::Plan7Hmm model;
  bio::SequenceDatabase db;
  bio::PackedDatabase packed;

  explicit ExtFixture(int M = 80, std::size_t n = 300, double hom = 0.04)
      : model(hmm::paper_model(M)) {
    pipeline::WorkloadSpec spec;
    spec.db.n_sequences = n;
    spec.db.log_length_mu = 4.8;
    spec.homolog_fraction = hom;
    spec.db.seed = 1001;
    db = pipeline::make_workload(model, spec);
    packed = bio::PackedDatabase(db);
  }
};

TEST(PlacementPolicy, MatchesPaperThresholdOnK40) {
  auto k40 = simt::DeviceSpec::tesla_k40();
  // Fig. 9: shared wins for MSV up to ~1002, global beyond.
  for (int M : {48, 100, 200, 400, 800}) {
    auto c = gpu::choose_placement(gpu::Stage::kMsv, M, k40);
    EXPECT_EQ(c.placement, gpu::ParamPlacement::kShared) << "M=" << M;
  }
  for (int M : {1528, 2405}) {
    auto c = gpu::choose_placement(gpu::Stage::kMsv, M, k40);
    EXPECT_EQ(c.placement, gpu::ParamPlacement::kGlobal) << "M=" << M;
  }
}

TEST(PlacementPolicy, AlwaysFeasibleForPaperSizes) {
  for (const auto& dev :
       {simt::DeviceSpec::tesla_k40(), simt::DeviceSpec::gtx580()}) {
    for (int M : hmm::kPaperModelSizes) {
      for (auto stage : {gpu::Stage::kMsv, gpu::Stage::kViterbi}) {
        auto c = gpu::choose_placement(stage, M, dev);
        EXPECT_TRUE(c.plan.feasible)
            << dev.name << " M=" << M << " stage=" << static_cast<int>(stage);
        EXPECT_GT(c.plan.occ.warps_per_sm, 0);
      }
    }
  }
}

TEST(PipelineExtended, AutoPlacementMatchesExplicit) {
  ExtFixture fx;
  pipeline::HmmSearch search(fx.model);
  auto k40 = simt::DeviceSpec::tesla_k40();
  auto automatic = search.run_gpu({k40}, fx.db, fx.packed);
  auto manual = search.run_gpu({k40}, fx.db, fx.packed,
                               gpu::ParamPlacement::kShared);
  EXPECT_EQ(automatic.hits.size(), manual.hits.size());
  EXPECT_EQ(automatic.msv.n_passed, manual.msv.n_passed);
}

TEST(PipelineExtended, MultiGpuPipelineMatchesSingleDevice) {
  ExtFixture fx;
  pipeline::HmmSearch search(fx.model);
  auto k40 = simt::DeviceSpec::tesla_k40();
  std::vector<simt::DeviceSpec> fermis(4, simt::DeviceSpec::gtx580());

  auto single = search.run_gpu({k40}, fx.db, fx.packed,
                               gpu::ParamPlacement::kShared);
  auto multi = search.run_gpu(fermis, fx.db, fx.packed,
                              gpu::ParamPlacement::kShared);
  ASSERT_EQ(multi.hits.size(), single.hits.size());
  for (std::size_t i = 0; i < single.hits.size(); ++i) {
    EXPECT_EQ(multi.hits[i].seq_index, single.hits[i].seq_index);
    EXPECT_FLOAT_EQ(multi.hits[i].fwd_bits, single.hits[i].fwd_bits);
  }
  // Every sequence is scored exactly once, whichever device it lands on.
  EXPECT_EQ(multi.msv.cells, single.msv.cells);
}

TEST(PipelineExtended, HitAlignmentsAreProducedOnRequest) {
  ExtFixture fx(60, 250, 0.06);
  pipeline::Thresholds thr;
  thr.compute_alignments = true;
  pipeline::HmmSearch search(fx.model, thr);
  auto result = search.run_cpu(fx.db);
  ASSERT_FALSE(result.hits.empty());
  for (const auto& hit : result.hits) {
    EXPECT_FALSE(hit.alignments.empty()) << hit.name;
    for (const auto& a : hit.alignments) {
      EXPECT_EQ(a.model_line.size(), a.seq_line.size());
      EXPECT_GE(a.k_start, 1);
      EXPECT_LE(a.k_end, fx.model.length());
    }
  }
}

void expect_same_alignments(const std::vector<cpu::Alignment>& a,
                            const std::vector<cpu::Alignment>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].k_start, b[i].k_start);
    EXPECT_EQ(a[i].k_end, b[i].k_end);
    EXPECT_EQ(a[i].i_start, b[i].i_start);
    EXPECT_EQ(a[i].i_end, b[i].i_end);
    EXPECT_EQ(a[i].model_line, b[i].model_line);
    EXPECT_EQ(a[i].match_line, b[i].match_line);
    EXPECT_EQ(a[i].seq_line, b[i].seq_line);
  }
}

void expect_same_hits(const std::vector<pipeline::Hit>& want,
                      const std::vector<pipeline::Hit>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(want[i].name);
    EXPECT_EQ(want[i].seq_index, got[i].seq_index);
    EXPECT_EQ(want[i].name, got[i].name);
    EXPECT_EQ(want[i].msv_bits, got[i].msv_bits);
    EXPECT_EQ(want[i].vit_bits, got[i].vit_bits);
    EXPECT_EQ(want[i].fwd_bits, got[i].fwd_bits);
    EXPECT_EQ(want[i].bias_bits, got[i].bias_bits);
    EXPECT_EQ(want[i].pvalue, got[i].pvalue);
    EXPECT_EQ(want[i].evalue, got[i].evalue);
    expect_same_alignments(want[i].alignments, got[i].alignments);
    ASSERT_EQ(want[i].domains.size(), got[i].domains.size());
    for (std::size_t d = 0; d < want[i].domains.size(); ++d) {
      EXPECT_EQ(want[i].domains[d].i_start, got[i].domains[d].i_start);
      EXPECT_EQ(want[i].domains[d].i_end, got[i].domains[d].i_end);
      EXPECT_EQ(want[i].domains[d].bits, got[i].domains[d].bits);
      expect_same_alignments(want[i].domains[d].alignments,
                             got[i].domains[d].alignments);
    }
  }
}

// A Forward survivor whose uncorrected E-value misses report_evalue is
// dropped before its traceback and null2 (null2 only lowers the score).
// The oracle scans with a threshold every survivor meets, so each one
// runs the traceback and null2, and keeps the hits the real threshold
// admits: every field and every stage count must agree.
TEST(PipelineExtended, UnreportableSurvivorsSkipTheTracebackExactly) {
  ExtFixture fx(80, 400, 0.03);
  pipeline::Thresholds every;
  every.msv_p = 0.5;  // loose filters: most Forward survivors are random
  every.vit_p = 0.5;
  every.report_evalue = std::numeric_limits<double>::infinity();
  every.compute_alignments = true;
  every.define_domains = true;
  const pipeline::HmmSearch oracle(fx.model, every);
  const pipeline::SearchResult all = oracle.run_cpu(fx.db);
  ASSERT_EQ(all.fwd.n_passed, all.fwd.n_in);

  // Thresholds at reported E-values: the hit exactly at the threshold
  // must survive the early drop.
  ASSERT_GE(all.hits.size(), 30u);
  ThreadPool pool(2);
  for (const double report_evalue : {all.hits[all.hits.size() / 10].evalue,
                                     all.hits[all.hits.size() / 6].evalue}) {
    SCOPED_TRACE(report_evalue);
    pipeline::Thresholds thr = every;
    thr.report_evalue = report_evalue;
    const pipeline::HmmSearch strict(fx.model, oracle.model_stats(), thr);
    std::vector<pipeline::Hit> want;
    for (const pipeline::Hit& h : all.hits)
      if (h.evalue <= report_evalue) want.push_back(h);
    ASSERT_FALSE(want.empty());
    for (const pipeline::SearchResult& got :
         {strict.run_cpu(fx.db), strict.run_cpu_overlapped(fx.db, pool)}) {
      EXPECT_GT(got.fwd.n_in, 4 * got.fwd.n_passed)
          << "most survivors must miss the threshold";
      EXPECT_EQ(got.msv.n_in, all.msv.n_in);
      EXPECT_EQ(got.msv.n_passed, all.msv.n_passed);
      EXPECT_EQ(got.vit.n_in, all.vit.n_in);
      EXPECT_EQ(got.vit.n_passed, all.vit.n_passed);
      EXPECT_EQ(got.fwd.n_in, all.fwd.n_in);
      EXPECT_EQ(got.fwd.n_passed, want.size());
      EXPECT_EQ(got.bwd.n_in, want.size());
      expect_same_hits(want, got.hits);
    }
  }
}

TEST(PipelineExtended, ParallelCpuMatchesSerial) {
  ExtFixture fx(90, 400, 0.03);
  pipeline::HmmSearch search(fx.model);
  auto serial = search.run_cpu(fx.db);
  for (std::size_t threads : {1u, 2u, 4u}) {
    auto parallel = search.run_cpu_overlapped(fx.db, threads);
    ASSERT_EQ(parallel.hits.size(), serial.hits.size()) << threads;
    for (std::size_t i = 0; i < serial.hits.size(); ++i) {
      EXPECT_EQ(parallel.hits[i].seq_index, serial.hits[i].seq_index);
      EXPECT_FLOAT_EQ(parallel.hits[i].fwd_bits, serial.hits[i].fwd_bits);
    }
    EXPECT_EQ(parallel.msv.n_passed, serial.msv.n_passed);
    EXPECT_EQ(parallel.vit.n_passed, serial.vit.n_passed);
  }
}

TEST(PipelineExtended, ParallelEngineHonoursSsvPrefilter) {
  ExtFixture fx(90, 400, 0.03);
  pipeline::Thresholds thr;
  thr.use_ssv_prefilter = true;
  pipeline::HmmSearch search(fx.model, thr);
  auto serial = search.run_cpu(fx.db);
  auto parallel = search.run_cpu_overlapped(fx.db, 3);
  EXPECT_EQ(serial.ssv.n_passed, parallel.ssv.n_passed);
  EXPECT_EQ(serial.msv.n_passed, parallel.msv.n_passed);
  ASSERT_EQ(serial.hits.size(), parallel.hits.size());
  for (std::size_t i = 0; i < serial.hits.size(); ++i)
    EXPECT_EQ(serial.hits[i].seq_index, parallel.hits[i].seq_index);
}

TEST(PipelineExtended, GpuEngineHonoursSsvPrefilter) {
  ExtFixture fx(72, 300, 0.04);
  pipeline::Thresholds thr;
  thr.use_ssv_prefilter = true;
  pipeline::HmmSearch search(fx.model, thr);
  auto cpu = search.run_cpu(fx.db);
  auto gpu = search.run_gpu({simt::DeviceSpec::tesla_k40()}, fx.db,
                            fx.packed, gpu::ParamPlacement::kShared);
  EXPECT_EQ(cpu.ssv.n_passed, gpu.ssv.n_passed);
  EXPECT_EQ(cpu.msv.n_passed, gpu.msv.n_passed);
  ASSERT_EQ(cpu.hits.size(), gpu.hits.size());
  for (std::size_t i = 0; i < cpu.hits.size(); ++i)
    EXPECT_EQ(cpu.hits[i].seq_index, gpu.hits[i].seq_index);
}

TEST(PipelineExtended, SsvPrefilterKeepsSensitivity) {
  ExtFixture fx(100, 500, 0.04);
  pipeline::Thresholds base;
  pipeline::Thresholds with_ssv;
  with_ssv.use_ssv_prefilter = true;
  pipeline::HmmSearch s_base(fx.model, base);
  pipeline::HmmSearch s_ssv(fx.model, with_ssv);

  auto r_base = s_base.run_cpu(fx.db);
  auto r_ssv = s_ssv.run_cpu(fx.db);

  // The pre-filter must discard most of the database...
  EXPECT_GT(r_ssv.ssv.n_in, 0u);
  EXPECT_LT(r_ssv.ssv.pass_rate(), 0.25);
  // ...while keeping essentially all true hits (full-length homologs
  // always carry one strong segment).
  ASSERT_FALSE(r_base.hits.empty());
  EXPECT_GE(r_ssv.hits.size() + 1, r_base.hits.size());
  // And MSV now runs on far fewer sequences.
  EXPECT_LT(r_ssv.msv.n_in, fx.db.size() / 2);
}

TEST(PipelineExtended, SearchesAreDeterministic) {
  // No hidden global state: identical inputs -> identical outputs, for
  // both engines, run twice from the same HmmSearch instance.
  ExtFixture fx(64, 200, 0.05);
  pipeline::HmmSearch search(fx.model);
  auto a = search.run_cpu(fx.db);
  auto b = search.run_cpu(fx.db);
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (std::size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i].seq_index, b.hits[i].seq_index);
    EXPECT_EQ(a.hits[i].evalue, b.hits[i].evalue);
    EXPECT_EQ(a.hits[i].fwd_bits, b.hits[i].fwd_bits);
  }
  auto g1 = search.run_gpu({simt::DeviceSpec::tesla_k40()}, fx.db,
                           fx.packed);
  auto g2 = search.run_gpu({simt::DeviceSpec::tesla_k40()}, fx.db,
                           fx.packed);
  ASSERT_EQ(g1.hits.size(), g2.hits.size());
  for (std::size_t i = 0; i < g1.hits.size(); ++i)
    EXPECT_EQ(g1.hits[i].evalue, g2.hits[i].evalue);
}

TEST(MultiSearch, FindsHomologsOfTheRightFamily) {
  // Two distinct families; homologs of family A must hit A, not B.
  auto fam_a = hmm::paper_model(70);
  auto fam_b = hmm::paper_model(90);
  fam_a.set_name("famA");
  fam_b.set_name("famB");

  pipeline::WorkloadSpec spec;
  spec.db.n_sequences = 250;
  spec.homolog_fraction = 0.08;  // homologs of famA only
  auto db = pipeline::make_workload(fam_a, spec);
  bio::PackedDatabase packed(db);

  std::vector<hmm::Plan7Hmm> models;
  models.push_back(fam_a);
  models.push_back(fam_b);
  pipeline::MultiSearch multi(std::move(models));

  auto cpu_results = multi.run_cpu(db);
  ASSERT_EQ(cpu_results.size(), 2u);
  EXPECT_GT(cpu_results[0].result.hits.size(), 5u);
  EXPECT_LT(cpu_results[1].result.hits.size(),
            cpu_results[0].result.hits.size() / 2);

  auto gpu_results =
      multi.run_gpu(simt::DeviceSpec::tesla_k40(), db, packed);
  ASSERT_EQ(gpu_results.size(), 2u);
  EXPECT_EQ(gpu_results[0].result.hits.size(),
            cpu_results[0].result.hits.size());
  EXPECT_EQ(gpu_results[1].result.hits.size(),
            cpu_results[1].result.hits.size());
}

// ---------------------------------------------------------------------------
// One GPU cascade for every device list: hits and stage counts are
// bit-identical to run_cpu at every SSV setting, and the telemetry carries
// the SIMT counters of every device.

enum class SsvMode { kOff, kDefault, kTight };
enum class Devices { kK40Shared, kK40Auto, kTwoFermis, kFourFermis };

struct GpuDiffFixture : ExtFixture {
  pipeline::HmmSearch calibrated{model};
  GpuDiffFixture() {
    // One empty record: counted into the first stage, never scored.
    db.add(bio::Sequence("empty", {}));
    packed = bio::PackedDatabase(db);
  }
};

double counter(const obs::StageTelemetry& st, const std::string& key) {
  for (const auto& [k, v] : st.counters)
    if (k == key) return v;
  ADD_FAILURE() << st.stage << " has no counter " << key;
  return -1.0;
}

class GpuDifferential
    : public ::testing::TestWithParam<std::tuple<SsvMode, Devices>> {};

TEST_P(GpuDifferential, HitsAndStageCountsMatchRunCpu) {
  const auto [ssv, devices] = GetParam();
  static const GpuDiffFixture fx;
  pipeline::Thresholds thr;
  thr.use_ssv_prefilter = ssv != SsvMode::kOff;
  if (ssv == SsvMode::kTight) thr.ssv_p = 1e-5;
  pipeline::HmmSearch search(fx.model, fx.calibrated.model_stats(), thr);

  std::vector<simt::DeviceSpec> devs(1, simt::DeviceSpec::tesla_k40());
  std::optional<gpu::ParamPlacement> placement;
  if (devices == Devices::kK40Shared)
    placement = gpu::ParamPlacement::kShared;
  if (devices == Devices::kTwoFermis)
    devs.assign(2, simt::DeviceSpec::gtx580());
  if (devices == Devices::kFourFermis) {
    devs.assign(4, simt::DeviceSpec::gtx580());
    placement = gpu::ParamPlacement::kShared;
  }

  const pipeline::SearchResult ref = search.run_cpu(fx.db);
  obs::Recorder rec;
  search.set_recorder(&rec);
  const pipeline::SearchResult got =
      search.run_gpu(devs, fx.db, fx.packed, placement);

  const auto same_counts = [](const pipeline::StageStats& a,
                              const pipeline::StageStats& b,
                              const char* name) {
    EXPECT_EQ(a.n_in, b.n_in) << name;
    EXPECT_EQ(a.n_passed, b.n_passed) << name;
  };
  same_counts(ref.ssv, got.ssv, "ssv");
  same_counts(ref.msv, got.msv, "msv");
  same_counts(ref.vit, got.vit, "vit");
  same_counts(ref.fwd, got.fwd, "fwd");
  // The empty record enters the first active stage.
  EXPECT_EQ((thr.use_ssv_prefilter ? got.ssv : got.msv).n_in, fx.db.size());
  ASSERT_FALSE(ref.hits.empty());
  ASSERT_EQ(ref.hits.size(), got.hits.size());
  for (std::size_t i = 0; i < ref.hits.size(); ++i) {
    const pipeline::Hit& a = ref.hits[i];
    const pipeline::Hit& b = got.hits[i];
    EXPECT_EQ(a.seq_index, b.seq_index);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.vit_bits, b.vit_bits);
    EXPECT_EQ(a.fwd_bits, b.fwd_bits);
    EXPECT_EQ(a.bias_bits, b.bias_bits);
    EXPECT_EQ(a.pvalue, b.pvalue);
    EXPECT_EQ(a.evalue, b.evalue);
  }

  // Every device's share shows up in the stage rows: the items the SIMT
  // counters saw are exactly the stage's non-empty inputs.  Stage cells
  // are run_cpu's L x M per scored sequence; the SIMT cell counter stops
  // at an overflow, so it can only read fewer.
  ASSERT_TRUE(got.telemetry.has_value());
  EXPECT_EQ(got.telemetry->engine, "gpu_sim");
  std::size_t simt_rows = 0;
  for (const auto& st : got.telemetry->stages) {
    const auto pick = [&](const pipeline::SearchResult& r)
        -> const pipeline::StageStats* {
      return st.stage == "ssv"   ? &r.ssv
             : st.stage == "msv" ? &r.msv
             : st.stage == "vit" ? &r.vit
                                 : nullptr;
    };
    const pipeline::StageStats* stage = pick(got);
    if (stage == nullptr) continue;
    ++simt_rows;
    const bool first = st.stage == (thr.use_ssv_prefilter ? "ssv" : "msv");
    EXPECT_EQ(counter(st, "sequences"),
              static_cast<double>(stage->n_in - (first ? 1 : 0)))
        << st.stage;
    EXPECT_EQ(stage->cells, pick(ref)->cells) << st.stage;
    EXPECT_LE(counter(st, "cells"), stage->cells) << st.stage;
    EXPECT_GT(counter(st, "cells"), 0.0) << st.stage;
    EXPECT_EQ(st.n_in, stage->n_in) << st.stage;
  }
  EXPECT_EQ(simt_rows, thr.use_ssv_prefilter ? 3u : 2u);
}

std::string gpu_case_name(
    const ::testing::TestParamInfo<GpuDifferential::ParamType>& info) {
  static const char* const kSsv[] = {"SsvOff", "SsvDefault", "SsvTight"};
  static const char* const kDevs[] = {"K40Shared", "K40Auto", "TwoFermis",
                                      "FourFermis"};
  return std::string(kSsv[static_cast<int>(std::get<0>(info.param))]) +
         kDevs[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    Engines, GpuDifferential,
    ::testing::Combine(::testing::Values(SsvMode::kOff, SsvMode::kDefault,
                                         SsvMode::kTight),
                       ::testing::Values(Devices::kK40Shared,
                                         Devices::kK40Auto,
                                         Devices::kTwoFermis,
                                         Devices::kFourFermis)),
    gpu_case_name);

}  // namespace
