// The hmmsearch acceleration pipeline: filtering behaviour, CPU/GPU
// agreement, sensitivity (all planted homologs found).
#include <gtest/gtest.h>

#include "hmm/generator.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/workload.hpp"

namespace {

using namespace finehmm;
using pipeline::HmmSearch;
using pipeline::WorkloadSpec;

struct PipelineFixture {
  hmm::Plan7Hmm model;
  bio::SequenceDatabase db;
  bio::PackedDatabase packed;

  explicit PipelineFixture(int M = 100, std::size_t n = 600,
                           double hom_frac = 0.02)
      : model(hmm::paper_model(M)) {
    WorkloadSpec spec;
    spec.db.name = "test";
    spec.db.n_sequences = n;
    spec.db.log_length_mu = 5.0;
    spec.db.log_length_sigma = 0.4;
    spec.db.seed = 99;
    spec.homolog_fraction = hom_frac;
    db = pipeline::make_workload(model, spec);
    packed = bio::PackedDatabase(db);
  }
};

TEST(Pipeline, MsvPassRateTracksThreshold) {
  PipelineFixture fx(100, 800, 0.0);  // pure null database
  HmmSearch search(fx.model);
  auto result = search.run_cpu(fx.db);
  // With P <= 0.02 on null sequences, about 2% should pass (the paper's
  // Fig. 1 reports 2.2% on Env_nr).
  EXPECT_GT(result.msv.pass_rate(), 0.002);
  EXPECT_LT(result.msv.pass_rate(), 0.08);
  // And almost nothing should reach Forward.
  EXPECT_LT(static_cast<double>(result.fwd.n_in) / result.msv.n_in, 0.01);
}

TEST(Pipeline, FindsPlantedHomologs) {
  PipelineFixture fx(100, 400, 0.03);
  HmmSearch search(fx.model);
  auto result = search.run_cpu(fx.db);
  // Count planted homologs found among hits.
  std::size_t planted = 0, found = 0;
  for (std::size_t s = 0; s < fx.db.size(); ++s)
    if (fx.db[s].name.rfind("homolog_", 0) == 0) ++planted;
  for (const auto& hit : result.hits)
    if (hit.name.rfind("homolog_", 0) == 0) ++found;
  ASSERT_GT(planted, 0u);
  // Full-length homologs are easy; demand high sensitivity.
  EXPECT_GE(static_cast<double>(found) / planted, 0.9);
}

TEST(Pipeline, HitsAreSortedByEvalue) {
  PipelineFixture fx(80, 400, 0.05);
  HmmSearch search(fx.model);
  auto result = search.run_cpu(fx.db);
  for (std::size_t i = 1; i < result.hits.size(); ++i)
    EXPECT_LE(result.hits[i - 1].evalue, result.hits[i].evalue);
}

TEST(Pipeline, GpuEngineFindsTheSameHits) {
  PipelineFixture fx(64, 300, 0.04);
  HmmSearch search(fx.model);
  auto cpu_result = search.run_cpu(fx.db);
  auto gpu_result = search.run_gpu({simt::DeviceSpec::tesla_k40()}, fx.db,
                                   fx.packed, gpu::ParamPlacement::kShared);
  ASSERT_EQ(cpu_result.hits.size(), gpu_result.hits.size());
  for (std::size_t i = 0; i < cpu_result.hits.size(); ++i) {
    EXPECT_EQ(cpu_result.hits[i].seq_index, gpu_result.hits[i].seq_index);
    EXPECT_FLOAT_EQ(cpu_result.hits[i].fwd_bits, gpu_result.hits[i].fwd_bits);
  }
  // Stage pass counts must agree exactly (bit-identical filters).
  EXPECT_EQ(cpu_result.msv.n_passed, gpu_result.msv.n_passed);
  EXPECT_EQ(cpu_result.vit.n_passed, gpu_result.vit.n_passed);
}

TEST(Pipeline, GpuGlobalPlacementAgreesWithShared) {
  PipelineFixture fx(64, 200, 0.04);
  HmmSearch search(fx.model);
  auto a = search.run_gpu({simt::DeviceSpec::tesla_k40()}, fx.db, fx.packed,
                          gpu::ParamPlacement::kShared);
  auto b = search.run_gpu({simt::DeviceSpec::tesla_k40()}, fx.db, fx.packed,
                          gpu::ParamPlacement::kGlobal);
  EXPECT_EQ(a.msv.n_passed, b.msv.n_passed);
  EXPECT_EQ(a.hits.size(), b.hits.size());
}

TEST(Pipeline, MsvDominatesExecutionTime) {
  PipelineFixture fx(100, 800, 0.01);
  HmmSearch search(fx.model);
  auto r = search.run_cpu(fx.db);
  // Fig. 1: MSV is ~80% of the pipeline; at minimum it must dominate
  // cells evaluated by a wide margin.
  EXPECT_GT(r.msv.cells, 10.0 * r.vit.cells);
}

TEST(Workload, HomologFractionControlsPlantedCount) {
  auto model = hmm::paper_model(60);
  WorkloadSpec spec;
  spec.db.n_sequences = 500;
  spec.homolog_fraction = 0.1;
  auto db = pipeline::make_workload(model, spec);
  std::size_t planted = 0;
  for (std::size_t s = 0; s < db.size(); ++s)
    if (db[s].name.rfind("homolog_", 0) == 0) ++planted;
  // Slots are chosen randomly with replacement, so a few collide.
  EXPECT_GT(planted, 30u);
  EXPECT_LE(planted, 50u);
}

}  // namespace
