// The warp-synchronous kernels must reproduce the scalar reference scores
// bit-for-bit on both simulated architectures, for every parameter
// placement, across model sizes that exercise chunk-boundary geometry.
#include <gtest/gtest.h>

#include "bio/synthetic.hpp"
#include "cpu/msv_scalar.hpp"
#include "cpu/vit_scalar.hpp"
#include "gpu/search.hpp"
#include "hmm/generator.hpp"
#include "hmm/sampler.hpp"

namespace {

using namespace finehmm;

struct GpuFixture {
  hmm::Plan7Hmm model;
  hmm::SearchProfile prof;
  profile::MsvProfile msv;
  profile::VitProfile vit;
  bio::SequenceDatabase db;
  bio::PackedDatabase packed;

  GpuFixture(int M, std::size_t n_seqs, std::uint64_t seed = 11,
             double delete_extend = 0.5)
      : model([&] {
          hmm::RandomHmmSpec spec;
          spec.length = M;
          spec.seed = seed;
          spec.delete_extend = delete_extend;
          return hmm::generate_hmm(spec);
        }()),
        prof(model, hmm::AlignMode::kLocalMultihit, 350),
        msv(prof),
        vit(prof) {
    Pcg32 rng(seed * 31 + 1);
    for (std::size_t i = 0; i < n_seqs; ++i) {
      if (i % 3 == 0) {
        db.add(hmm::sample_homolog(model, rng));
      } else {
        db.add(bio::random_sequence(20 + rng.below(400), rng));
      }
    }
    packed = bio::PackedDatabase(db);
  }
};

class GpuKernelEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GpuKernelEquivalence, WarpMsvMatchesScalar) {
  auto [M, placement_int] = GetParam();
  auto placement = static_cast<gpu::ParamPlacement>(placement_int);
  GpuFixture fx(M, 40);
  gpu::GpuSearch search(simt::DeviceSpec::tesla_k40());
  auto result = search.run_msv(fx.msv, fx.packed, placement);
  ASSERT_EQ(result.scores.size(), fx.db.size());
  for (std::size_t s = 0; s < fx.db.size(); ++s) {
    auto ref = cpu::msv_scalar(fx.msv, fx.db[s].codes.data(),
                               fx.db[s].length());
    EXPECT_EQ(result.overflow[s] != 0, ref.overflowed) << "seq " << s;
    EXPECT_FLOAT_EQ(result.scores[s], ref.score_nats) << "seq " << s;
  }
}

TEST_P(GpuKernelEquivalence, WarpViterbiMatchesScalar) {
  auto [M, placement_int] = GetParam();
  auto placement = static_cast<gpu::ParamPlacement>(placement_int);
  GpuFixture fx(M, 30);
  gpu::GpuSearch search(simt::DeviceSpec::tesla_k40());
  auto result = search.run_vit(fx.vit, fx.packed, placement);
  for (std::size_t s = 0; s < fx.db.size(); ++s) {
    auto ref = cpu::vit_scalar(fx.vit, fx.db[s].codes.data(),
                               fx.db[s].length());
    EXPECT_FLOAT_EQ(result.scores[s], ref.score_nats)
        << "seq " << s << " M=" << M;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndPlacements, GpuKernelEquivalence,
    ::testing::Combine(::testing::Values(5, 31, 32, 33, 64, 100, 200),
                       ::testing::Values(0, 1)));

TEST(GpuKernels, ViterbiHighDeleteLazyFMatchesScalar) {
  GpuFixture fx(96, 25, 77, /*delete_extend=*/0.85);
  gpu::GpuSearch search(simt::DeviceSpec::tesla_k40());
  auto result =
      search.run_vit(fx.vit, fx.packed, gpu::ParamPlacement::kShared);
  for (std::size_t s = 0; s < fx.db.size(); ++s) {
    auto ref = cpu::vit_scalar(fx.vit, fx.db[s].codes.data(),
                               fx.db[s].length());
    EXPECT_FLOAT_EQ(result.scores[s], ref.score_nats) << "seq " << s;
  }
  EXPECT_GT(result.counters.lazyf_inner, result.counters.residues)
      << "high-delete models must trigger extra Lazy-F iterations";
}

TEST(GpuKernels, FermiProducesIdenticalScores) {
  GpuFixture fx(100, 25);
  gpu::GpuSearch kepler(simt::DeviceSpec::tesla_k40());
  gpu::GpuSearch fermi(simt::DeviceSpec::gtx580());
  auto a = kepler.run_msv(fx.msv, fx.packed, gpu::ParamPlacement::kShared);
  auto b = fermi.run_msv(fx.msv, fx.packed, gpu::ParamPlacement::kShared);
  for (std::size_t s = 0; s < fx.db.size(); ++s)
    EXPECT_FLOAT_EQ(a.scores[s], b.scores[s]);
  // Fermi has no shuffle: its reductions go through shared memory.
  EXPECT_EQ(b.counters.shuffles, 0u);
  EXPECT_GT(a.counters.shuffles, 0u);
}

TEST(GpuKernels, SyncKernelMatchesScalarAndCountsSyncs) {
  GpuFixture fx(64, 20);
  gpu::GpuSearch search(simt::DeviceSpec::tesla_k40());
  auto result = search.run_msv_sync(fx.msv, fx.packed,
                                    gpu::ParamPlacement::kShared, 4);
  for (std::size_t s = 0; s < fx.db.size(); ++s) {
    auto ref = cpu::msv_scalar(fx.msv, fx.db[s].codes.data(),
                               fx.db[s].length());
    EXPECT_FLOAT_EQ(result.scores[s], ref.score_nats) << "seq " << s;
  }
  // At least two barriers per DP row (Fig. 4).
  EXPECT_GE(result.counters.syncs, 2 * result.counters.residues);
}

TEST(GpuKernels, WarpKernelNeverSynchronizes) {
  GpuFixture fx(64, 20);
  gpu::GpuSearch search(simt::DeviceSpec::tesla_k40());
  auto result =
      search.run_msv(fx.msv, fx.packed, gpu::ParamPlacement::kShared);
  EXPECT_EQ(result.counters.syncs, 0u);
}

TEST(GpuKernels, ItemSubsetScoresOnlyThoseSequences) {
  GpuFixture fx(48, 30);
  gpu::GpuSearch search(simt::DeviceSpec::tesla_k40());
  std::vector<std::size_t> items = {3, 7, 21};
  auto result =
      search.run_vit(fx.vit, fx.packed, gpu::ParamPlacement::kShared, &items);
  ASSERT_EQ(result.scores.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    auto ref = cpu::vit_scalar(fx.vit, fx.db[items[i]].codes.data(),
                               fx.db[items[i]].length());
    EXPECT_FLOAT_EQ(result.scores[i], ref.score_nats);
  }
}

TEST(MultiGpu, PartitionCoversAllSequencesOnce) {
  GpuFixture fx(32, 57);
  for (std::size_t n_dev : {1u, 2u, 3u, 4u}) {
    auto parts = gpu::partition_by_residues(fx.packed, n_dev);
    ASSERT_EQ(parts.size(), n_dev);
    std::vector<int> seen(fx.db.size(), 0);
    for (const auto& p : parts)
      for (auto s : p) seen[s]++;
    for (auto c : seen) EXPECT_EQ(c, 1);
  }
}

TEST(MultiGpu, PartitionBalancesResidues) {
  GpuFixture fx(32, 200);
  auto parts = gpu::partition_by_residues(fx.packed, 4);
  std::vector<std::uint64_t> residues(4, 0);
  for (std::size_t d = 0; d < 4; ++d)
    for (auto s : parts[d]) residues[d] += fx.packed.length(s);
  std::uint64_t total = fx.packed.total_residues();
  for (auto r : residues) {
    EXPECT_GT(r, total / 4 / 2);
    EXPECT_LT(r, total / 4 * 2);
  }
}

TEST(MultiGpu, PartitionOfAnItemListKeepsItsOrder) {
  GpuFixture fx(32, 120);
  std::vector<std::size_t> items;
  for (std::size_t s = 1; s < fx.db.size(); s += 3) items.push_back(s);
  for (std::size_t n_dev : {1u, 2u, 4u}) {
    auto parts = gpu::partition_by_residues(fx.packed, n_dev, &items);
    ASSERT_EQ(parts.size(), n_dev);
    std::vector<std::size_t> joined;
    for (const auto& p : parts) joined.insert(joined.end(), p.begin(), p.end());
    EXPECT_EQ(joined, items) << n_dev;  // contiguous slices, item order
    for (const auto& p : parts) {
      EXPECT_FALSE(p.empty()) << n_dev;
    }
  }
}

TEST(MultiGpu, FourFermisMatchSingleDeviceScores) {
  GpuFixture fx(64, 40);
  gpu::GpuSearch single(simt::DeviceSpec::tesla_k40());
  auto ref = single.run_msv(fx.msv, fx.packed, gpu::ParamPlacement::kShared);
  // Each Fermi scores its residue slice; stitched back by sequence id the
  // scores must cover the database once and match the single K40.
  const auto parts = gpu::partition_by_residues(fx.packed, 4);
  std::vector<float> multi(fx.db.size(), -1.0f);
  std::vector<int> scored(fx.db.size(), 0);
  for (const auto& part : parts) {
    gpu::GpuSearch fermi(simt::DeviceSpec::gtx580());
    auto r = fermi.run_msv(fx.msv, fx.packed, gpu::ParamPlacement::kShared,
                           &part);
    ASSERT_EQ(r.scores.size(), part.size());
    for (std::size_t i = 0; i < part.size(); ++i) {
      multi[part[i]] = r.scores[i];
      EXPECT_EQ(r.overflow[i], ref.overflow[part[i]]) << part[i];
      ++scored[part[i]];
    }
  }
  for (std::size_t s = 0; s < ref.scores.size(); ++s) {
    EXPECT_EQ(scored[s], 1) << s;
    EXPECT_EQ(multi[s], ref.scores[s]) << s;
  }
}

TEST(LaunchPlan, MsvSharedIsFullOccupancyForSmallModels) {
  auto dev = simt::DeviceSpec::tesla_k40();
  auto plan = gpu::plan_launch(gpu::Stage::kMsv, gpu::ParamPlacement::kShared,
                               200, dev);
  ASSERT_TRUE(plan.feasible);
  EXPECT_DOUBLE_EQ(plan.occ.fraction, 1.0);  // §IV: 100% below size 400
}

TEST(LaunchPlan, MsvSharedOccupancyDropsForLargeModels) {
  auto dev = simt::DeviceSpec::tesla_k40();
  auto small = gpu::plan_launch(gpu::Stage::kMsv,
                                gpu::ParamPlacement::kShared, 200, dev);
  auto big = gpu::plan_launch(gpu::Stage::kMsv, gpu::ParamPlacement::kShared,
                              1528, dev);
  ASSERT_TRUE(big.feasible);  // 1528 still fits in shared (§IV)
  EXPECT_LT(big.occ.fraction, small.occ.fraction);
  auto too_big = gpu::plan_launch(gpu::Stage::kMsv,
                                  gpu::ParamPlacement::kShared, 2405, dev);
  auto global_big = gpu::plan_launch(gpu::Stage::kMsv,
                                     gpu::ParamPlacement::kGlobal, 2405, dev);
  ASSERT_TRUE(global_big.feasible);
  // Global placement must beat shared for the largest paper model.
  if (too_big.feasible) {
    EXPECT_GT(global_big.occ.fraction, too_big.occ.fraction);
  }
}

TEST(LaunchPlan, ViterbiOccupancyCapsAt50PercentOnKepler) {
  auto dev = simt::DeviceSpec::tesla_k40();
  auto plan = gpu::plan_launch(gpu::Stage::kViterbi,
                               gpu::ParamPlacement::kShared, 48, dev);
  ASSERT_TRUE(plan.feasible);
  EXPECT_LE(plan.occ.fraction, 0.5);  // §IV: registers cap Viterbi at 50%
  EXPECT_DOUBLE_EQ(plan.occ.fraction, 0.5);
}

}  // namespace
