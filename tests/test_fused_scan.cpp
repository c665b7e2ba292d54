// Fused many-model scan: the lane-packing auto-tuner and the parity
// contract of docs/multi_model.md — for any model group, at every
// supported tier, the fused MSV/SSV sweep and the whole fused hmmscan
// pipeline must match N independent single-model runs bit for bit.
//
// The kernel tests drive the saturation edges deliberately (per-member
// "hot" sequences of the member's cheapest residue) because the fused
// trigger/overflow bookkeeping is exactly where per-model state could
// leak across lane spans.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bio/seq_db_io.hpp"
#include "bio/synthetic.hpp"
#include "cpu/msv_group.hpp"
#include "cpu/msv_scalar.hpp"
#include "cpu/simd_backend/backend.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "cpu/ssv.hpp"
#include "hmm/generator.hpp"
#include "hmm/model_group.hpp"
#include "hmm/profile.hpp"
#include "hmm/sampler.hpp"
#include "obs/recorder.hpp"
#include "obs/telemetry.hpp"
#include "pipeline/multi_search.hpp"
#include "pipeline/report.hpp"
#include "profile/msv_profile.hpp"
#include "util/error.hpp"

namespace {

using namespace finehmm;
using cpu::SimdTier;

// ---------------------------------------------------------------------
// Auto-tuner unit tests (hmm::plan_model_groups / length_histogram).
// ---------------------------------------------------------------------

std::vector<std::size_t> coverage(const hmm::FusePlan& plan,
                                  std::size_t n_models) {
  std::vector<std::size_t> seen(n_models, 0);
  for (const auto& g : plan.groups)
    for (std::size_t m : g.members) seen.at(m) += 1;
  for (std::size_t m : plan.unfused) seen.at(m) += 1;
  return seen;
}

TEST(FusePlanner, CoversEveryModelExactlyOnceAtEveryLaneWidth) {
  const std::vector<int> lengths = {60,  75,  48,  90,  110, 130, 24,
                                    33,  500, 61,  58,  3000, 47, 95,
                                    140, 70,  55,  88,  120, 42};
  for (int lanes : {16, 32, 64}) {
    auto plan = hmm::plan_model_groups(lengths, lanes);
    EXPECT_EQ(plan.lane_width, lanes);
    for (std::size_t n : coverage(plan, lengths.size()))
      EXPECT_EQ(n, 1u) << "lanes=" << lanes;
    for (const auto& g : plan.groups) {
      EXPECT_GE(g.Q, 1);
      EXPECT_GE(g.members.size(), 2u);
      EXPECT_LE(g.lanes_used, lanes);
      EXPECT_GT(g.occupancy, 0.0);
      EXPECT_LE(g.occupancy, 1.0);
      int demand = 0;
      for (std::size_t m : g.members) demand += lengths[m] / g.Q + 1;
      EXPECT_EQ(demand, g.lanes_used);
    }
    // Deterministic: same inputs, same plan.
    auto again = hmm::plan_model_groups(lengths, lanes);
    ASSERT_EQ(again.groups.size(), plan.groups.size());
    for (std::size_t i = 0; i < plan.groups.size(); ++i) {
      EXPECT_EQ(again.groups[i].members, plan.groups[i].members);
      EXPECT_EQ(again.groups[i].Q, plan.groups[i].Q);
    }
    EXPECT_EQ(again.unfused, plan.unfused);
  }
}

TEST(FusePlanner, PacksManyShortModelsIntoOneWideGroup) {
  std::vector<int> lengths(32, 60);
  auto plan = hmm::plan_model_groups(lengths, 32);
  ASSERT_EQ(plan.groups.size(), 1u);
  EXPECT_TRUE(plan.unfused.empty());
  EXPECT_EQ(plan.fused_models(), 32u);
  EXPECT_EQ(plan.groups[0].lanes_used, 32);
  // One lane per model needs Q > 60; minimal Q keeps occupancy high.
  EXPECT_EQ(plan.groups[0].Q, 61);
  EXPECT_GT(plan.lane_occupancy(), 0.9);
  EXPECT_DOUBLE_EQ(plan.models_per_group(), 32.0);
}

TEST(FusePlanner, LongModelsStayUnfusedUnlessForced) {
  // Default threshold at 16 lanes is 32 * 16 = 512 positions.
  const std::vector<int> lengths = {2000, 1900, 2100, 1800};
  auto plan = hmm::plan_model_groups(lengths, 16);
  EXPECT_TRUE(plan.groups.empty());
  EXPECT_EQ(plan.unfused.size(), lengths.size());

  hmm::FuseOptions opts;
  opts.forced = true;
  opts.max_table_bytes = 16 * 1024 * 1024;  // don't let the cap interfere
  auto forced = hmm::plan_model_groups(lengths, 16, opts);
  EXPECT_FALSE(forced.groups.empty());
  EXPECT_EQ(forced.fused_models(), lengths.size());
}

TEST(FusePlanner, DisabledPutsEverythingUnfused) {
  // Groups of at most one model: nothing is worth fusing.
  hmm::FuseOptions opts;
  opts.max_group_models = 1;
  auto plan = hmm::plan_model_groups({50, 60, 70, 80}, 32, opts);
  EXPECT_TRUE(plan.groups.empty());
  EXPECT_EQ(plan.unfused.size(), 4u);
  EXPECT_EQ(plan.fused_models(), 0u);
  EXPECT_DOUBLE_EQ(plan.lane_occupancy(), 0.0);
}

TEST(FusePlanner, TableByteCapBoundsEveryGroup) {
  std::vector<int> lengths;
  for (int i = 0; i < 24; ++i) lengths.push_back(200 + 13 * i);
  hmm::FuseOptions opts;
  opts.max_table_bytes = 64 * 1024;
  auto plan = hmm::plan_model_groups(lengths, 64, opts);
  for (std::size_t n : coverage(plan, lengths.size())) EXPECT_EQ(n, 1u);
  for (const auto& g : plan.groups)
    EXPECT_LE(static_cast<std::size_t>(bio::kKp) * g.Q * 64,
              opts.max_table_bytes);
}

TEST(FusePlanner, MaxGroupModelsCapsChunkSize) {
  std::vector<int> lengths(20, 45);
  hmm::FuseOptions opts;
  opts.max_group_models = 5;
  auto plan = hmm::plan_model_groups(lengths, 64, opts);
  for (std::size_t n : coverage(plan, lengths.size())) EXPECT_EQ(n, 1u);
  for (const auto& g : plan.groups) EXPECT_LE(g.members.size(), 5u);
  EXPECT_EQ(plan.fused_models(), 20u);
}

TEST(FusePlanner, LengthHistogramDoublesBucketWidths) {
  const std::vector<int> lengths = {5, 17, 40, 45, 80, 300, 300, 2000};
  auto buckets = hmm::length_histogram(lengths);
  std::size_t total = 0;
  for (const auto& b : buckets) {
    EXPECT_LT(b.lo, b.hi);
    EXPECT_GT(b.count, 0u);
    total += b.count;
  }
  ASSERT_GE(buckets.size(), 4u);
  EXPECT_EQ(total, lengths.size());
  // Buckets are ordered and non-overlapping.
  for (std::size_t i = 1; i < buckets.size(); ++i)
    EXPECT_GE(buckets[i].lo, buckets[i - 1].hi);
}

// ---------------------------------------------------------------------
// Kernel parity: fused group sweep vs. the scalar MSV / SSV references.
// ---------------------------------------------------------------------

struct ModelFx {
  hmm::Plan7Hmm model;
  hmm::SearchProfile prof;
  profile::MsvProfile msv;

  ModelFx(int M, std::uint64_t seed)
      : model([&] {
          hmm::RandomHmmSpec spec;
          spec.length = M;
          spec.seed = seed;
          return hmm::generate_hmm(spec);
        }()),
        prof(model, hmm::AlignMode::kLocalMultihit, 400),
        msv(prof) {}
};

std::vector<std::unique_ptr<ModelFx>> make_models(
    const std::vector<int>& lengths) {
  std::vector<std::unique_ptr<ModelFx>> fxs;
  std::uint64_t seed = 7;
  for (int M : lengths)
    fxs.push_back(std::make_unique<ModelFx>(M, seed++));
  return fxs;
}

/// Random sequences plus, per member, a long run of that member's
/// cheapest residue — each one saturates a different lane span, so the
/// per-model overflow freeze is exercised while neighbours keep scoring.
std::vector<bio::Sequence> parity_sequences(
    const std::vector<std::unique_ptr<ModelFx>>& fxs) {
  Pcg32 rng(99);
  std::vector<bio::Sequence> seqs;
  for (int rep = 0; rep < 5; ++rep)
    seqs.push_back(bio::random_sequence(1 + rng.below(400), rng));
  seqs.push_back(bio::random_sequence(1, rng));
  for (const auto& fx : fxs) {
    int best = 0;
    long best_cost = -1;
    for (int x = 0; x < bio::kK; ++x) {
      const std::uint8_t* row = fx->msv.linear_row(x);
      long cost = 0;
      for (int k = 0; k < fx->msv.length(); ++k) cost += row[k];
      if (best_cost < 0 || cost < best_cost) {
        best_cost = cost;
        best = x;
      }
    }
    bio::Sequence hot;
    hot.name = "hot";
    hot.codes.assign(900, static_cast<std::uint8_t>(best));
    seqs.push_back(std::move(hot));
  }
  return seqs;
}

void check_group_parity(const std::vector<std::unique_ptr<ModelFx>>& fxs,
                        const std::vector<std::size_t>& members, int Q,
                        SimdTier tier, int lane_width,
                        const std::vector<bio::Sequence>& seqs) {
  std::vector<const profile::MsvProfile*> profs;
  for (std::size_t m : members) profs.push_back(&fxs[m]->msv);
  cpu::FusedMsvGroup group(profs, lane_width, Q);
  cpu::FusedMsvFilter filter(group, tier);
  std::vector<cpu::FilterResult> fused(group.size());

  for (const auto& seq : seqs) {
    filter.msv(seq.codes.data(), seq.length(), fused.data());
    for (std::size_t i = 0; i < members.size(); ++i) {
      auto ref = cpu::msv_scalar(fxs[members[i]]->msv, seq.codes.data(),
                                 seq.length());
      EXPECT_EQ(ref.overflowed, fused[i].overflowed)
          << "msv tier=" << cpu::simd_tier_name(tier) << " Q=" << Q
          << " member=" << i << " L=" << seq.length();
      EXPECT_EQ(ref.score_nats, fused[i].score_nats)
          << "msv tier=" << cpu::simd_tier_name(tier) << " Q=" << Q
          << " member=" << i << " L=" << seq.length();
    }
    filter.ssv(seq.codes.data(), seq.length(), fused.data());
    for (std::size_t i = 0; i < members.size(); ++i) {
      auto ref = cpu::ssv_scalar(fxs[members[i]]->msv, seq.codes.data(),
                                 seq.length());
      EXPECT_EQ(ref.overflowed, fused[i].overflowed)
          << "ssv tier=" << cpu::simd_tier_name(tier) << " Q=" << Q
          << " member=" << i << " L=" << seq.length();
      EXPECT_EQ(ref.score_nats, fused[i].score_nats)
          << "ssv tier=" << cpu::simd_tier_name(tier) << " Q=" << Q
          << " member=" << i << " L=" << seq.length();
    }
  }
}

TEST(FusedKernels, PlannedGroupsMatchSingleModelAtEverySupportedTier) {
  const std::vector<int> lengths = {48, 60, 75, 90, 110, 130, 24, 33};
  auto fxs = make_models(lengths);
  auto seqs = parity_sequences(fxs);
  for (SimdTier tier : cpu::supported_simd_tiers()) {
    const int lane_width =
        cpu::backend::tier_kernels(cpu::resolve_simd_tier(tier)).u8_lanes;
    hmm::FuseOptions opts;
    opts.forced = true;
    auto plan = hmm::plan_model_groups(lengths, lane_width, opts);
    ASSERT_FALSE(plan.groups.empty())
        << "tier=" << cpu::simd_tier_name(tier);
    for (const auto& g : plan.groups)
      check_group_parity(fxs, g.members, g.Q, tier, lane_width, seqs);
  }
}

TEST(FusedKernels, MultiLaneSpansMatchSingleModel) {
  // A hand-built shape where every member spans several lanes, so the
  // inter-lane shift crosses span boundaries many times per row.
  const std::vector<int> lengths = {48, 90, 60};
  auto fxs = make_models(lengths);
  auto seqs = parity_sequences(fxs);
  for (SimdTier tier : cpu::supported_simd_tiers()) {
    const int lane_width =
        cpu::backend::tier_kernels(cpu::resolve_simd_tier(tier)).u8_lanes;
    // Q=31: lane demand 2 + 3 + 2 = 7 <= 16 <= any lane width.
    check_group_parity(fxs, {0, 1, 2}, 31, tier, lane_width, seqs);
    // Q=13: demand 3 + 7 + 5 = 15, still within the narrowest tier.
    check_group_parity(fxs, {0, 1, 2}, 13, tier, lane_width, seqs);
  }
}

TEST(FusedKernels, SpanWiderThanTheLaneBudgetThrows) {
  // M/Q + 1 = 257 lanes (or 256 for a last member) must be refused
  // before it is narrowed to a byte span, not packed past the table.
  auto fxs = make_models({256, 10});
  EXPECT_THROW(cpu::FusedMsvGroup({&fxs[0]->msv}, 16, 1), Error);
  EXPECT_THROW(cpu::FusedMsvGroup({&fxs[0]->msv, &fxs[1]->msv}, 64, 1),
               Error);
  // The lane total, too: 6 + 5 lanes exceed 8.
  EXPECT_THROW(cpu::FusedMsvGroup({&fxs[1]->msv, &fxs[1]->msv}, 8, 2),
               Error);
  EXPECT_NO_THROW(cpu::FusedMsvGroup({&fxs[1]->msv, &fxs[1]->msv}, 16, 2));
}

TEST(FusedKernels, ZeroLengthSequenceYieldsDefaultNoHit) {
  auto fxs = make_models({40, 55});
  const int lane_width =
      cpu::backend::tier_kernels(cpu::resolve_simd_tier(
                                     cpu::active_simd_tier()))
          .u8_lanes;
  cpu::FusedMsvGroup group({&fxs[0]->msv, &fxs[1]->msv}, lane_width, 56);
  cpu::FusedMsvFilter filter(group);
  std::vector<cpu::FilterResult> fused(2);
  filter.msv(nullptr, 0, fused.data());
  for (const auto& r : fused) {
    EXPECT_FALSE(r.overflowed);
    EXPECT_EQ(r.score_nats, -std::numeric_limits<float>::infinity());
  }
}

// ---------------------------------------------------------------------
// Pipeline parity: MultiSearch::run_cpu_fused vs. N sequential run_cpu
// scans — hit lists, stage counts, and tblout output bit-identical.
// ---------------------------------------------------------------------

bio::SequenceDatabase scan_db(std::size_t n, std::uint64_t seed) {
  bio::SyntheticDbSpec spec;
  spec.name = "test";
  spec.n_sequences = n;
  spec.min_length = 10;
  spec.max_length = 600;
  spec.seed = seed;
  auto db = bio::generate_database(spec);
  bio::Sequence empty;
  empty.name = "empty";
  db.add(std::move(empty));  // L=0 must flow through the fused sweep
  return db;
}

pipeline::MultiSearch make_multi(int n_models) {
  std::vector<hmm::Plan7Hmm> models;
  Pcg32 rng(1234);
  for (int i = 0; i < n_models; ++i) {
    hmm::RandomHmmSpec spec;
    spec.length = 40 + static_cast<int>(rng.below(80));
    spec.seed = 100 + static_cast<std::uint64_t>(i);
    models.push_back(hmm::generate_hmm(spec));
  }
  stats::CalibrateOptions calib;
  calib.n_samples = 40;
  pipeline::Thresholds thr;
  thr.use_ssv_prefilter = true;
  thr.report_evalue = 1e6;  // report plenty of hits so equality is strict
  return pipeline::MultiSearch(std::move(models), thr, calib);
}

void expect_results_identical(
    const std::vector<pipeline::ModelResult>& ref,
    const std::vector<pipeline::ModelResult>& got) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t m = 0; m < ref.size(); ++m) {
    const auto& a = ref[m].result;
    const auto& b = got[m].result;
    EXPECT_EQ(ref[m].model_name, got[m].model_name);
    EXPECT_EQ(a.ssv.n_in, b.ssv.n_in) << "model=" << m;
    EXPECT_EQ(a.ssv.n_passed, b.ssv.n_passed) << "model=" << m;
    EXPECT_EQ(a.msv.n_in, b.msv.n_in) << "model=" << m;
    EXPECT_EQ(a.msv.n_passed, b.msv.n_passed) << "model=" << m;
    EXPECT_EQ(a.vit.n_in, b.vit.n_in) << "model=" << m;
    EXPECT_EQ(a.vit.n_passed, b.vit.n_passed) << "model=" << m;
    EXPECT_EQ(a.fwd.n_in, b.fwd.n_in) << "model=" << m;
    EXPECT_EQ(a.fwd.n_passed, b.fwd.n_passed) << "model=" << m;
    ASSERT_EQ(a.hits.size(), b.hits.size()) << "model=" << m;
    for (std::size_t i = 0; i < a.hits.size(); ++i) {
      EXPECT_EQ(a.hits[i].seq_index, b.hits[i].seq_index);
      EXPECT_EQ(a.hits[i].name, b.hits[i].name);
      EXPECT_EQ(a.hits[i].msv_bits, b.hits[i].msv_bits);
      EXPECT_EQ(a.hits[i].vit_bits, b.hits[i].vit_bits);
      EXPECT_EQ(a.hits[i].fwd_bits, b.hits[i].fwd_bits);
      EXPECT_EQ(a.hits[i].bias_bits, b.hits[i].bias_bits);
      EXPECT_EQ(a.hits[i].pvalue, b.hits[i].pvalue);
      EXPECT_EQ(a.hits[i].evalue, b.hits[i].evalue);
    }
  }
}

TEST(FusedPipeline, FusedHitsAndTbloutMatchSequentialScan) {
  auto multi = make_multi(32);
  auto db = scan_db(50, 23);

  auto serial = multi.run_cpu(db);
  obs::ScanTelemetry telemetry;
  auto fused = multi.run_cpu_fused(db, 3, nullptr, &telemetry);
  expect_results_identical(serial, fused);

  // The machine-readable table must match byte for byte, model by model.
  pipeline::DbSummary summary{db.size(), db.total_residues()};
  for (std::size_t m = 0; m < serial.size(); ++m) {
    std::ostringstream want, have;
    pipeline::write_tblout(want, serial[m].result,
                           multi.search(m).profile(), summary);
    pipeline::write_tblout(have, fused[m].result,
                           multi.search(m).profile(), summary);
    EXPECT_EQ(want.str(), have.str()) << "model=" << m;
  }

  // Telemetry: the batch snapshot reports the fused engine and the
  // lane-occupancy counters on the msv stage.
  EXPECT_EQ(telemetry.engine, "cpu_fused");
  double groups = 0, fused_models = 0, occupancy = -1;
  for (const auto& st : telemetry.stages) {
    if (st.stage != "msv") continue;
    for (const auto& [key, value] : st.counters) {
      if (key == "fuse.groups") groups = value;
      if (key == "fuse.fused_models") fused_models = value;
      if (key == "fuse.lane_occupancy") occupancy = value;
    }
  }
  EXPECT_GE(groups, 1.0);
  EXPECT_EQ(fused_models, 32.0);
  EXPECT_GT(occupancy, 0.0);
  EXPECT_LE(occupancy, 1.0);
}

TEST(FusedPipeline, ExplicitPlanAndAutoPlanAgree) {
  auto multi = make_multi(12);
  auto db = scan_db(30, 5);
  const int lane_width =
      cpu::backend::tier_kernels(cpu::resolve_simd_tier(
                                     cpu::active_simd_tier()))
          .u8_lanes;
  auto plan = hmm::plan_model_groups(multi.model_lengths(), lane_width);
  auto with_plan = multi.run_cpu_fused(db, 2, &plan);
  auto auto_plan = multi.run_cpu_fused(db, 2);
  expect_results_identical(with_plan, auto_plan);
}

TEST(FusedPipeline, EnvOffFallsBackToUnfusedAndStillMatches) {
  auto multi = make_multi(6);
  auto db = scan_db(25, 17);
  auto serial = multi.run_cpu(db);

  // A plan with every model unfused: the sweep scores each on its own.
  hmm::FusePlan plan;
  plan.lane_width = cpu::backend::tier_kernels(cpu::resolve_simd_tier(
                                                   cpu::active_simd_tier()))
                        .u8_lanes;
  for (std::size_t m = 0; m < 6; ++m) plan.unfused.push_back(m);
  obs::ScanTelemetry telemetry;
  auto fused = multi.run_cpu_fused(db, 2, &plan, &telemetry);

  expect_results_identical(serial, fused);
  for (const auto& st : telemetry.stages) {
    if (st.stage != "msv") continue;
    for (const auto& [key, value] : st.counters) {
      if (key == "fuse.groups") {
        EXPECT_EQ(value, 0.0);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Differential: HmmSearch::run_cpu_coalesced vs. one run_cpu per query.
// Per-query thresholds differ — SSV on for some members of one fuse
// group and off for others, domains, alignments, null2 off, a Z override
// — over a database with zero-length sequences; heap and mapped sources,
// 1 and 3 pool threads, no plan / the auto plan / a forced plan.  Every
// per-query result (hits with alignments and domains, stage counts and
// cells) must be bit-identical.
// ---------------------------------------------------------------------

enum class PlanKind { kNone, kAuto, kForce };

struct DifferentialFx {
  std::vector<std::unique_ptr<pipeline::HmmSearch>> searches;
  bio::SequenceDatabase db;

  DifferentialFx() : db(scan_db(60, 31)) {  // scan_db adds an empty seq
    stats::CalibrateOptions calib;
    calib.n_samples = 40;
    Pcg32 rng(4321);
    for (int i = 0; i < 6; ++i) {
      hmm::RandomHmmSpec spec;
      spec.length = 40 + 13 * i;
      spec.seed = 500 + static_cast<std::uint64_t>(i);
      const hmm::Plan7Hmm model = hmm::generate_hmm(spec);
      pipeline::Thresholds thr;
      thr.report_evalue = 1e6;
      thr.use_ssv_prefilter = i % 2 == 0;
      thr.define_domains = i % 3 == 0;
      thr.compute_alignments = i % 3 == 1;
      thr.null2_correction = i != 2;
      if (i == 4) thr.z_override = 12345;
      if (i >= 3) {  // looser gates: more survivors reach the word stages
        thr.msv_p = 0.3;
        thr.vit_p = 0.1;
      }
      searches.push_back(
          std::make_unique<pipeline::HmmSearch>(model, thr, calib));
      if (i % 2 == 0)
        for (int h = 0; h < 2; ++h) db.add(hmm::sample_homolog(model, rng));
    }
    bio::Sequence empty;
    empty.name = "empty_tail";
    db.add(std::move(empty));
  }
};

void expect_alignments_identical(const std::vector<cpu::Alignment>& a,
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

void expect_stage_identical(const pipeline::StageStats& a,
                            const pipeline::StageStats& b, const char* name) {
  EXPECT_EQ(a.n_in, b.n_in) << name;
  EXPECT_EQ(a.n_passed, b.n_passed) << name;
  EXPECT_EQ(a.cells, b.cells) << name;
}

class CoalescedDifferential
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool, PlanKind>> {
 protected:
  /// The fixture's database, heap or mapped per the parameter, and the
  /// parameter's plan (checked to mix SSV-on and SSV-off members).
  void SetUp() override {
    const auto [threads, mapped, plan_kind] = GetParam();
    if (mapped) {
      path_ = ::testing::TempDir() + "finehmm_coalesced_diff_" +
              std::to_string(threads) + "_" +
              std::to_string(static_cast<int>(plan_kind)) + ".fsqdb";
      bio::write_seq_db_file(path_, fx().db);
      mdb_.emplace(path_);
    }
    std::vector<int> lengths;
    for (const auto& s : fx().searches) {
      ptrs_.push_back(s.get());
      lengths.push_back(s->profile().length());
    }
    if (plan_kind == PlanKind::kAuto) {
      plan_ = pipeline::plan_fusion(ptrs_);
      plan_ptr_ = &plan_;
    } else if (plan_kind == PlanKind::kForce) {
      hmm::FuseOptions opts;
      opts.forced = true;
      const int lane_width =
          cpu::backend::tier_kernels(cpu::resolve_simd_tier(
                                         cpu::active_simd_tier()))
              .u8_lanes;
      plan_ = hmm::plan_model_groups(lengths, lane_width, opts);
      plan_ptr_ = &plan_;
    }
    if (plan_ptr_ != nullptr) {
      bool mixed = false;
      for (const auto& g : plan_.groups) {
        std::size_t on = 0;
        for (std::size_t m : g.members)
          on += ptrs_[m]->thresholds().use_ssv_prefilter ? 1 : 0;
        mixed = mixed || (on > 0 && on < g.members.size());
      }
      ASSERT_TRUE(mixed) << "no fuse group mixes SSV-on and SSV-off members";
    }
  }

  void TearDown() override {
    mdb_.reset();
    if (!path_.empty()) std::remove(path_.c_str());
  }

  static const DifferentialFx& fx() {
    static const DifferentialFx fixture;
    return fixture;
  }

  pipeline::ScanSource src() const {
    return mdb_ ? pipeline::ScanSource(*mdb_) : pipeline::ScanSource(fx().db);
  }

  /// Every per-query result (hits with alignments and domains, stage
  /// counts and cells) bit-identical to run_cpu, and the per-thread items
  /// summing back to the stage counts.
  void expect_matches_run_cpu(const pipeline::HmmSearch::CoalescedScan& scan,
                              std::size_t crew) const {
    ASSERT_EQ(scan.per_model.size(), ptrs_.size());
    std::size_t reported = 0, domains = 0, alignments = 0;
    for (std::size_t q = 0; q < ptrs_.size(); ++q) {
      SCOPED_TRACE(q);
      const pipeline::SearchResult ref = ptrs_[q]->run_cpu(src());
      const pipeline::SearchResult& got = scan.per_model[q];
      expect_stage_identical(ref.ssv, got.ssv, "ssv");
      expect_stage_identical(ref.msv, got.msv, "msv");
      expect_stage_identical(ref.vit, got.vit, "vit");
      expect_stage_identical(ref.fwd, got.fwd, "fwd");
      expect_stage_identical(ref.bwd, got.bwd, "bwd");
      ASSERT_EQ(ref.hits.size(), got.hits.size());
      for (std::size_t i = 0; i < ref.hits.size(); ++i) {
        const pipeline::Hit& a = ref.hits[i];
        const pipeline::Hit& b = got.hits[i];
        EXPECT_EQ(a.seq_index, b.seq_index);
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.msv_bits, b.msv_bits);
        EXPECT_EQ(a.vit_bits, b.vit_bits);
        EXPECT_EQ(a.fwd_bits, b.fwd_bits);
        EXPECT_EQ(a.bias_bits, b.bias_bits);
        EXPECT_EQ(a.pvalue, b.pvalue);
        EXPECT_EQ(a.evalue, b.evalue);
        expect_alignments_identical(a.alignments, b.alignments);
        ASSERT_EQ(a.domains.size(), b.domains.size());
        for (std::size_t d = 0; d < a.domains.size(); ++d) {
          EXPECT_EQ(a.domains[d].i_start, b.domains[d].i_start);
          EXPECT_EQ(a.domains[d].i_end, b.domains[d].i_end);
          EXPECT_EQ(a.domains[d].bits, b.domains[d].bits);
          expect_alignments_identical(a.domains[d].alignments,
                                      b.domains[d].alignments);
        }
        alignments += a.alignments.size();
        domains += a.domains.size();
      }
      reported += ref.hits.size();
    }
    // Non-vacuous: the word stages, alignments and decode all ran.
    EXPECT_GT(reported, 0u);
    EXPECT_GT(alignments, 0u);
    EXPECT_GT(domains, 0u);

    // Per-thread items count every (query, non-empty sequence) pair a
    // stage scored on that worker — fused members as much as one-member
    // groups — so they sum back to the stage counts.  Zero-length
    // sequences enter the first active stage unscored.
    std::size_t empties = 0;
    for (std::size_t s = 0; s < src().size(); ++s)
      empties += src().length(s) == 0 ? 1 : 0;
    std::uint64_t want[obs::kStageCount] = {};
    for (std::size_t q = 0; q < ptrs_.size(); ++q) {
      const pipeline::SearchResult& got = scan.per_model[q];
      const bool ssv = ptrs_[q]->thresholds().use_ssv_prefilter;
      if (ssv) want[kSsv] += got.ssv.n_in - empties;
      want[kMsv] += got.msv.n_in - (ssv ? 0 : empties);
      want[kVit] += got.vit.n_in;
      want[kFwd] += got.fwd.n_in;
      want[kBwd] += got.bwd.n_in;
    }
    const std::vector<std::uint64_t> items = item_totals(scan, crew);
    for (int st : {kSsv, kMsv, kVit, kFwd, kBwd})
      EXPECT_EQ(items[st], want[st]) << "stage " << st;
  }

  /// Per-stage items summed over the per-thread rows, each row checked
  /// against its own total.
  static std::vector<std::uint64_t> item_totals(
      const pipeline::HmmSearch::CoalescedScan& scan, std::size_t crew) {
    std::vector<std::uint64_t> items(obs::kStageCount, 0);
    const auto& rows = scan.telemetry.per_thread;
    EXPECT_EQ(rows.size(), crew);
    for (const obs::ThreadTelemetry& row : rows) {
      std::uint64_t row_items = 0;
      for (int st = 0; st < obs::kStageCount; ++st) {
        items[st] += row.stage_items[st];
        row_items += row.stage_items[st];
      }
      EXPECT_EQ(row.sequences_scored, row_items) << "thread " << row.thread;
    }
    return items;
  }

  static constexpr int kSsv = static_cast<int>(obs::Stage::kSsv);
  static constexpr int kMsv = static_cast<int>(obs::Stage::kMsv);
  static constexpr int kVit = static_cast<int>(obs::Stage::kVit);
  static constexpr int kFwd = static_cast<int>(obs::Stage::kFwd);
  static constexpr int kBwd = static_cast<int>(obs::Stage::kBwd);

  std::vector<const pipeline::HmmSearch*> ptrs_;
  hmm::FusePlan plan_;
  const hmm::FusePlan* plan_ptr_ = nullptr;

 private:
  std::string path_;
  std::optional<bio::MappedSeqDb> mdb_;
};

TEST_P(CoalescedDifferential, EveryQueryMatchesRunCpu) {
  ThreadPool pool(std::get<0>(GetParam()));
  const auto scan =
      pipeline::HmmSearch::run_cpu_coalesced(ptrs_, src(), pool, plan_ptr_);
  expect_matches_run_cpu(scan, pool.workers());
}

// A sweep advanced under a yield predicate — one that fires at every
// chunk boundary, and one that fires at random ones — gives way many
// times, and still reproduces the uninterrupted sweep and run_cpu: every
// per-(query, sequence) decision is independent of when its chunk runs.
TEST_P(CoalescedDifferential, YieldedSweepMatchesUninterrupted) {
  ThreadPool pool(std::get<0>(GetParam()));
  const auto whole =
      pipeline::HmmSearch::run_cpu_coalesced(ptrs_, src(), pool, plan_ptr_);
  const std::vector<std::uint64_t> whole_items =
      item_totals(whole, pool.workers());
  // A database chunk is 16 sequences; each worker scores one per advance
  // before it polls.
  const std::size_t chunks = (src().size() + 15) / 16;
  ASSERT_GE(chunks, 4u);

  std::atomic<std::uint64_t> polls{0};
  const std::function<bool()> every = [] { return true; };
  const std::function<bool()> random = [&polls] {
    // splitmix64 over a shared counter: thread-safe, roughly 1 in 3.
    std::uint64_t z = polls.fetch_add(1) + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return (z ^ (z >> 31)) % 3 == 0;
  };
  for (const auto& [name, yield] :
       {std::pair<const char*, const std::function<bool()>*>{"every", &every},
        {"random", &random}}) {
    SCOPED_TRACE(name);
    pipeline::HmmSearch::Sweep sweep(ptrs_, src(), pool, plan_ptr_);
    std::size_t advances = 0;
    while (!sweep.advance(pool, *yield)) {
      ++advances;
      ASSERT_LT(advances, chunks) << "an advance made no progress";
    }
    if (yield == &every) {
      // Every advance stops after at most one chunk per worker.
      EXPECT_GT(advances, 0u);
      EXPECT_GE(advances + 1, (chunks + pool.workers() - 1) / pool.workers());
    }
    const auto got = sweep.finish();
    expect_matches_run_cpu(got, pool.workers());
    EXPECT_EQ(item_totals(got, pool.workers()), whole_items);
    EXPECT_EQ(got.telemetry.engine, whole.telemetry.engine);
    ASSERT_TRUE(got.telemetry.queue.has_value());
    EXPECT_EQ(got.telemetry.queue->enqueued, whole.telemetry.queue->enqueued);
    EXPECT_EQ(got.telemetry.queue->dequeued, got.telemetry.queue->enqueued);
  }
}

std::string differential_case_name(
    const ::testing::TestParamInfo<CoalescedDifferential::ParamType>& info) {
  static const char* const kPlans[] = {"NoPlan", "AutoPlan", "ForcedPlan"};
  return "Threads" + std::to_string(std::get<0>(info.param)) +
         (std::get<1>(info.param) ? "Mapped" : "Heap") +
         kPlans[static_cast<int>(std::get<2>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    Engines, CoalescedDifferential,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{3}),
                       ::testing::Bool(),
                       ::testing::Values(PlanKind::kNone, PlanKind::kAuto,
                                         PlanKind::kForce)),
    differential_case_name);

}  // namespace
