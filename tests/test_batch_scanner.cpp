// BatchScanner: the allocation-free scan contract, the chunked dynamic
// scheduler underneath it, and whole-pipeline equality across tiers.
//
// This file (and the finehmm_simd_tests binary it lives in) replaces the
// global operator new/delete with counting versions, so the zero-
// allocation claim is measured, not asserted: after construction, scoring
// any number of sequences through a BatchScanner must perform exactly
// zero heap allocations on the scoring threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "bio/seq_db_io.hpp"
#include "bio/synthetic.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "hmm/generator.hpp"
#include "hmm/profile.hpp"
#include "pipeline/batch_scanner.hpp"
#include "pipeline/multi_search.hpp"
#include "pipeline/pipeline.hpp"
#include "util/threadpool.hpp"

namespace {
std::atomic<long> g_allocations{0};
}

// The replaced operators pair malloc with free by design; with the
// definitions visible in this TU, GCC 12 inlines callers and flags the
// free() as -Wmismatched-new-delete (it cannot know the replaced new is
// malloc-backed).  False positive for the global-replacement pattern.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace finehmm;

struct Fixture {
  hmm::Plan7Hmm model;
  hmm::SearchProfile prof;
  profile::MsvProfile msv;
  profile::VitProfile vit;
  profile::FwdProfile fwd;

  explicit Fixture(int M, std::uint64_t seed = 7)
      : model([&] {
          hmm::RandomHmmSpec spec;
          spec.length = M;
          spec.seed = seed;
          return hmm::generate_hmm(spec);
        }()),
        prof(model, hmm::AlignMode::kLocalMultihit, 400),
        msv(prof),
        vit(prof),
        fwd(prof) {}
};

bio::SequenceDatabase small_db(std::size_t n, std::uint64_t seed = 11) {
  bio::SyntheticDbSpec spec;
  spec.name = "test";
  spec.n_sequences = n;
  spec.min_length = 10;
  spec.max_length = 700;
  spec.seed = seed;
  return bio::generate_database(spec);
}

TEST(BatchScanner, ScanHotLoopPerformsZeroHeapAllocations) {
  Fixture fx(173);
  auto db = small_db(60);
  pipeline::BatchScanner scanner(fx.msv, fx.vit, &fx.fwd, /*workers=*/1);

  // Warm-up pass: first calls may touch lazily-grown library state.
  for (std::size_t s = 0; s < db.size(); ++s) {
    scanner.ssv(0, db[s].codes.data(), db[s].length());
    scanner.msv(0, db[s].codes.data(), db[s].length());
    scanner.vit(0, db[s].codes.data(), db[s].length());
    scanner.fwd(0, db[s].codes.data(), db[s].length());
  }

  const long before = g_allocations.load();
  for (int rep = 0; rep < 3; ++rep) {
    for (std::size_t s = 0; s < db.size(); ++s) {
      scanner.ssv(0, db[s].codes.data(), db[s].length());
      scanner.msv(0, db[s].codes.data(), db[s].length());
      scanner.vit(0, db[s].codes.data(), db[s].length());
      scanner.fwd(0, db[s].codes.data(), db[s].length());
    }
  }
  EXPECT_EQ(g_allocations.load() - before, 0)
      << "scan hot loop must not allocate";
}

// The checkpointed Forward/Backward decode reuses its workspace: after a
// warm-up pass grew it to the longest sequence (and mocc to match),
// repeat decodes perform zero heap allocations on any tier.
TEST(BatchScanner, DecodeHotLoopPerformsZeroHeapAllocations) {
  Fixture fx(173);
  auto db = small_db(30);
  for (cpu::SimdTier tier : cpu::supported_simd_tiers()) {
    pipeline::BatchScanner scanner(fx.msv, fx.vit, &fx.fwd, 1, tier);
    std::vector<float> mocc;

    // Warm-up: grows the checkpoint workspace monotonically to the
    // longest sequence and sizes the caller's mocc buffer.
    for (std::size_t s = 0; s < db.size(); ++s)
      scanner.decode(0, db[s].codes.data(), db[s].length(), mocc);

    const long before = g_allocations.load();
    for (int rep = 0; rep < 3; ++rep)
      for (std::size_t s = 0; s < db.size(); ++s)
        scanner.decode(0, db[s].codes.data(), db[s].length(), mocc);
    EXPECT_EQ(g_allocations.load() - before, 0)
        << "decode hot loop must not allocate (tier="
        << cpu::simd_tier_name(tier) << ")";
  }
}

TEST(BatchScanner, WorkersScoreIdentically) {
  Fixture fx(210);
  auto db = small_db(20);
  pipeline::BatchScanner scanner(fx.msv, fx.vit, &fx.fwd, /*workers=*/3);
  ASSERT_EQ(scanner.workers(), 3u);
  for (std::size_t s = 0; s < db.size(); ++s) {
    auto m0 = scanner.msv(0, db[s].codes.data(), db[s].length());
    auto v0 = scanner.vit(0, db[s].codes.data(), db[s].length());
    float f0 = scanner.fwd(0, db[s].codes.data(), db[s].length());
    for (std::size_t w = 1; w < scanner.workers(); ++w) {
      auto mw = scanner.msv(w, db[s].codes.data(), db[s].length());
      auto vw = scanner.vit(w, db[s].codes.data(), db[s].length());
      float fw = scanner.fwd(w, db[s].codes.data(), db[s].length());
      EXPECT_EQ(m0.score_nats, mw.score_nats);
      EXPECT_EQ(v0.score_nats, vw.score_nats);
      EXPECT_EQ(f0, fw);
    }
  }
}

TEST(BatchScanner, EveryTierScoresLikePortable) {
  Fixture fx(95);
  auto db = small_db(15);
  pipeline::BatchScanner ref(fx.msv, fx.vit, &fx.fwd, 1,
                             cpu::SimdTier::kPortable);
  for (cpu::SimdTier tier : cpu::supported_simd_tiers()) {
    pipeline::BatchScanner scanner(fx.msv, fx.vit, &fx.fwd, 1, tier);
    EXPECT_EQ(scanner.tier(), tier);
    for (std::size_t s = 0; s < db.size(); ++s) {
      const auto* codes = db[s].codes.data();
      const std::size_t L = db[s].length();
      EXPECT_EQ(ref.ssv(0, codes, L).score_nats,
                scanner.ssv(0, codes, L).score_nats);
      EXPECT_EQ(ref.msv(0, codes, L).score_nats,
                scanner.msv(0, codes, L).score_nats);
      EXPECT_EQ(ref.vit(0, codes, L).score_nats,
                scanner.vit(0, codes, L).score_nats);
      // Forward runs natively at the tier's width: 4-lane tiers are
      // bit-exact against each other, wider tiers reassociate the
      // probability-space sums and carry the documented log-sum
      // tolerance (docs/simd_dispatch.md, "Numerical contract").
      const float fr = ref.fwd(0, codes, L);
      const float fg = scanner.fwd(0, codes, L);
      if (tier <= cpu::SimdTier::kSse2)
        EXPECT_EQ(fr, fg) << cpu::simd_tier_name(tier) << " L=" << L;
      else
        EXPECT_NEAR(fr, fg, 0.02f + 1e-4f * static_cast<float>(L))
            << cpu::simd_tier_name(tier) << " L=" << L;
    }
  }
}

// The packed (zero-copy) overloads must reproduce the byte-code scores
// bit-for-bit on every supported tier: both paths instantiate the same
// kernel loop, only the residue accessor differs.
TEST(BatchScanner, PackedOverloadsMatchByteCodesOnEveryTier) {
  Fixture fx(131);
  auto db = small_db(25, 17);
  const std::string path = "/tmp/finehmm_test_scanner.fsqdb";
  bio::write_seq_db_file(path, db);
  bio::MappedSeqDb mapped(path);
  ASSERT_EQ(mapped.size(), db.size());

  for (cpu::SimdTier tier : cpu::supported_simd_tiers()) {
    pipeline::BatchScanner scanner(fx.msv, fx.vit, &fx.fwd, 1, tier);
    for (std::size_t s = 0; s < db.size(); ++s) {
      const auto* codes = db[s].codes.data();
      const std::size_t L = db[s].length();
      auto sp = scanner.ssv(0, mapped.residues(s), L);
      auto sb = scanner.ssv(0, codes, L);
      EXPECT_EQ(sp.score_nats, sb.score_nats)
          << cpu::simd_tier_name(tier) << " s=" << s;
      EXPECT_EQ(sp.overflowed, sb.overflowed);
      auto mp = scanner.msv(0, mapped.residues(s), L);
      auto mb = scanner.msv(0, codes, L);
      EXPECT_EQ(mp.score_nats, mb.score_nats)
          << cpu::simd_tier_name(tier) << " s=" << s;
      EXPECT_EQ(mp.overflowed, mb.overflowed);
    }
  }
  std::remove(path.c_str());
}

// The zero-copy contract, measured: scanning a MappedSeqDb through the
// byte filters performs zero heap allocations and zero residue copies per
// sequence (the packed words are consumed in place).
TEST(BatchScanner, MappedScanPerformsZeroHeapAllocations) {
  Fixture fx(140);
  auto db = small_db(50, 29);
  const std::string path = "/tmp/finehmm_test_scanner_alloc.fsqdb";
  bio::write_seq_db_file(path, db);
  bio::MappedSeqDb mapped(path);
  pipeline::BatchScanner scanner(fx.msv, fx.vit, &fx.fwd, /*workers=*/1);

  // Warm-up pass (lazily-grown library state).
  for (std::size_t s = 0; s < mapped.size(); ++s) {
    scanner.ssv(0, mapped.residues(s), mapped.length(s));
    scanner.msv(0, mapped.residues(s), mapped.length(s));
  }

  const long before = g_allocations.load();
  for (int rep = 0; rep < 3; ++rep) {
    for (std::size_t s = 0; s < mapped.size(); ++s) {
      scanner.ssv(0, mapped.residues(s), mapped.length(s));
      scanner.msv(0, mapped.residues(s), mapped.length(s));
    }
  }
  EXPECT_EQ(g_allocations.load() - before, 0)
      << "mmap-backed byte-filter scan must not allocate";
  std::remove(path.c_str());
}

TEST(BatchScanner, ZeroLengthSequencesScoreAsNoHit) {
  Fixture fx(50);
  pipeline::BatchScanner scanner(fx.msv, fx.vit, &fx.fwd, 1);
  const std::uint8_t* none = nullptr;
  auto s = scanner.ssv(0, none, 0);
  auto m = scanner.msv(0, none, 0);
  auto v = scanner.vit(0, none, 0);
  float f = scanner.fwd(0, none, 0);
  EXPECT_FALSE(s.overflowed);
  EXPECT_FALSE(m.overflowed);
  EXPECT_TRUE(std::isinf(s.score_nats) && s.score_nats < 0);
  EXPECT_TRUE(std::isinf(m.score_nats) && m.score_nats < 0);
  EXPECT_TRUE(std::isinf(v.score_nats) && v.score_nats < 0);
  EXPECT_TRUE(std::isinf(f) && f < 0);
  // Packed overloads agree.
  EXPECT_TRUE(std::isinf(
      scanner.msv(0, bio::PackedResidues(nullptr), 0).score_nats));
}

TEST(ThreadPoolChunked, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  for (std::size_t count : {0ul, 1ul, 7ul, 64ul, 1000ul}) {
    for (std::size_t chunk : {0ul, 1ul, 3ul, 16ul, 2000ul}) {
      std::vector<std::atomic<int>> seen(count);
      for (auto& s : seen) s.store(0);
      pool.parallel_for_chunked(
          count, chunk,
          [&](std::size_t worker, std::size_t begin, std::size_t end) {
            EXPECT_LT(worker, pool.workers());
            ASSERT_LE(begin, end);
            ASSERT_LE(end, count);
            for (std::size_t i = begin; i < end; ++i)
              seen[i].fetch_add(1);
          });
      for (std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(seen[i].load(), 1) << "count=" << count
                                     << " chunk=" << chunk << " i=" << i;
    }
  }
}

TEST(ThreadPoolChunked, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for_chunked(100, 8,
                                [&](std::size_t, std::size_t begin,
                                    std::size_t) {
                                  if (begin >= 48)
                                    throw std::runtime_error("boom");
                                }),
      std::runtime_error);
}

// Whole-pipeline invariance: the hit list must not depend on the tier or
// on serial vs. pooled execution.  Viterbi-class scores are bit-exact at
// every width; Forward bit scores carry the documented log-sum tolerance
// across tier widths (docs/simd_dispatch.md) but must be bit-identical
// between engines running the same tier.
TEST(PipelineTiers, HitsIdenticalAcrossTiersAndEngines) {
  hmm::RandomHmmSpec spec;
  spec.length = 120;
  spec.seed = 3;
  auto model = hmm::generate_hmm(spec);
  stats::CalibrateOptions calib;
  calib.n_samples = 60;
  pipeline::Thresholds thr;
  thr.use_ssv_prefilter = true;
  thr.report_evalue = 1e6;  // report plenty of hits so equality is strict
  pipeline::HmmSearch search(model, thr, calib);
  auto db = small_db(40, 23);

  cpu::set_simd_tier(cpu::SimdTier::kPortable);
  auto ref = search.run_cpu(db);
  for (cpu::SimdTier tier : cpu::supported_simd_tiers()) {
    cpu::set_simd_tier(tier);
    auto serial = search.run_cpu(db);
    auto pooled = search.run_cpu_overlapped(db, 3);
    for (const auto* got : {&serial, &pooled}) {
      ASSERT_EQ(got->hits.size(), ref.hits.size())
          << "tier=" << cpu::simd_tier_name(tier);
      for (std::size_t i = 0; i < ref.hits.size(); ++i) {
        EXPECT_EQ(got->hits[i].seq_index, ref.hits[i].seq_index);
        EXPECT_NEAR(got->hits[i].fwd_bits, ref.hits[i].fwd_bits, 0.2f)
            << "tier=" << cpu::simd_tier_name(tier);
        EXPECT_EQ(got->hits[i].vit_bits, ref.hits[i].vit_bits);
      }
    }
    // Same tier, different engines: bit-identical, including Forward.
    ASSERT_EQ(pooled.hits.size(), serial.hits.size());
    for (std::size_t i = 0; i < serial.hits.size(); ++i)
      EXPECT_EQ(pooled.hits[i].fwd_bits, serial.hits[i].fwd_bits);
  }
  cpu::reset_simd_tier();
}

TEST(PipelineTiers, MultiSearchParallelMatchesSerial) {
  stats::CalibrateOptions calib;
  calib.n_samples = 50;
  std::vector<hmm::Plan7Hmm> models;
  for (int M : {60, 140}) {
    hmm::RandomHmmSpec spec;
    spec.length = M;
    spec.seed = static_cast<std::uint64_t>(M);
    models.push_back(hmm::generate_hmm(spec));
  }
  pipeline::Thresholds thr;
  thr.report_evalue = 1e6;
  pipeline::MultiSearch multi(std::move(models), thr, calib);
  auto db = small_db(30, 5);

  auto serial = multi.run_cpu(db);
  auto pooled = multi.run_cpu_fused(db, 3);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t m = 0; m < serial.size(); ++m) {
    ASSERT_EQ(serial[m].result.hits.size(), pooled[m].result.hits.size());
    for (std::size_t i = 0; i < serial[m].result.hits.size(); ++i) {
      EXPECT_EQ(serial[m].result.hits[i].seq_index,
                pooled[m].result.hits[i].seq_index);
      EXPECT_EQ(serial[m].result.hits[i].fwd_bits,
                pooled[m].result.hits[i].fwd_bits);
    }
  }
}

}  // namespace
