// The streaming-scan determinism contract: every CPU engine (serial,
// bucketed-parallel, overlapped) over either database representation
// (heap SequenceDatabase, zero-copy MappedSeqDb) must report bit-identical
// hits and identical stage statistics — the scan order and the worker
// interleaving are implementation details that may never leak into
// results.  Plus unit tests for the length-bucketed schedule itself.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bio/seq_db_io.hpp"
#include "hmm/generator.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/workload.hpp"

namespace {

using namespace finehmm;
using pipeline::HmmSearch;
using pipeline::SearchResult;
using pipeline::StageStats;

struct StreamingFixture {
  hmm::Plan7Hmm model;
  bio::SequenceDatabase db;
  std::string path;

  explicit StreamingFixture(int M = 80, std::size_t n = 300,
                            double hom_frac = 0.04)
      : model(hmm::paper_model(M)),
        // ctest runs tests as concurrent processes; keep the temp file
        // unique per fixture shape so parallel tests cannot collide.
        path("/tmp/finehmm_test_streaming_" + std::to_string(M) + "_" +
             std::to_string(n) + ".fsqdb") {
    pipeline::WorkloadSpec spec;
    spec.db.name = "stream";
    spec.db.n_sequences = n;
    spec.db.log_length_mu = 4.6;
    spec.db.log_length_sigma = 0.5;
    spec.db.seed = 77;
    spec.homolog_fraction = hom_frac;
    db = pipeline::make_workload(model, spec);
    // Zero-length sequences are legal database entries; every engine must
    // fail them at the first active stage without scoring them.
    db.add(bio::Sequence::from_text("empty_1", ""));
    db.add(bio::Sequence::from_text("empty_2", ""));
    bio::write_seq_db_file(path, db);
  }
  ~StreamingFixture() { std::remove(path.c_str()); }
};

void expect_same_stage(const StageStats& a, const StageStats& b,
                       const char* stage) {
  EXPECT_EQ(a.n_in, b.n_in) << stage;
  EXPECT_EQ(a.n_passed, b.n_passed) << stage;
  EXPECT_EQ(a.cells, b.cells) << stage;  // exact: same summation order
}

void expect_bit_identical(const SearchResult& ref, const SearchResult& got,
                          const char* label) {
  SCOPED_TRACE(label);
  expect_same_stage(ref.ssv, got.ssv, "ssv");
  expect_same_stage(ref.msv, got.msv, "msv");
  expect_same_stage(ref.vit, got.vit, "vit");
  expect_same_stage(ref.fwd, got.fwd, "fwd");
  ASSERT_EQ(ref.hits.size(), got.hits.size());
  for (std::size_t i = 0; i < ref.hits.size(); ++i) {
    const auto& a = ref.hits[i];
    const auto& b = got.hits[i];
    EXPECT_EQ(a.seq_index, b.seq_index) << i;
    EXPECT_EQ(a.name, b.name) << i;
    // Bit-identical, not approximately equal: == on float/double.
    EXPECT_EQ(a.msv_bits, b.msv_bits) << i;
    EXPECT_EQ(a.vit_bits, b.vit_bits) << i;
    EXPECT_EQ(a.fwd_bits, b.fwd_bits) << i;
    EXPECT_EQ(a.bias_bits, b.bias_bits) << i;
    EXPECT_EQ(a.pvalue, b.pvalue) << i;
    EXPECT_EQ(a.evalue, b.evalue) << i;
    ASSERT_EQ(a.alignments.size(), b.alignments.size()) << i;
    for (std::size_t j = 0; j < a.alignments.size(); ++j) {
      EXPECT_EQ(a.alignments[j].k_start, b.alignments[j].k_start);
      EXPECT_EQ(a.alignments[j].k_end, b.alignments[j].k_end);
      EXPECT_EQ(a.alignments[j].i_start, b.alignments[j].i_start);
      EXPECT_EQ(a.alignments[j].i_end, b.alignments[j].i_end);
      EXPECT_EQ(a.alignments[j].seq_line, b.alignments[j].seq_line);
    }
    ASSERT_EQ(a.domains.size(), b.domains.size()) << i;
    for (std::size_t j = 0; j < a.domains.size(); ++j) {
      EXPECT_EQ(a.domains[j].i_start, b.domains[j].i_start);
      EXPECT_EQ(a.domains[j].i_end, b.domains[j].i_end);
      EXPECT_EQ(a.domains[j].bits, b.domains[j].bits);
    }
  }
}

/// Run all engines over both representations and demand they match the
/// serial heap scan bit-for-bit.
void check_all_engines(const StreamingFixture& fx,
                       pipeline::Thresholds thr) {
  HmmSearch search(fx.model, thr);
  bio::MappedSeqDb mapped(fx.path);
  const SearchResult ref = search.run_cpu(fx.db);
  ASSERT_FALSE(ref.msv.n_in == 0);

  expect_bit_identical(ref, search.run_cpu(mapped), "serial/mapped");
  ThreadPool pool(3);
  expect_bit_identical(
      ref, HmmSearch::run_cpu_coalesced({&search}, fx.db, pool).per_model[0],
      "coalesced/heap");
  expect_bit_identical(
      ref, HmmSearch::run_cpu_coalesced({&search}, mapped, pool).per_model[0],
      "coalesced/mapped");
  expect_bit_identical(ref, search.run_cpu_overlapped(fx.db, 3),
                       "overlapped/heap");
  expect_bit_identical(ref, search.run_cpu_overlapped(mapped, 3),
                       "overlapped/mapped");
  // Single-worker overlapped exercises the help-first backpressure path.
  expect_bit_identical(ref, search.run_cpu_overlapped(mapped, 1),
                       "overlapped/mapped/1thread");
}

TEST(ScanStreaming, EnginesBitIdenticalDefaultThresholds) {
  StreamingFixture fx;
  check_all_engines(fx, {});
}

TEST(ScanStreaming, EnginesBitIdenticalWithSsvAlignmentsDomains) {
  StreamingFixture fx(64, 260, 0.06);
  pipeline::Thresholds thr;
  thr.use_ssv_prefilter = true;
  thr.compute_alignments = true;
  thr.define_domains = true;
  check_all_engines(fx, thr);
}

TEST(ScanStreaming, ZeroLengthSequencesAreCountedButNeverHit) {
  StreamingFixture fx(60, 120, 0.05);
  HmmSearch search(fx.model);
  bio::MappedSeqDb mapped(fx.path);
  auto ref = search.run_cpu(fx.db);
  EXPECT_EQ(ref.msv.n_in, fx.db.size());  // empties counted in
  for (const auto& h : ref.hits)
    EXPECT_NE(h.name.rfind("empty_", 0), 0u) << h.name;
  expect_bit_identical(ref, search.run_cpu_overlapped(mapped, 2),
                       "overlapped/mapped");
}

// ---------------------------------------------------------------------------
// make_length_schedule

TEST(LengthSchedule, IsAPermutationLongestFirstAscendingWithin) {
  std::vector<std::size_t> lengths = {5,  900, 33, 0,  64, 65, 7000, 32,
                                      31, 900, 1,  70, 0,  128, 129, 5};
  auto sched = pipeline::make_length_schedule(
      lengths.size(), [&](std::size_t i) { return lengths[i]; });
  ASSERT_EQ(sched.order.size(), lengths.size());

  std::vector<int> seen(lengths.size(), 0);
  for (auto i : sched.order) {
    ASSERT_LT(i, lengths.size());
    seen[i]++;
  }
  for (int s : seen) EXPECT_EQ(s, 1);  // a permutation

  auto bucket = [](std::size_t len) {
    int b = 0;
    for (std::size_t v = len >> 5; v != 0; v >>= 1) ++b;
    return b;
  };
  for (std::size_t k = 1; k < sched.order.size(); ++k) {
    int prev = bucket(lengths[sched.order[k - 1]]);
    int cur = bucket(lengths[sched.order[k]]);
    EXPECT_GE(prev, cur) << k;  // longest buckets first
    if (prev == cur) {
      EXPECT_LT(sched.order[k - 1], sched.order[k]) << k;  // index order
    }
  }
  // Distinct non-empty buckets of the lengths above: {0,1,2,3,5,8}.
  EXPECT_EQ(sched.n_buckets, 6u);
}

TEST(LengthSchedule, EmptyAndUniform) {
  auto empty = pipeline::make_length_schedule(
      0, [](std::size_t) { return std::size_t{0}; });
  EXPECT_TRUE(empty.order.empty());
  EXPECT_EQ(empty.n_buckets, 0u);

  auto uniform = pipeline::make_length_schedule(
      10, [](std::size_t) { return std::size_t{100}; });
  ASSERT_EQ(uniform.order.size(), 10u);
  EXPECT_EQ(uniform.n_buckets, 1u);
  for (std::size_t i = 0; i < uniform.order.size(); ++i)
    EXPECT_EQ(uniform.order[i], i);  // one bucket -> identity order
}

}  // namespace
