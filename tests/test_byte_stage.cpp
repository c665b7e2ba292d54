// The trigger-gated byte stage at its edges.
//
// MSV and SSV keep xE as a running max over all rows and do the scalar
// xJ/xB epilogue only on a row whose xE beats the trigger
// min(max(xJ, base) + tec, 254 - bias) (SSV: the overflow cap alone).
// These tests build profiles whose emission scores are chosen so that the
// first fire lands at row 0, at row L-1, or never; so that xJ rises while
// still at or below base; so that the filter overflows at row 0,
// mid-sequence, by row 1 ahead of a long tail (the sweep stops once
// every member has overflowed), or exactly at the 255 - bias rail (and
// stops one byte short of it); and so that bias is 255.  Each case is scored through
// every byte-stage path — every supported tier, the portable lane widths,
// byte and packed residues, one-member and two-member groups (the last
// member with no pad lane) — and compared bit for bit with msv_scalar /
// ssv_scalar.  A scalar replay of the per-row epilogue (Replay below)
// first checks that the sequence really produces the case it is named
// for.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bio/alphabet.hpp"
#include "bio/packed_seq.hpp"
#include "bio/packing.hpp"
#include "bio/synthetic.hpp"
#include "cpu/msv_filter.hpp"
#include "cpu/msv_group.hpp"
#include "cpu/msv_scalar.hpp"
#include "cpu/simd_backend/backend.hpp"
#include "cpu/simd_backend/kernels.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "cpu/ssv.hpp"
#include "group_sweep.hpp"
#include "hmm/generator.hpp"
#include "hmm/profile.hpp"
#include "profile/msv_profile.hpp"

namespace {

using namespace finehmm;
using cpu::simd_kernels::ByteStage;

// Residue codes the crafted models give special scores.
constexpr std::uint8_t kHot = 0;    // fires (or overflows) on one residue
constexpr std::uint8_t kWarm = 1;   // a few nats: needs a run to matter
constexpr std::uint8_t kCold = 2;   // every other residue scores -1 nat

/// A model of length M whose match emission scores, at every position,
/// are `hot` nats for kHot, `warm` for kWarm and -1 for the rest.  The
/// emissions are not normalized; only the byte costs matter here.
struct Crafted {
  hmm::Plan7Hmm model;
  hmm::SearchProfile prof;
  profile::MsvProfile msv;

  Crafted(int M, float hot, float warm, std::uint64_t seed = 5)
      : model(make(M, hot, warm, seed)),
        prof(model, hmm::AlignMode::kLocalMultihit, 400),
        msv(prof) {}

  static hmm::Plan7Hmm make(int M, float hot, float warm,
                            std::uint64_t seed) {
    hmm::RandomHmmSpec spec;
    spec.length = M;
    spec.seed = seed;
    hmm::Plan7Hmm model = hmm::generate_hmm(spec);
    const auto& bg = bio::background_frequencies();
    for (int k = 1; k <= M; ++k)
      for (int a = 0; a < bio::kK; ++a) {
        const float sc = a == kHot ? hot : a == kWarm ? warm : -1.0f;
        model.mat(k, a) = bg[a] * std::exp(sc);
      }
    return model;
  }
};

bio::Sequence make_seq(const std::vector<std::uint8_t>& codes) {
  bio::Sequence s;
  s.name = "edge";
  s.codes = codes;
  return s;
}

/// `n` copies of `code`.
std::vector<std::uint8_t> run(std::size_t n, std::uint8_t code) {
  return std::vector<std::uint8_t>(n, code);
}

std::vector<std::uint8_t> cat(std::vector<std::vector<std::uint8_t>> parts) {
  std::vector<std::uint8_t> out;
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

/// The per-row epilogue replayed in scalar code: which rows beat the
/// gated kernels' trigger, where the run overflows, and how often xJ rose
/// while max(xJ, base) stayed at base.
struct Replay {
  std::vector<std::size_t> fires;  // rows beating the trigger (incl. overflow)
  long overflow_row = -1;
  int xj_rises_below_base = 0;
  int max_xe = 0;  // largest row max seen (the overflowing one included)
};

Replay replay(const profile::MsvProfile& prof, const bio::Sequence& seq,
              ByteStage stage) {
  const int M = prof.length();
  const int L = static_cast<int>(seq.length());
  const int tjb = prof.tjb_for(L);
  const int tbm = prof.tbm();
  const int tec = prof.tec();
  const int base = prof.base();
  const int cap = 254 - prof.bias();
  std::vector<int> mmx(static_cast<std::size_t>(M) + 1, 0);
  int xJ = 0;
  int xj_base = base;
  Replay out;
  for (int i = 0; i < L; ++i) {
    const int xBv = std::max(0, std::max(0, xj_base - tjb) - tbm);
    int xE = 0;
    int diag = 0;
    for (int k = 1; k <= M; ++k) {
      int sv = std::max(diag, xBv);
      sv = std::min(255, sv + prof.bias());
      sv = std::max(0, sv - prof.cost(seq.codes[i], k));
      diag = mmx[k];
      mmx[k] = sv;
      xE = std::max(xE, sv);
    }
    out.max_xe = std::max(out.max_xe, xE);
    const int trig =
        stage == ByteStage::kMsv ? std::min(xj_base + tec, cap) : cap;
    if (xE > trig) out.fires.push_back(static_cast<std::size_t>(i));
    if (xE > cap) {
      out.overflow_row = i;
      return out;
    }
    const int rj = std::max(0, xE - tec);
    if (rj > xJ) {
      if (rj <= base) ++out.xj_rises_below_base;
      xJ = rj;
    }
    if (stage == ByteStage::kMsv) xj_base = std::max(xJ, base);
  }
  return out;
}

cpu::FilterResult reference(const profile::MsvProfile& prof,
                            const bio::Sequence& seq, ByteStage stage) {
  return stage == ByteStage::kMsv
             ? cpu::msv_scalar(prof, seq.codes.data(), seq.length())
             : cpu::ssv_scalar(prof, seq.codes.data(), seq.length());
}

const char* stage_name(ByteStage stage) {
  return stage == ByteStage::kMsv ? "msv" : "ssv";
}

void expect_same(const cpu::FilterResult& ref, const cpu::FilterResult& got,
                 const std::string& what) {
  EXPECT_EQ(ref.overflowed, got.overflowed) << what;
  EXPECT_EQ(ref.score_nats, got.score_nats) << what;
}

/// The portable N-lane kernel over `group` (packed for N lanes): every
/// member's result for byte and packed residues, byte results first.
template <int N>
std::vector<cpu::FilterResult> portable_sweep(const cpu::FusedMsvGroup& group,
                                              const bio::Sequence& seq,
                                              ByteStage stage) {
  const auto words = bio::pack_residues(seq.codes);
  const bio::PackedResidues packed(words.data());
  const std::uint8_t* codes = seq.codes.data();
  const std::size_t L = seq.length();
  std::vector<cpu::FilterResult> by_code, by_word;
  if (stage == ByteStage::kMsv) {
    by_code = test::sweep_width<N, ByteStage::kMsv>(group, codes, L);
    by_word = test::sweep_width<N, ByteStage::kMsv>(group, packed, L);
  } else {
    by_code = test::sweep_width<N, ByteStage::kSsv>(group, codes, L);
    by_word = test::sweep_width<N, ByteStage::kSsv>(group, packed, L);
  }
  by_code.insert(by_code.end(), by_word.begin(), by_word.end());
  return by_code;
}

/// The portable N-lane kernel on a one-member group, byte and packed
/// residues.
template <int N>
void check_portable_width(const profile::MsvProfile& prof,
                          const bio::Sequence& seq, ByteStage stage,
                          const cpu::FilterResult& ref) {
  const auto got = portable_sweep<N>(cpu::FusedMsvGroup(prof, N), seq, stage);
  const std::string what =
      std::string(stage_name(stage)) + " portable N=" + std::to_string(N);
  expect_same(ref, got[0], what);
  expect_same(ref, got[1], what + " packed");
}

/// Every byte-stage path for one model and sequence against the scalar
/// reference of `stage`: each supported tier's MsvFilter, the portable
/// widths, and a fused group of the model with `partner` (whose own
/// result is checked too).
void check_every_path(const profile::MsvProfile& prof,
                      const profile::MsvProfile& partner,
                      const bio::Sequence& seq, ByteStage stage) {
  const cpu::FilterResult ref = reference(prof, seq, stage);
  const cpu::FilterResult partner_ref = reference(partner, seq, stage);
  const auto words = bio::pack_residues(seq.codes);
  const bio::PackedResidues packed(words.data());
  const bool msv = stage == ByteStage::kMsv;
  const std::size_t L = seq.length();

  for (cpu::SimdTier tier : cpu::supported_simd_tiers()) {
    const std::string what = std::string(stage_name(stage)) + " tier=" +
                             cpu::simd_tier_name(tier);
    cpu::MsvFilter single(prof, tier);
    expect_same(ref,
                msv ? single.score(seq.codes.data(), L)
                    : single.ssv(seq.codes.data(), L),
                what);
    expect_same(ref, msv ? single.score(packed, L) : single.ssv(packed, L),
                what + " packed");

    // Member 0 spans M/Q + 1 lanes, the partner the rest: Q = 16 keeps
    // both within the narrowest (16-lane) tier for the lengths used here.
    const int lanes =
        cpu::backend::tier_kernels(cpu::resolve_simd_tier(tier)).u8_lanes;
    cpu::FusedMsvGroup group({&prof, &partner}, lanes, 16);
    cpu::FusedMsvFilter fused(group, tier);
    std::vector<cpu::FilterResult> out(2);
    msv ? fused.msv(seq.codes.data(), L, out.data())
        : fused.ssv(seq.codes.data(), L, out.data());
    expect_same(ref, out[0], what + " fused");
    expect_same(partner_ref, out[1], what + " fused partner");
    msv ? fused.msv(packed, L, out.data()) : fused.ssv(packed, L, out.data());
    expect_same(ref, out[0], what + " fused packed");
    expect_same(partner_ref, out[1], what + " fused packed partner");
  }
  check_portable_width<4>(prof, seq, stage, ref);
  check_portable_width<16>(prof, seq, stage, ref);
  check_portable_width<32>(prof, seq, stage, ref);
  check_portable_width<64>(prof, seq, stage, ref);
}

/// An ordinary generated model to share the fused group with.
const profile::MsvProfile& partner() {
  static const Crafted p(30, 1.5f, 0.5f, 11);
  return p.msv;
}

// Fire model: one kHot residue (+10 nats) beats base + tec on row 0 from
// the entry state; a kWarm run (+2 nats a residue) climbs slowly.
const Crafted& fire_model() {
  static const Crafted c(20, 10.0f, 2.0f);
  return c;
}

TEST(ByteStageTrigger, FirstFireAtRowZero) {
  const auto& c = fire_model();
  const auto seq = make_seq(cat({run(1, kHot), run(49, kCold)}));
  const Replay r = replay(c.msv, seq, ByteStage::kMsv);
  ASSERT_FALSE(r.fires.empty());
  EXPECT_EQ(r.fires.front(), 0u);
  EXPECT_EQ(r.overflow_row, -1);
  for (ByteStage stage : {ByteStage::kMsv, ByteStage::kSsv})
    check_every_path(c.msv, partner(), seq, stage);
}

TEST(ByteStageTrigger, FirstFireAtLastRow) {
  const auto& c = fire_model();
  const auto seq = make_seq(cat({run(49, kCold), run(1, kHot)}));
  const Replay r = replay(c.msv, seq, ByteStage::kMsv);
  ASSERT_EQ(r.fires.size(), 1u);
  EXPECT_EQ(r.fires.front(), seq.length() - 1);
  EXPECT_EQ(r.overflow_row, -1);
  for (ByteStage stage : {ByteStage::kMsv, ByteStage::kSsv})
    check_every_path(c.msv, partner(), seq, stage);
}

TEST(ByteStageTrigger, NeverFiresOnColdSequence) {
  const auto& c = fire_model();
  const auto seq = make_seq(run(60, kCold));
  const Replay r = replay(c.msv, seq, ByteStage::kMsv);
  EXPECT_TRUE(r.fires.empty());
  for (ByteStage stage : {ByteStage::kMsv, ByteStage::kSsv})
    check_every_path(c.msv, partner(), seq, stage);
}

TEST(ByteStageTrigger, XjRisingBelowBaseComesFromTheRunningMax) {
  // Warm runs of growing length lift the row max without ever clearing
  // base + tec: xJ climbs on quiet rows, so the final score must be read
  // from the running max, not from the last fire.
  const auto& c = fire_model();
  const auto seq = make_seq(cat({run(5, kCold), run(1, kWarm), run(5, kCold),
                                 run(2, kWarm), run(5, kCold), run(3, kWarm),
                                 run(5, kCold)}));
  const Replay r = replay(c.msv, seq, ByteStage::kMsv);
  EXPECT_TRUE(r.fires.empty());
  EXPECT_GE(r.xj_rises_below_base, 3);
  for (ByteStage stage : {ByteStage::kMsv, ByteStage::kSsv})
    check_every_path(c.msv, partner(), seq, stage);
}

TEST(ByteStageTrigger, RepeatedFiresRaiseTheTrigger) {
  // Multi-hit: each hot residue after a gap starts from the raised xB and
  // fires again above the previous trigger.
  const auto& c = fire_model();
  const auto seq = make_seq(cat({run(1, kHot), run(6, kCold), run(1, kHot),
                                 run(6, kCold), run(1, kHot), run(6, kCold)}));
  const Replay r = replay(c.msv, seq, ByteStage::kMsv);
  EXPECT_GE(r.fires.size(), 2u);
  for (ByteStage stage : {ByteStage::kMsv, ByteStage::kSsv})
    check_every_path(c.msv, partner(), seq, stage);
}

// Overflow model: one kHot residue (+13 nats) saturates past 254 - bias
// straight from the entry state; a kWarm run (+3 nats) gets there in a
// few rows, firing below the cap first.
const Crafted& overflow_model() {
  static const Crafted c(20, 13.0f, 3.0f);
  return c;
}

TEST(ByteStageTrigger, OverflowAtRowZero) {
  const auto& c = overflow_model();
  const auto seq = make_seq(cat({run(1, kHot), run(30, kCold)}));
  for (ByteStage stage : {ByteStage::kMsv, ByteStage::kSsv}) {
    EXPECT_EQ(replay(c.msv, seq, stage).overflow_row, 0) << stage_name(stage);
    EXPECT_TRUE(reference(c.msv, seq, stage).overflowed);
    check_every_path(c.msv, partner(), seq, stage);
  }
}

TEST(ByteStageTrigger, OverflowMidSequence) {
  const auto& c = overflow_model();
  const auto seq = make_seq(cat({run(20, kCold), run(6, kWarm), run(20, kCold)}));
  for (ByteStage stage : {ByteStage::kMsv, ByteStage::kSsv}) {
    const Replay r = replay(c.msv, seq, stage);
    EXPECT_GT(r.overflow_row, 20) << stage_name(stage);
    EXPECT_LT(r.overflow_row, 26) << stage_name(stage);
    check_every_path(c.msv, partner(), seq, stage);
  }
  // MSV fires below the cap before it overflows.
  const Replay r = replay(c.msv, seq, ByteStage::kMsv);
  ASSERT_GE(r.fires.size(), 2u);
  EXPECT_LT(static_cast<long>(r.fires.front()), r.overflow_row);
}

TEST(ByteStageTrigger, OverflowEarlyLongTail) {
  // Overflow by row 1, then thousands of rows of hot, warm and cold
  // residues: a sweep whose every member has overflowed stops early, and
  // its scores must still match the scalar references bit for bit — for
  // a one-member group, a mixed group (the partner never overflows) and
  // a group whose members all overflow.
  const auto& c = overflow_model();
  const Crafted also(33, 13.0f, 3.0f, 9);
  std::vector<std::vector<std::uint8_t>> parts = {run(2, kHot)};
  for (int rep = 0; rep < 200; ++rep) {
    parts.push_back(run(7, kCold));
    parts.push_back(run(1, kHot));
    parts.push_back(run(3, kCold));
    parts.push_back(run(2, kWarm));
  }
  const auto seq = make_seq(cat(parts));
  ASSERT_GT(seq.length(), 2000u);
  for (ByteStage stage : {ByteStage::kMsv, ByteStage::kSsv}) {
    for (const profile::MsvProfile* early : {&c.msv, &also.msv}) {
      const long row = replay(*early, seq, stage).overflow_row;
      EXPECT_GE(row, 0) << stage_name(stage);
      EXPECT_LE(row, 1) << stage_name(stage);
    }
    ASSERT_EQ(replay(partner(), seq, stage).overflow_row, -1)
        << stage_name(stage);
    check_every_path(c.msv, partner(), seq, stage);
    check_every_path(partner(), c.msv, seq, stage);
    check_every_path(c.msv, also.msv, seq, stage);
  }
}

TEST(ByteStageTrigger, OverflowExactlyAtTheRail) {
  // A lone kHot residue at row 0 scores xBv + bias (its cost is 0), and
  // the rail is 255 - bias: pick bias so that row 0's max lands exactly
  // on the rail (overflow) or one byte under it (no overflow).
  const float scale = 3.0f / static_cast<float>(M_LN2);
  const std::size_t L = 30;
  for (int below : {0, 1}) {
    bool found = false;
    for (int M = 20; M < 40 && !found; ++M) {
      const Crafted probe(M, 1.0f, 0.0f);
      const int tjb = probe.msv.tjb_for(static_cast<int>(L));
      const int xBv = probe.msv.base() - tjb - probe.msv.tbm();
      if ((255 - below - xBv) % 2 != 0) continue;
      const int bias = (255 - below - xBv) / 2;
      const Crafted c(M, static_cast<float>(bias) / scale, -1.0f);
      ASSERT_EQ(c.msv.bias(), bias);
      const auto seq = make_seq(cat({run(1, kHot), run(L - 1, kCold)}));
      for (ByteStage stage : {ByteStage::kMsv, ByteStage::kSsv}) {
        const Replay r = replay(c.msv, seq, stage);
        EXPECT_EQ(r.max_xe, 255 - bias - below) << "below=" << below;
        EXPECT_EQ(r.overflow_row, below == 0 ? 0 : -1) << "below=" << below;
        check_every_path(c.msv, partner(), seq, stage);
      }
      found = true;
    }
    EXPECT_TRUE(found) << "below=" << below;
  }
}

TEST(ByteStageTrigger, BiasTwoFiftyFiveOverflowsEverySequence) {
  const Crafted c(20, 60.0f, 0.0f);
  ASSERT_EQ(c.msv.bias(), 255);
  Pcg32 rng(3);
  for (const auto& seq : {make_seq(run(1, kCold)), make_seq(run(40, kCold)),
                          bio::random_sequence(90, rng)})
    for (ByteStage stage : {ByteStage::kMsv, ByteStage::kSsv}) {
      EXPECT_TRUE(reference(c.msv, seq, stage).overflowed);
      check_every_path(c.msv, partner(), seq, stage);
    }
}

TEST(ByteStageTrigger, FusedMemberOverflowsWhileAnotherKeepsFiring) {
  // Two crafted members with different hot residues: kHot overflows the
  // first on row 0 and is cold to the second; kWarm runs make the second
  // fire again and again while the first stays frozen.
  const Crafted first(25, 13.0f, -1.0f);
  const Crafted second(35, -1.0f, 2.5f, 9);
  std::vector<std::vector<std::uint8_t>> parts = {run(2, kHot)};
  for (int seg = 0; seg < 5; ++seg) {
    parts.push_back(run(8, kCold));
    parts.push_back(run(4, kWarm));
  }
  parts.push_back(run(8, kCold));
  const auto seq = make_seq(cat(parts));
  ASSERT_EQ(replay(first.msv, seq, ByteStage::kMsv).overflow_row, 0);
  const Replay r = replay(second.msv, seq, ByteStage::kMsv);
  EXPECT_GE(r.fires.size(), 3u);
  EXPECT_EQ(r.overflow_row, -1);
  for (ByteStage stage : {ByteStage::kMsv, ByteStage::kSsv})
    check_every_path(first.msv, second.msv, seq, stage);
}

/// A W-lane group whose last member ends on lane W - 1 with no pad lane:
/// at Q = 4, a 40-position first member spans 40/4 + 1 = 11 lanes and a
/// last member of 4 * (W - 11) positions fills the other W - 11 exactly
/// (no pad cell either).  Every tier with W byte lanes and the portable
/// W-lane kernel must score both members like the scalar reference.
template <int W>
void check_last_member_on_last_lane() {
  const Crafted first(40, 1.5f, 0.5f, 11);
  const Crafted last(4 * (W - 11), 16.0f, 3.0f);
  const cpu::FusedMsvGroup group({&first.msv, &last.msv}, W, 4);
  const auto& span = group.view().models[1];
  ASSERT_EQ(span.lane_lo + span.lanes, W);
  ASSERT_EQ(last.msv.length(), group.segments() * span.lanes);

  Pcg32 rng(21);
  const std::vector<bio::Sequence> seqs = {
      make_seq(cat({run(20, kCold), run(1, kWarm), run(20, kCold)})),
      make_seq(cat({run(1, kHot), run(30, kCold)})),
      make_seq(cat({run(20, kCold), run(6, kWarm), run(20, kCold)})),
      bio::random_sequence(120, rng)};
  // The last member: no overflow, overflow at row 0, overflow mid-way.
  EXPECT_EQ(replay(last.msv, seqs[0], ByteStage::kMsv).overflow_row, -1);
  EXPECT_EQ(replay(last.msv, seqs[1], ByteStage::kMsv).overflow_row, 0);
  EXPECT_GT(replay(last.msv, seqs[2], ByteStage::kMsv).overflow_row, 20);

  for (const auto& seq : seqs)
    for (ByteStage stage : {ByteStage::kMsv, ByteStage::kSsv}) {
      const cpu::FilterResult ref[2] = {reference(first.msv, seq, stage),
                                        reference(last.msv, seq, stage)};
      const auto words = bio::pack_residues(seq.codes);
      const bio::PackedResidues packed(words.data());
      const bool msv = stage == ByteStage::kMsv;
      const std::size_t L = seq.length();
      const std::string what = std::string(stage_name(stage)) +
                               " W=" + std::to_string(W) +
                               " L=" + std::to_string(L);
      for (cpu::SimdTier tier : cpu::supported_simd_tiers()) {
        if (cpu::backend::tier_kernels(cpu::resolve_simd_tier(tier))
                .u8_lanes != W)
          continue;
        cpu::FusedMsvFilter fused(group, tier);
        std::vector<cpu::FilterResult> out(2);
        const std::string at = what + " tier=" + cpu::simd_tier_name(tier);
        msv ? fused.msv(seq.codes.data(), L, out.data())
            : fused.ssv(seq.codes.data(), L, out.data());
        expect_same(ref[0], out[0], at + " first");
        expect_same(ref[1], out[1], at + " last");
        msv ? fused.msv(packed, L, out.data())
            : fused.ssv(packed, L, out.data());
        expect_same(ref[0], out[0], at + " packed first");
        expect_same(ref[1], out[1], at + " packed last");
      }
      const auto got = portable_sweep<W>(group, seq, stage);
      expect_same(ref[0], got[0], what + " portable first");
      expect_same(ref[1], got[1], what + " portable last");
      expect_same(ref[0], got[2], what + " portable packed first");
      expect_same(ref[1], got[3], what + " portable packed last");
    }
}

TEST(ByteStageTrigger, LastMemberEndsOnTheLastLaneWithoutPad) {
  check_last_member_on_last_lane<16>();
  check_last_member_on_last_lane<32>();
  check_last_member_on_last_lane<64>();
}

TEST(ByteStageTrigger, SsvGroupDetectsOverflowPerRow) {
  // The SSV group overflows one member mid-sequence and the other never:
  // per-row detection must freeze the first and leave the second's score
  // to the running max.
  const auto& hot = overflow_model();
  const auto& cool = fire_model();
  const auto seq = make_seq(cat({run(30, kCold), run(6, kWarm), run(30, kCold)}));
  ASSERT_GE(replay(hot.msv, seq, ByteStage::kSsv).overflow_row, 0);
  ASSERT_EQ(replay(cool.msv, seq, ByteStage::kSsv).overflow_row, -1);
  check_every_path(hot.msv, cool.msv, seq, ByteStage::kSsv);
  check_every_path(cool.msv, hot.msv, seq, ByteStage::kSsv);
}

}  // namespace
