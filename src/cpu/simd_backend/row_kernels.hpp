// Exact row-vectorized kernels for the float rescoring tail.
//
// The striped filters (kernels.hpp) reorder work and so need their own
// score contracts.  The two float DPs that rescore survivors — the
// table-logsum Forward (cpu::generic_forward) and the Viterbi traceback
// (cpu::viterbi_trace with a workspace) — must instead reproduce the
// scalar loops bit for bit, because their scores are reported and their
// backpointers become the alignments.  These kernels keep the scalar
// loops' arithmetic and change only which cells run side by side:
//
//   * Every M(i,k) and I(i,k) of a row depends on row i-1 alone, so all
//     k run in vector lanes, each lane doing exactly the scalar
//     operations in the scalar order.  A table logsum in a lane is sub,
//     compare, select, multiply, truncating convert, gather and add —
//     the same float operations LogSumTable::operator() performs.
//   * D(i,k) needs D(i,k-1) and E(i) folds the row in k order.  Logsum
//     is not associative and float addition is not either, so both
//     chains stay serial in k, after the vector pass.
//
// Vector contract (float lane classes; see simd_vec.hpp for the portable
// specification): splat/load/store, add_f, sub_f, mul_f, abs_f, the
// comparisons gt_f/ge_f/lt_f returning V::Mask, select_f(m, a, b) =
// m ? a : b, and gather_f(table, x, m) = table[int(x)] in the lanes of m
// and 0 elsewhere (lanes outside m must not be read: x may be inf there).
//
// Rows come from hmm::SearchProfile's node-major layout, whose -inf
// padding lets the last vector of a row run past node M: those lanes
// compute -inf and are never read by the serial part.  DP rows are
// caller-owned, `stride` = prof.row_stride() floats each, all -inf on
// entry.  No NaN can arise: no score is +inf, so -inf + x stays -inf.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "hmm/profile.hpp"
#include "util/logspace.hpp"

namespace finehmm::cpu::simd_kernels {

/// Caller-owned storage of one row-kernel traceback.
struct TraceRows {
  float* rows = nullptr;       // 7 rows of prof.row_stride() floats, -inf
  std::uint8_t* bp = nullptr;  // (L+1)*(M+1) packed M/I/D backpointers
  int* be = nullptr;           // L+1: best exit node per row
  std::uint8_t* bj = nullptr;  // L+1 each: special-state backpointers
  std::uint8_t* bc = nullptr;
  std::uint8_t* bb = nullptr;
};

// Packed backpointer bits (cpu/trace.cpp reads them back): the match
// predecessor (0 B, 1 M, 2 I, 3 D) in bits 0-1, I-from-I in bit 2,
// D-from-D in bit 3.
inline constexpr int kTraceInsertBit = 2;
inline constexpr int kTraceDeleteBit = 3;

/// Lane j holds j: added to k, the node index of every lane.
alignas(64) inline constexpr float kLaneIndex[16] = {
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};

/// LogSumTable::operator() in every lane.  Both -inf: d is NaN, so the
/// lane takes b (-inf) and skips the table; one -inf: |d| = inf is past
/// the table width, so the lane takes the finite argument — the two
/// early returns of the scalar version, without branches.
template <class V>
inline V table_logsum(V a, V b, const float* table) {
  const V d = sub_f(a, b);
  const V hi = select_f(ge_f(d, V::splat(0.0f)), a, b);
  const V ad = abs_f(d);
  const typename V::Mask near = lt_f(ad, V::splat(LogSumTable::kTableWidth));
  const V corr =
      gather_f(table, mul_f(ad, V::splat(LogSumTable::kScale)), near);
  return select_f(near, add_f(hi, corr), hi);
}

/// The same operations in one scalar lane, for the serial chains: selects
/// instead of LogSumTable::operator()'s data-dependent branches.
inline float table_logsum(float a, float b, const float* table) {
  const float d = a - b;
  const float hi = d >= 0.0f ? a : b;
  const float ad = std::fabs(d);
  const bool near = ad < LogSumTable::kTableWidth;
  const float corr =
      table[near ? static_cast<int>(ad * LogSumTable::kScale) : 0];
  return near ? hi + corr : hi;
}

/// cpu::generic_forward_scalar (table logsum), M and I states in lanes.
/// `rows` holds 6 rows of prof.row_stride() floats.
template <class V>
float forward_rows_kernel(const hmm::SearchProfile& prof,
                          const std::uint8_t* seq, std::size_t L,
                          float* rows) {
  constexpr int N = V::kLanes;
  const int M = prof.length();
  const std::size_t stride = prof.row_stride();
  const auto xs = prof.xsc_for(static_cast<int>(L));
  const float* table = LogSumTable::instance().data();
  const float* tbm = prof.tsc_row(hmm::kPTBM);
  const float* tmm = prof.tsc_row(hmm::kPTMM);
  const float* tim = prof.tsc_row(hmm::kPTIM);
  const float* tdm = prof.tsc_row(hmm::kPTDM);
  const float* tmi = prof.tsc_row(hmm::kPTMI);
  const float* tii = prof.tsc_row(hmm::kPTII);
  const float* tmd = prof.tsc_row(hmm::kPTMD);
  const float* tdd = prof.tsc_row(hmm::kPTDD);
  const float* esc = prof.esc_row();

  std::fill(rows, rows + 6 * stride, kNegInf);
  float* pm = rows;
  float* pi = pm + stride;
  float* pd = pi + stride;
  float* cm = pd + stride;
  float* ci = cm + stride;
  float* cd = ci + stride;

  float xN = 0.0f;
  float xB = xN + xs.n_move;
  float xJ = kNegInf, xC = kNegInf;

  for (std::size_t i = 0; i < L; ++i) {
    const float* msc = prof.msc_row(seq[i]);
    const V xBv = V::splat(xB);
    for (int k = 1; k <= M; k += N) {
      V m = add_f(xBv, V::load(tbm + k - 1));
      m = table_logsum(m, add_f(V::load(pm + k - 1), V::load(tmm + k - 1)),
                       table);
      m = table_logsum(m, add_f(V::load(pi + k - 1), V::load(tim + k - 1)),
                       table);
      m = table_logsum(m, add_f(V::load(pd + k - 1), V::load(tdm + k - 1)),
                       table);
      add_f(m, V::load(msc + k)).store(cm + k);
      table_logsum(add_f(V::load(pm + k), V::load(tmi + k)),
                   add_f(V::load(pi + k), V::load(tii + k)), table)
          .store(ci + k);
    }
    // Serial in k: the E fold and the D chain (cd[0], cd[1] stay -inf),
    // both carried in registers.
    float xE = cm[1] + esc[1];  // = lse(-inf, cm[1] + esc[1])
    float d = kNegInf;
    for (int k = 2; k <= M; ++k) {
      xE = table_logsum(xE, cm[k] + esc[k], table);
      d = table_logsum(cm[k - 1] + tmd[k - 1], d + tdd[k - 1], table);
      cd[k] = d;
    }
    xJ = table_logsum(xJ + xs.j_loop, xE + xs.e_j, table);
    xC = table_logsum(xC + xs.c_loop, xE + xs.e_c, table);
    xN = xN + xs.n_loop;
    xB = table_logsum(xN + xs.n_move, xJ + xs.j_move, table);
    std::swap(pm, cm);
    std::swap(pi, ci);
    std::swap(pd, cd);
  }
  return xC + xs.c_move;
}

/// The DP of cpu::viterbi_trace_scalar, M state and I backpointers in
/// lanes: fills ws.bp / be / bj / bc / bb exactly as the scalar loop does
/// and returns the trace score.  The match argmax keeps the scalar's
/// strict-greater order B, M, I, D; its tag and the I bit are carried in
/// float lanes (small integers are exact) to a tag row, which the serial
/// D pass packs into the backpointer bytes with the D bit.
template <class V>
float trace_rows_kernel(const hmm::SearchProfile& prof,
                        const std::uint8_t* seq, std::size_t L,
                        const TraceRows& ws) {
  constexpr int N = V::kLanes;
  const int M = prof.length();
  const std::size_t stride = prof.row_stride();
  const std::size_t bp_stride = static_cast<std::size_t>(M) + 1;
  const auto xs = prof.xsc_for(static_cast<int>(L));
  const float* tbm = prof.tsc_row(hmm::kPTBM);
  const float* tmm = prof.tsc_row(hmm::kPTMM);
  const float* tim = prof.tsc_row(hmm::kPTIM);
  const float* tdm = prof.tsc_row(hmm::kPTDM);
  const float* tmi = prof.tsc_row(hmm::kPTMI);
  const float* tii = prof.tsc_row(hmm::kPTII);
  const float* tmd = prof.tsc_row(hmm::kPTMD);
  const float* tdd = prof.tsc_row(hmm::kPTDD);
  const float* esc = prof.esc_row();

  std::fill(ws.rows, ws.rows + 7 * stride, kNegInf);
  float* pm = ws.rows;
  float* pi = pm + stride;
  float* pd = pi + stride;
  float* cm = pd + stride;
  float* ci = cm + stride;
  float* cd = ci + stride;
  float* tag = cd + stride;

  float vN = 0.0f;
  float vB = xs.n_move;
  float vJ = kNegInf;
  float vC = kNegInf;
  ws.bb[0] = 0;

  const V zero = V::splat(0.0f);
  const V ins_bit = V::splat(static_cast<float>(1 << kTraceInsertBit));
  const V lane = V::load(kLaneIndex);
  for (std::size_t i = 1; i <= L; ++i) {
    const float* msc = prof.msc_row(seq[i - 1]);
    std::uint8_t* bp_row = ws.bp + i * bp_stride;
    const V vBv = V::splat(vB);
    // Exit argmax per lane: the lane's maximum and the first k (as a
    // float) that reached it.
    V emax = V::splat(kNegInf);
    V ek = zero;
    for (int k = 1; k <= M; k += N) {
      V best = add_f(vBv, V::load(tbm + k - 1));
      V from = zero;
      const auto take = [&](V cand, float which) {
        const typename V::Mask gt = gt_f(cand, best);
        best = select_f(gt, cand, best);
        from = select_f(gt, V::splat(which), from);
      };
      take(add_f(V::load(pm + k - 1), V::load(tmm + k - 1)), 1.0f);
      take(add_f(V::load(pi + k - 1), V::load(tim + k - 1)), 2.0f);
      take(add_f(V::load(pd + k - 1), V::load(tdm + k - 1)), 3.0f);
      const V mk = add_f(best, V::load(msc + k));
      mk.store(cm + k);
      const V exit_score = add_f(mk, V::load(esc + k));
      const typename V::Mask up = gt_f(exit_score, emax);
      emax = select_f(up, exit_score, emax);
      ek = select_f(up, add_f(V::splat(static_cast<float>(k)), lane), ek);

      // Scalar: bit = im >= ii ? 0 : 1, value std::max(im, ii).
      const V im = add_f(V::load(pm + k), V::load(tmi + k));
      const V ii = add_f(V::load(pi + k), V::load(tii + k));
      const typename V::Mask from_i = lt_f(im, ii);
      select_f(from_i, ii, im).store(ci + k);
      add_f(from, select_f(from_i, ins_bit, zero)).store(tag + k);
    }

    // The scalar loop's exit argmax is the first k that reaches the row
    // maximum: the smallest first-k among the lanes holding that maximum
    // (0 when every exit is -inf).
    float lane_max[N] = {};
    float lane_k[N] = {};
    emax.store(lane_max);
    ek.store(lane_k);
    float xE = kNegInf;
    for (float e : lane_max) xE = std::max(xE, e);
    int xEk = 0;
    if (xE > kNegInf) {
      xEk = M;
      for (int j = 0; j < N; ++j)
        if (lane_max[j] == xE)
          xEk = std::min(xEk, static_cast<int>(lane_k[j]));
    }

    // Serial in k: the D chain, carried in a register (the byte stores
    // may alias any row, so a chain through cd[] would reload it), and
    // its bit.
    bp_row[1] = static_cast<std::uint8_t>(tag[1]);
    float d = kNegInf;
    for (int k = 2; k <= M; ++k) {
      const float dm = cm[k - 1] + tmd[k - 1];
      const float dd = d + tdd[k - 1];
      bp_row[k] = static_cast<std::uint8_t>(
          static_cast<int>(tag[k]) | (dm >= dd ? 0 : 1) << kTraceDeleteBit);
      d = std::max(dm, dd);
      cd[k] = d;
    }
    ws.be[i] = xEk;

    const float j_loop = vJ + xs.j_loop;
    const float j_new = xE + xs.e_j;
    ws.bj[i] = j_loop >= j_new ? 0 : 1;
    vJ = std::max(j_loop, j_new);

    const float c_loop = vC + xs.c_loop;
    const float c_new = xE + xs.e_c;
    ws.bc[i] = c_loop >= c_new ? 0 : 1;
    vC = std::max(c_loop, c_new);

    vN = vN + xs.n_loop;
    const float b_n = vN + xs.n_move;
    const float b_j = vJ + xs.j_move;
    ws.bb[i] = b_n >= b_j ? 0 : 1;
    vB = std::max(b_n, b_j);

    std::swap(pm, cm);
    std::swap(pi, ci);
    std::swap(pd, cd);
  }
  return vC + xs.c_move;
}

}  // namespace finehmm::cpu::simd_kernels
