#include "cpu/trace.hpp"

#include <algorithm>
#include <cctype>
#include <vector>

#include "cpu/simd_backend/backend.hpp"
#include "util/error.hpp"
#include "util/logspace.hpp"

namespace finehmm::cpu {

namespace {

using hmm::kPTBM;
using hmm::kPTDD;
using hmm::kPTDM;
using hmm::kPTII;
using hmm::kPTIM;
using hmm::kPTMD;
using hmm::kPTMI;
using hmm::kPTMM;

float add(float a, float b) {
  if (a == kNegInf || b == kNegInf) return kNegInf;
  return a + b;
}

/// Consensus residue of model column k, uppercase when strongly conserved.
char consensus_char(const hmm::SearchProfile& prof, int k) {
  int best = 0;
  for (int a = 1; a < bio::kK; ++a)
    if (prof.msc(k, a) > prof.msc(k, best)) best = a;
  char c = bio::kCanonical[best];
  return prof.msc(k, best) > 1.0f ? c
                                  : static_cast<char>(std::tolower(c));
}

// One byte per DP cell packs all three core-state backpointers: the
// match predecessor (B/M/I/D) in bits 0-1, the insert predecessor (M/I)
// in bit 2, the delete predecessor (M/D) in bit 3.  A third of the
// memory of one matrix per state, which is what every concurrent
// rescoring worker holds.  The row kernels pack the same bits.
constexpr int kInsertBit = simd_kernels::kTraceInsertBit;
constexpr int kDeleteBit = simd_kernels::kTraceDeleteBit;

/// Recover the state path from the filled backpointer arrays.  `stride`
/// is M+1; bp is the (L+1)*stride packed matrix.  Only backpointers along
/// the optimal path are read, and a finite score guarantees every one of
/// those was written by the DP.
ViterbiTrace backtrace(float score, std::size_t L, std::size_t stride,
                       const std::uint8_t* bp, const int* be,
                       const std::uint8_t* bj, const std::uint8_t* bc,
                       const std::uint8_t* bb) {
  ViterbiTrace trace;
  trace.score = score;
  if (trace.score == kNegInf) return trace;  // no path (degenerate input)

  auto at = [stride](std::size_t i, int k) {
    return i * stride + static_cast<std::size_t>(k);
  };

  // Emits steps in reverse, flipped at the end.
  std::vector<TraceStep> rev;
  enum class St { kC, kE, kM, kI, kD, kJ, kB, kN };
  St st = St::kC;
  std::size_t i = L;
  int k = 0;
  for (;;) {
    switch (st) {
      case St::kC:
        if (bc[i] == 0) {
          rev.push_back({TraceState::kC, 0, i});  // C emitted residue i
          --i;
        } else {
          rev.push_back({TraceState::kC, 0, 0});
          st = St::kE;
        }
        break;
      case St::kE:
        rev.push_back({TraceState::kE, 0, 0});
        k = be[i];
        st = St::kM;
        break;
      case St::kM: {
        rev.push_back({TraceState::kM, k, i});
        const int p = bp[at(i, k)] & 3;
        --i;
        if (p == 0) {
          st = St::kB;
        } else if (p == 1) {
          --k;
          st = St::kM;
        } else if (p == 2) {
          --k;
          st = St::kI;
        } else {
          --k;
          st = St::kD;
        }
        break;
      }
      case St::kI: {
        rev.push_back({TraceState::kI, k, i});
        const int p = (bp[at(i, k)] >> kInsertBit) & 1;
        --i;
        st = p == 0 ? St::kM : St::kI;
        break;
      }
      case St::kD: {
        rev.push_back({TraceState::kD, k, 0});
        const int p = (bp[at(i, k)] >> kDeleteBit) & 1;
        --k;
        st = p == 0 ? St::kM : St::kD;
        break;
      }
      case St::kB:
        rev.push_back({TraceState::kB, 0, 0});
        st = bb[i] == 0 ? St::kN : St::kJ;
        break;
      case St::kJ:
        if (bj[i] == 0) {
          rev.push_back({TraceState::kJ, 0, i});
          --i;
        } else {
          rev.push_back({TraceState::kJ, 0, 0});
          st = St::kE;
        }
        break;
      case St::kN:
        if (i == 0) {
          rev.push_back({TraceState::kN, 0, 0});
          std::reverse(rev.begin(), rev.end());
          trace.steps = std::move(rev);
          return trace;
        }
        rev.push_back({TraceState::kN, 0, i});
        --i;
        break;
    }
  }
}

}  // namespace

void TraceWorkspace::reserve(const hmm::SearchProfile& prof,
                             std::size_t L) {
  bp_stride_ = static_cast<std::size_t>(prof.length()) + 1;
  const std::size_t cells = (L + 1) * bp_stride_;
  const std::size_t floats = 7 * prof.row_stride();
  if (rows_.size() < floats) rows_.resize(floats);
  if (bp_.size() < cells) bp_.resize(cells);
  if (be_.size() < L + 1) {
    be_.resize(L + 1);
    bj_.resize(L + 1);
    bc_.resize(L + 1);
    bb_.resize(L + 1);
  }
}

ViterbiTrace viterbi_trace(const hmm::SearchProfile& prof,
                           const std::uint8_t* seq, std::size_t L) {
  TraceWorkspace ws;
  return viterbi_trace_scalar(prof, seq, L, ws);
}

ViterbiTrace viterbi_trace(const hmm::SearchProfile& prof,
                           const std::uint8_t* seq, std::size_t L,
                           TraceWorkspace& ws) {
  FH_REQUIRE(L >= 1, "cannot trace an empty sequence");
  ws.reserve(prof, L);
  simd_kernels::TraceRows rows;
  rows.rows = ws.rows_.data();
  rows.bp = ws.bp_.data();
  rows.be = ws.be_.data();
  rows.bj = ws.bj_.data();
  rows.bc = ws.bc_.data();
  rows.bb = ws.bb_.data();
  const float score = backend::tier_kernels(active_simd_tier())
                          .trace_rows(prof, seq, L, rows);
  return backtrace(score, L, ws.bp_stride_, rows.bp, rows.be, rows.bj,
                   rows.bc, rows.bb);
}

ViterbiTrace viterbi_trace_scalar(const hmm::SearchProfile& prof,
                                  const std::uint8_t* seq, std::size_t L,
                                  TraceWorkspace& ws) {
  FH_REQUIRE(L >= 1, "cannot trace an empty sequence");
  const int M = prof.length();
  const auto xs = prof.xsc_for(static_cast<int>(L));
  ws.reserve(prof, L);

  const std::size_t row = prof.row_stride();
  const std::size_t stride = ws.bp_stride_;
  float* pm = ws.rows_.data();
  float* pi = pm + row;
  float* pd = pi + row;
  float* cm = pd + row;
  float* ci = cm + row;
  float* cd = ci + row;
  std::uint8_t* bp = ws.bp_.data();
  int* be = ws.be_.data();
  std::uint8_t* bj = ws.bj_.data();
  std::uint8_t* bc = ws.bc_.data();
  std::uint8_t* bb = ws.bb_.data();

  std::fill(pm, pm + row, kNegInf);
  std::fill(pi, pi + row, kNegInf);
  std::fill(pd, pd + row, kNegInf);

  // Special-state values only feed the next row, so they live in scalars;
  // the per-row backpointers (all the backtrace reads) are kept.
  float vN = 0.0f;
  float vB = xs.n_move;
  float vJ = kNegInf;
  float vC = kNegInf;
  bb[0] = 0;

  for (std::size_t i = 1; i <= L; ++i) {
    const std::uint8_t x = seq[i - 1];
    std::uint8_t* bp_row = bp + i * stride;
    float xE = kNegInf;
    int xEk = 0;
    cm[0] = ci[0] = cd[0] = kNegInf;
    for (int k = 1; k <= M; ++k) {
      // Match: B / M / I / D predecessors from row i-1, running strict-
      // greater argmax (the first index of the maximum).
      float bv = vB + prof.tsc(k - 1, kPTBM);
      int best = 0;
      const float c1 = pm[k - 1] + prof.tsc(k - 1, kPTMM);
      if (c1 > bv) {
        bv = c1;
        best = 1;
      }
      const float c2 = pi[k - 1] + prof.tsc(k - 1, kPTIM);
      if (c2 > bv) {
        bv = c2;
        best = 2;
      }
      const float c3 = pd[k - 1] + prof.tsc(k - 1, kPTDM);
      if (c3 > bv) {
        bv = c3;
        best = 3;
      }
      int packed = best;
      cm[k] = bv + prof.msc(k, x);
      const float exit_score = cm[k] + prof.esc(k);
      if (exit_score > xE) {
        xE = exit_score;
        xEk = k;
      }

      if (k < M) {
        const float im = pm[k] + prof.tsc(k, kPTMI);
        const float ii = pi[k] + prof.tsc(k, kPTII);
        packed |= (im >= ii ? 0 : 1) << kInsertBit;
        ci[k] = std::max(im, ii);
      } else {
        ci[k] = kNegInf;
      }
      if (k >= 2) {
        const float dm = cm[k - 1] + prof.tsc(k - 1, kPTMD);
        const float dd = cd[k - 1] + prof.tsc(k - 1, kPTDD);
        packed |= (dm >= dd ? 0 : 1) << kDeleteBit;
        cd[k] = std::max(dm, dd);
      } else {
        cd[k] = kNegInf;
      }
      bp_row[k] = static_cast<std::uint8_t>(packed);
    }
    be[i] = xEk;

    const float j_loop = vJ + xs.j_loop;
    const float j_new = xE + xs.e_j;
    bj[i] = j_loop >= j_new ? 0 : 1;
    vJ = std::max(j_loop, j_new);

    const float c_loop = vC + xs.c_loop;
    const float c_new = xE + xs.e_c;
    bc[i] = c_loop >= c_new ? 0 : 1;
    vC = std::max(c_loop, c_new);

    vN = vN + xs.n_loop;
    const float b_n = vN + xs.n_move;
    const float b_j = vJ + xs.j_move;
    bb[i] = b_n >= b_j ? 0 : 1;
    vB = std::max(b_n, b_j);

    std::swap(pm, cm);
    std::swap(pi, ci);
    std::swap(pd, cd);
  }

  return backtrace(vC + xs.c_move, L, stride, bp, be, bj, bc, bb);
}

std::vector<Alignment> trace_alignments(const ViterbiTrace& trace,
                                        const hmm::SearchProfile& prof,
                                        const std::uint8_t* seq) {
  std::vector<Alignment> out;
  Alignment cur;
  bool in_segment = false;
  for (const auto& step : trace.steps) {
    switch (step.state) {
      case TraceState::kM: {
        if (!in_segment) break;
        if (cur.k_start == 0) cur.k_start = step.k;
        cur.k_end = step.k;
        if (cur.i_start == 0) cur.i_start = step.i;
        cur.i_end = step.i;
        char cons = consensus_char(prof, step.k);
        char res = bio::symbol(seq[step.i - 1]);
        cur.model_line.push_back(cons);
        cur.seq_line.push_back(res);
        float sc = prof.msc(step.k, seq[step.i - 1]);
        if (std::toupper(cons) == res)
          cur.match_line.push_back(res);
        else
          cur.match_line.push_back(sc > 0.0f ? '+' : ' ');
        break;
      }
      case TraceState::kI:
        if (!in_segment) break;
        cur.model_line.push_back('.');
        cur.match_line.push_back(' ');
        cur.seq_line.push_back(static_cast<char>(
            std::tolower(bio::symbol(seq[step.i - 1]))));
        cur.i_end = step.i;
        break;
      case TraceState::kD:
        if (!in_segment) break;
        cur.model_line.push_back(consensus_char(prof, step.k));
        cur.match_line.push_back(' ');
        cur.seq_line.push_back('-');
        cur.k_end = step.k;
        break;
      case TraceState::kB:
        in_segment = true;
        cur = Alignment{};
        break;
      case TraceState::kE:
        if (in_segment && !cur.model_line.empty()) out.push_back(cur);
        in_segment = false;
        break;
      default:
        break;
    }
  }
  return out;
}

float trace_score(const ViterbiTrace& trace, const hmm::SearchProfile& prof,
                  const std::uint8_t* seq, std::size_t L) {
  const auto xs = prof.xsc_for(static_cast<int>(L));
  float score = 0.0f;
  for (std::size_t s = 1; s < trace.steps.size(); ++s) {
    const auto& prev = trace.steps[s - 1];
    const auto& cur = trace.steps[s];
    float t = kNegInf;
    switch (prev.state) {
      case TraceState::kN:
        t = cur.state == TraceState::kN ? xs.n_loop : xs.n_move;
        break;
      case TraceState::kB:
        t = prof.tsc(cur.k - 1, kPTBM);
        break;
      case TraceState::kM:
        if (cur.state == TraceState::kM)
          t = prof.tsc(prev.k, kPTMM);
        else if (cur.state == TraceState::kI)
          t = prof.tsc(prev.k, kPTMI);
        else if (cur.state == TraceState::kD)
          t = prof.tsc(prev.k, kPTMD);
        else  // E: exit score (0 in local mode, delete path in glocal)
          t = prof.esc(prev.k);
        break;
      case TraceState::kI:
        t = cur.state == TraceState::kM ? prof.tsc(prev.k, kPTIM)
                                        : prof.tsc(prev.k, kPTII);
        break;
      case TraceState::kD:
        t = cur.state == TraceState::kM ? prof.tsc(prev.k, kPTDM)
                                        : prof.tsc(prev.k, kPTDD);
        break;
      case TraceState::kE:
        t = cur.state == TraceState::kC ? xs.e_c : xs.e_j;
        break;
      case TraceState::kJ:
        t = cur.state == TraceState::kJ ? xs.j_loop : xs.j_move;
        break;
      case TraceState::kC:
        t = xs.c_loop;  // C self-loop (emitting)
        break;
    }
    score = add(score, t);
    if (cur.state == TraceState::kM)
      score = add(score, prof.msc(cur.k, seq[cur.i - 1]));
  }
  return add(score, xs.c_move);  // final C -> T
}

}  // namespace finehmm::cpu
