// Width- and ISA-generic striped filter kernels.
//
// Each kernel is the single definition of its filter's inner loop,
// templated on a vector class V that supplies the lane operations via
// ADL-found friends (splat/load/store, max_u8/adds_u8/subs_u8/hmax_u8/
// any_gt_u8 for bytes; max_i16/adds_w/hmax_i16/any_gt_i16 for words;
// add_f/mul_f/hsum_f/shift_lanes_down for floats; shift_lanes_up for
// all).  The portable classes (cpu/simd_vec.hpp, any width) and the
// native SSE2/AVX2/AVX-512 wrappers (vec_sse2.hpp, vec_avx2.hpp,
// vec_avx512.hpp) all satisfy the same contract, so every tier executes
// literally the same algorithm — which is what makes the bit-exactness
// guarantee structural rather than empirical.
//
// Kernels take raw striped-parameter pointers (residue x's stripe row
// lives at base + x*Q*N) and caller-owned DP row storage, so they perform
// no allocation and no layout decisions of their own.
//
// The sequence parameter is a generic accessor `Seq` read exactly once per
// row as `seq[i]`; plain `const std::uint8_t*` arrays and zero-copy
// bio::PackedResidues views instantiate the identical loop, so the packed
// (mmap) path scores bit-identically to the byte-code path.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "cpu/filter_result.hpp"
#include "profile/fwd_profile.hpp"
#include "profile/vit_profile.hpp"
#include "util/check.hpp"
#include "util/logspace.hpp"

namespace finehmm::cpu::simd_kernels {

// ---- Byte stage: MSV and SSV, one lane-partitioned kernel ---------------
//
// MSV's J state feeds a row's xE back into the next row's xB, but only
// once xJ = sat_sub(xE, tec) passes base; below that xB stays at its
// initial value and the recurrence is SSV's.  So the kernel keeps xEv as
// a running max over all rows (never reset) and ends each row with one
// vector compare against a trigger byte
//
//   trig = min(max(xJ, base) + tec, 254 - bias),
//
// doing the scalar epilogue only on a row where some lane exceeds it.
// This is exact: sat_sub(., tec) is monotone, so xJ is always
// sat_sub(hmax(xEv), tec); a row that does not fire leaves max(xJ, base),
// hence xB, and the overflow flag where the per-row epilogue would; a
// firing row runs that epilogue and raises trig to the new maximum, so
// earlier rows can never fire again.  SSV is the same loop with trig
// pinned at the overflow cap.  Under FINEHMM_CHECKS the kernel also
// keeps each row's own max and check, after every row, that the per-row
// epilogue would have produced the same xB and overflow state.

/// Which byte-stage recurrence a kernel instance runs: MSV (with the J
/// state's feedback into xB) or SSV (constant xB, single segment).
enum class ByteStage { kMsv, kSsv };

/// xB's byte contribution to a row, sat_sub(sat_sub(max(xJ, base), tjb),
/// tbm), from xj_base = max(xJ, base).
inline std::uint8_t byte_entry(std::uint8_t xj_base, std::uint8_t tjb,
                               std::uint8_t tbm) {
  const std::uint8_t xB = xj_base > tjb ? std::uint8_t(xj_base - tjb) : 0;
  return xB > tbm ? std::uint8_t(xB - tbm) : 0;
}

/// The trigger for xj_base = max(xJ, base): the largest xE that can neither
/// move xB nor overflow (cap = 254 - bias).  SSV has no xB to move.
template <ByteStage kStage>
inline std::uint8_t byte_trigger(std::uint8_t xj_base, std::uint8_t tec,
                                 std::uint8_t cap) {
  if constexpr (kStage == ByteStage::kSsv) return cap;
  const unsigned up = unsigned(xj_base) + tec;
  return up > cap ? cap : std::uint8_t(up);
}

// Lane-partitioned groups.
//
// One N-lane sweep scores every member of a group: model m owns the
// contiguous lane span [lane_lo, lane_lo + lanes) and its position k
// (1-based) lives in stripe (k-1)%Q, lane lane_lo + (k-1)/Q, where Q is
// the group's shared stripe count.  Every cell not owned by a model
// carries emission cost 255, which forces it to zero each row
// (sat_sub(sat_add(x, bias), 255) == 0 for any byte x).  Every member but
// the last spans M/Q + 1 lanes, so its last lane ends in such a cell and
// the lane shift at stripe 0 hands the next span exactly the zero a lone
// model gets at its first lane; the last member's shifted-out cell has no
// span to reach, so it spans ceil(M/Q) lanes.  Cell values, and therefore
// scores, are bit-identical to independent runs (docs/multi_model.md).  A
// single model is a one-member group at Q = ceil(M/N): position k at
// stripe (k-1)%Q, lane (k-1)/Q, HMMER 3.0's striped layout.

/// One member of a group: its lane span plus the byte constants its
/// scalar epilogue needs.
struct MsvGroupModel {
  std::uint8_t lane_lo = 0;  // first lane of this model's span
  std::uint8_t lanes = 0;    // lanes in the span (>= 1)
  std::uint8_t tbm = 0;
  std::uint8_t tec = 0;
  std::uint8_t base = 0;
  std::uint8_t sat = 0;  // overflow threshold: 255 - bias
};

/// Read-only view of one packed group (built by cpu::FusedMsvGroup): the
/// shared striped emission table (residue x at rows + x*Q*N), the member
/// table, and N bytes per lane of the owning member's constants and
/// initial MSV / SSV trigger.  Lanes owned by no member hold bias 0,
/// base 0, tbm 0 and trigger 255.
struct MsvGroupView {
  const std::uint8_t* rows = nullptr;
  const std::uint8_t* bias = nullptr;
  const std::uint8_t* base = nullptr;
  const std::uint8_t* tbm = nullptr;
  const std::uint8_t* trig_msv = nullptr;
  const std::uint8_t* trig_ssv = nullptr;
  const MsvGroupModel* models = nullptr;
  int n_models = 0;
  int Q = 0;
};

/// Caller-owned per-sequence scratch for the group kernel.  xb/trigger/xe
/// hold N bytes each (per-lane spill space for firing rows and the final
/// reduction); xj and overflowed hold n_models bytes each and are the
/// outputs the caller converts to scores.  tjb is tjb_for(L), which the
/// members share (they share one byte score scale).
struct MsvGroupState {
  std::uint8_t* xb = nullptr;          // per lane: xB's row contribution
  std::uint8_t* trigger = nullptr;     // per lane: the member's trig
  std::uint8_t* xe = nullptr;          // per lane: xEv spill buffer
  std::uint8_t* xj = nullptr;          // per model: max(xJ, base); xJ out
  std::uint8_t* overflowed = nullptr;  // per model: overflow flag (out)
  std::uint8_t tjb = 0;
};

/// Largest byte in lanes [md.lane_lo, md.lane_lo + md.lanes) of `lanes`.
inline std::uint8_t span_max(const MsvGroupModel& md,
                             const std::uint8_t* lanes) {
  std::uint8_t m = 0;
  for (int j = 0; j < md.lanes; ++j)
    if (lanes[md.lane_lo + j] > m) m = lanes[md.lane_lo + j];
  return m;
}

/// Striped MSV (or SSV) over N = V::kLanes byte lanes: one sweep scores
/// every member of the group with the gated loop above.  The trigger is
/// a byte per lane, each member's trig over its span, so a row fires only
/// when some member can move its xB or overflow; the firing row replays
/// just those members' epilogues.  An overflowed member's span gets
/// trigger 255 and never fires again; saturated cells cannot cross the
/// forced-zero padding into the next span.  Once a fire overflows the
/// last live member no row can fire again, so the sweep stops there.
/// `row` is Q*N bytes of caller scratch.
template <class V, class Seq, ByteStage kStage = ByteStage::kMsv>
void msv_group_kernel(const MsvGroupView& g, const MsvGroupState& st,
                      Seq seq, std::size_t L, std::uint8_t* row) {
  constexpr int N = V::kLanes;
  FINEHMM_CHECK(L >= 1, "cannot score an empty sequence");
  const int Q = g.Q;

  // Writes member m's xb and trigger bytes from st.xj[m] = max(xJ, base).
  const auto arm = [&g, &st](int m) {
    const MsvGroupModel& md = g.models[m];
    const std::uint8_t xb = byte_entry(st.xj[m], st.tjb, md.tbm);
    const std::uint8_t trig =
        st.overflowed[m]
            ? std::uint8_t(255)
            : byte_trigger<kStage>(st.xj[m], md.tec,
                                   std::uint8_t(md.sat - 1));
    for (int j = 0; j < md.lanes; ++j) {
      st.xb[md.lane_lo + j] = xb;
      st.trigger[md.lane_lo + j] = trig;
    }
  };
  // xJ from a member's running max (it may have risen while <= base).
  const auto final_xj = [&g, &st](int m, std::uint8_t xE) {
    const std::uint8_t tec = g.models[m].tec;
    st.xj[m] = st.overflowed[m] ? 0 : xE > tec ? std::uint8_t(xE - tec) : 0;
  };

  for (int m = 0; m < g.n_models; ++m) {
    st.xj[m] = g.models[m].base;
    // sat == 0 (bias 255) overflows on row 0; a byte trigger cannot
    // express "always fire", so the view's trigger is 255 and the flag
    // is set here.
    st.overflowed[m] = g.models[m].sat == 0 ? 1 : 0;
  }

  std::memset(row, 0, static_cast<std::size_t>(Q) * N);
  const std::uint8_t* const rows = g.rows;  // hoisted past the row stores
  const V biasv = V::load(g.bias);
  // byte_entry(base, tjb, tbm) on every lane at once.
  V xBv = subs_u8(subs_u8(V::load(g.base), V::splat(st.tjb)),
                  V::load(g.tbm));
  V trigv = V::load(kStage == ByteStage::kMsv ? g.trig_msv : g.trig_ssv);
  V xEv = V::splat(0);

  for (std::size_t i = 0; i < L; ++i) {
    const std::uint8_t* rbv =
        rows + static_cast<std::size_t>(seq[i]) * Q * N;
    FINEHMM_IF_CHECKS(V rowv = V::splat(0);)
    // Diagonal: previous row's last stripe, lanes shifted up by one.
    V mpv = shift_lanes_up(
        V::load(row + static_cast<std::size_t>(Q - 1) * N));
    for (int q = 0; q < Q; ++q) {
      std::uint8_t* cell = row + static_cast<std::size_t>(q) * N;
      V sv = max_u8(mpv, xBv);
      sv = adds_u8(sv, biasv);
      sv = subs_u8(sv, V::load(rbv + static_cast<std::size_t>(q) * N));
      xEv = max_u8(xEv, sv);
      FINEHMM_IF_CHECKS(rowv = max_u8(rowv, sv);)
      mpv = V::load(cell);  // previous-row value (double buffer)
      sv.store(cell);
    }
    FINEHMM_IF_CHECKS(std::uint8_t row_xe[N]; rowv.store(row_xe);)

    if (any_gt_u8(xEv, trigv)) {
      xEv.store(st.xe);
      xBv.store(st.xb);
      trigv.store(st.trigger);
      // Members still scoring after this row.  Counted here, not carried
      // across rows, so the row loop keeps its registers.
      int live = 0;
      for (int m = 0; m < g.n_models; ++m) {
        const MsvGroupModel& md = g.models[m];
        if (st.overflowed[m]) continue;
        const std::uint8_t xE = span_max(md, st.xe);
        if (xE < md.sat) ++live;
        if (xE <= st.trigger[md.lane_lo]) continue;
        // Every earlier row sat at or under trig: the fire is this row's.
        FINEHMM_DCHECK(span_max(md, row_xe) == xE,
                       "byte-stage fire must come from the current row");
        if (xE >= md.sat) {
          st.overflowed[m] = 1;
        } else {
          FINEHMM_DCHECK(kStage == ByteStage::kMsv,
                         "SSV fires only on overflow");
          const std::uint8_t xJ = xE > md.tec ? std::uint8_t(xE - md.tec) : 0;
          FINEHMM_DCHECK(xJ > st.xj[m],
                         "an MSV fire must raise max(xJ, base)");
          st.xj[m] = xJ;
        }
        arm(m);
      }
      // Every member overflowed: no row can fire again, the scores are
      // settled.
      if (live == 0) break;
      xBv = V::load(st.xb);
      trigv = V::load(st.trigger);
    }
#if FINEHMM_CHECKS_ENABLED
    // Per member, the per-row epilogue on this row's own span max: no
    // overflow, and max(xJ, base) no higher than the gated kernel's (a
    // fire set it from this very row, so the two agree exactly).
    for (int m = 0; m < g.n_models; ++m) {
      const MsvGroupModel& md = g.models[m];
      if (st.overflowed[m]) continue;
      const std::uint8_t r = span_max(md, row_xe);
      const std::uint8_t rj = r > md.tec ? std::uint8_t(r - md.tec) : 0;
      FINEHMM_DCHECK(r < md.sat,
                     "the row epilogue would overflow a member the gated "
                     "kernel did not");
      FINEHMM_DCHECK(kStage == ByteStage::kSsv || rj <= st.xj[m],
                     "gated MSV must leave xB where the row epilogue "
                     "would");
    }
#endif
  }

  if (g.n_models == 1) {
    // Every lane outside a lone member's span is forced to zero, so the
    // horizontal max is its span max.
    const std::uint8_t xE = hmax_u8(xEv);
    FINEHMM_IF_CHECKS(xEv.store(st.xe);)
    FINEHMM_DCHECK(span_max(g.models[0], st.xe) == xE,
                   "lanes outside a lone member's span must stay zero");
    final_xj(0, xE);
    return;
  }
  xEv.store(st.xe);
  for (int m = 0; m < g.n_models; ++m)
    final_xj(m, span_max(g.models[m], st.xe));
}

/// The eight striped parameter arrays the Viterbi kernel reads, laid out
/// for one lane count (residue x's emission stripes at msc + x*Q*N).
struct VitStripesView {
  const std::int16_t* msc = nullptr;
  const std::int16_t* tmm = nullptr;
  const std::int16_t* tim = nullptr;
  const std::int16_t* tdm = nullptr;
  const std::int16_t* tmi = nullptr;
  const std::int16_t* tii = nullptr;
  const std::int16_t* tmd = nullptr;
  const std::int16_t* tdd = nullptr;
  int Q = 0;
};

/// Striped ViterbiFilter with Lazy-F over N = V::kLanes word lanes.
/// mmx/imx/dmx are caller-owned scratch of Q*N words each; lazyf_passes
/// (optional) receives the number of wrap passes executed.
template <class V, class Seq>
FilterResult vit_kernel(const profile::VitProfile& prof,
                        const VitStripesView& st, Seq seq, std::size_t L,
                        std::int16_t* mmx, std::int16_t* imx,
                        std::int16_t* dmx, int* lazyf_passes = nullptr) {
  using profile::kWordNegInf;
  using profile::sat_add_word;
  constexpr int N = V::kLanes;
  FINEHMM_CHECK(L >= 1, "cannot score an empty sequence");
  const int Q = st.Q;
  const auto lm = prof.length_model_for(static_cast<int>(L));
  // Length-model moves are log-probability costs; a positive cost would
  // let xN grow without bound and defeat the 16-bit saturation bounds.
  FINEHMM_CHECK(lm.loop <= 0 && lm.move <= 0,
                "length-model costs must be non-positive log-probs");
  const std::size_t n = static_cast<std::size_t>(Q) * N;
  int passes = 0;

  std::fill(mmx, mmx + n, kWordNegInf);
  std::fill(imx, imx + n, kWordNegInf);
  std::fill(dmx, dmx + n, kWordNegInf);

  auto stripe = [](std::int16_t* v, int q) {
    return v + static_cast<std::size_t>(q) * N;
  };

  std::int16_t xN = profile::VitProfile::kBase;
  std::int16_t xB = sat_add_word(xN, lm.move);
  std::int16_t xJ = kWordNegInf;
  std::int16_t xC = kWordNegInf;

  for (std::size_t i = 0; i < L; ++i) {
    const std::int16_t* msr =
        st.msc + static_cast<std::size_t>(seq[i]) * Q * N;
    V xEv = V::neg_inf();
    V dcv = V::neg_inf();
    const V xBv = V::splat(sat_add_word(xB, prof.entry()));

    // Previous row's last stripe, lanes shifted up = the diagonal.
    V mpv = shift_lanes_up(V::load(stripe(mmx, Q - 1)));
    V ipv = shift_lanes_up(V::load(stripe(imx, Q - 1)));
    V dpv = shift_lanes_up(V::load(stripe(dmx, Q - 1)));

    for (int q = 0; q < Q; ++q) {
      const std::size_t off = static_cast<std::size_t>(q) * N;
      V sv = xBv;
      sv = max_i16(sv, adds_w(mpv, V::load(st.tmm + off)));
      sv = max_i16(sv, adds_w(ipv, V::load(st.tim + off)));
      sv = max_i16(sv, adds_w(dpv, V::load(st.tdm + off)));
      sv = adds_w(sv, V::load(msr + off));
      xEv = max_i16(xEv, sv);

      // Stash previous-row stripes before overwriting (double buffer).
      mpv = V::load(stripe(mmx, q));
      ipv = V::load(stripe(imx, q));
      dpv = V::load(stripe(dmx, q));

      sv.store(stripe(mmx, q));
      dcv.store(stripe(dmx, q));

      // Next position's D: M->D from this stripe, or D->D continuation.
      dcv = max_i16(adds_w(sv, V::load(st.tmd + off)),
                    adds_w(dcv, V::load(st.tdd + off)));

      V iv = max_i16(adds_w(mpv, V::load(st.tmi + off)),
                     adds_w(ipv, V::load(st.tii + off)));
      iv.store(stripe(imx, q));
    }

    // Lazy-F: wrap the dangling D chain into the next lane and keep
    // propagating while anything improves.
    dcv = shift_lanes_up(dcv);
    for (int pass = 0; pass < N; ++pass) {
      bool improved = false;
      for (int q = 0; q < Q; ++q) {
        const std::size_t off = static_cast<std::size_t>(q) * N;
        V cur = V::load(stripe(dmx, q));
        if (any_gt_i16(dcv, cur)) {
          improved = true;
          cur = max_i16(cur, dcv);
          cur.store(stripe(dmx, q));
        }
        dcv = adds_w(cur, V::load(st.tdd + off));
      }
      if (!improved) break;
      ++passes;
      dcv = shift_lanes_up(dcv);
    }

#if FINEHMM_CHECKS_ENABLED
    // Lazy-F convergence: one more full wrap pass must leave every D cell
    // unchanged, i.e. the delete chain has reached its fixpoint.  This is
    // what licenses skipping the serial D recurrence in the striped
    // kernel (the paper's Lazy-F condition); if the N-pass cap above ever
    // exits before convergence, scores silently go wrong — so the
    // sanitizer/debug builds sweep the whole row here.
    {
      V carry = adds_w(V::load(stripe(dmx, Q - 1)),
                       V::load(st.tdd + static_cast<std::size_t>(Q - 1) * N));
      carry = shift_lanes_up(carry);
      bool would_improve = false;
      for (int q = 0; q < Q && !would_improve; ++q) {
        const V cur = V::load(stripe(dmx, q));
        if (any_gt_i16(carry, cur)) would_improve = true;
        carry = adds_w(cur, V::load(st.tdd + static_cast<std::size_t>(q) * N));
      }
      FINEHMM_DCHECK(!would_improve, "Lazy-F did not reach its fixpoint");
    }
#endif

    std::int16_t xE = hmax_i16(xEv);
    xJ = std::max(sat_add_word(xJ, lm.loop), sat_add_word(xE, prof.e_j()));
    xC = std::max(sat_add_word(xC, lm.loop), sat_add_word(xE, prof.e_c()));
    xN = sat_add_word(xN, lm.loop);
    xB = std::max(sat_add_word(xN, lm.move), sat_add_word(xJ, lm.move));
  }

  if (lazyf_passes != nullptr) *lazyf_passes = passes;
  FilterResult out;
  out.score_nats = prof.score_from_words(xC, lm);
  return out;
}

// ---------------------------------------------------------------------
// Striped float Forward / Backward (probability space, per-row rescaled).
//
// The lane count is a tier parameter: the same kernel instantiates at 4
// (portable/SSE2), 8 (AVX2) and 16 (AVX-512) float lanes over a
// FwdStripesView built for that width.  Float summation order is part of
// the result, so different widths agree only within the documented
// log-sum tolerance; portable and native runs of the SAME width are
// bit-identical (in-order hsum_f is part of the vector contract).
// ---------------------------------------------------------------------

inline constexpr float kFwdRescaleHi = 1e12f;
inline constexpr float kFwdRescaleLo = 1e-12f;
inline constexpr float kFwdDdEpsilon = 1e-9f;  // relative wrap-mass cutoff

/// The striped parameter arrays the Forward/Backward kernels read, laid
/// out for one lane count N (slot(k) = ((k-1)%Q)*N + (k-1)/Q; residue x's
/// emission-odds stripes live at odds + x*Q*N).  The in-indexed arrays
/// hold the k-1 -> k transition probability at slot(k) (what Forward
/// consumes); the out-indexed arrays hold k -> k+1 at slot(k), zero at
/// k = M (what Backward consumes) and may be null when only Forward runs.
struct FwdStripesView {
  const float* odds = nullptr;
  const float* tmm = nullptr;     // in: P(M_{k-1} -> M_k)
  const float* tim = nullptr;     // in: P(I_{k-1} -> M_k)
  const float* tdm = nullptr;     // in: P(D_{k-1} -> M_k)
  const float* tmi = nullptr;     // at k: P(M_k -> I_k)
  const float* tii = nullptr;     // at k: P(I_k -> I_k)
  const float* tmd = nullptr;     // in: P(M_{k-1} -> D_k)
  const float* tdd = nullptr;     // in: P(D_{k-1} -> D_k)
  const float* tmm_out = nullptr; // out: P(M_k -> M_{k+1})
  const float* tim_out = nullptr; // out: P(I_k -> M_{k+1})
  const float* tdm_out = nullptr; // out: P(D_k -> M_{k+1})
  const float* tmd_out = nullptr; // out: P(M_k -> D_{k+1})
  const float* tdd_out = nullptr; // out: P(D_k -> D_{k+1})
  float entry = 0.0f;             // uniform local B -> M_k probability
  int Q = 0;
};

/// Special-state accumulators threaded through a Forward sweep; the row
/// loop, the specials update and the rescale step are factored out so the
/// plain score and the checkpointed decode execute literally the same
/// float operations (the decode's replay DCHECK depends on it).
struct FwdSweepState {
  double scale_log = 0.0;  // accumulated log of factored-out mass
  float xN = 1.0f;
  float xB = 0.0f;
  float xJ = 0.0f;
  float xC = 0.0f;
};

/// One striped Forward row: consumes the previous row in mmx/imx/dmx and
/// replaces it, returning this row's xE mass.  `odds` is the residue's
/// stripe row; `xb_entry` is xB(previous row) * entry.
template <class V>
inline float fwd_row(const FwdStripesView& st, const float* odds,
                     float xb_entry, float* mmx, float* imx, float* dmx) {
  constexpr int N = V::kLanes;
  const int Q = st.Q;
  auto stripe = [](float* v, int q) {
    return v + static_cast<std::size_t>(q) * N;
  };

  V xEv = V::splat(0.0f);
  const V xBv = V::splat(xb_entry);

  // Previous row's last stripe, lane-shifted = the diagonal.
  V mpv = shift_lanes_up(V::load(stripe(mmx, Q - 1)));
  V ipv = shift_lanes_up(V::load(stripe(imx, Q - 1)));
  V dpv = shift_lanes_up(V::load(stripe(dmx, Q - 1)));

  // Same-row, same-lane left neighbours for the D recurrence; see
  // cpu/fwd_filter.hpp for the striping notes.
  V m_left = V::splat(0.0f);
  V d_left = V::splat(0.0f);

  for (int q = 0; q < Q; ++q) {
    const std::size_t off = static_cast<std::size_t>(q) * N;
    V sv = xBv;
    sv = add_f(sv, mul_f(mpv, V::load(st.tmm + off)));
    sv = add_f(sv, mul_f(ipv, V::load(st.tim + off)));
    sv = add_f(sv, mul_f(dpv, V::load(st.tdm + off)));
    sv = mul_f(sv, V::load(odds + off));
    xEv = add_f(xEv, sv);

    V d = add_f(mul_f(m_left, V::load(st.tmd + off)),
                mul_f(d_left, V::load(st.tdd + off)));

    mpv = V::load(stripe(mmx, q));
    ipv = V::load(stripe(imx, q));
    dpv = V::load(stripe(dmx, q));

    sv.store(stripe(mmx, q));
    d.store(stripe(dmx, q));

    V iv = add_f(mul_f(mpv, V::load(st.tmi + off)),
                 mul_f(ipv, V::load(st.tii + off)));
    iv.store(stripe(imx, q));

    m_left = sv;
    d_left = d;
  }

  // Cross-lane D mass: geometric decay through the row; stop once the
  // circulating mass is negligible next to what is already banked.  The
  // monitoring sums accumulate in vector registers (one hsum per pass,
  // not two per stripe) — that is most of the kernel's speedup over the
  // old 128-bit implementation.
  V extra = add_f(mul_f(shift_lanes_up(m_left), V::load(st.tmd)),
                  mul_f(shift_lanes_up(d_left), V::load(st.tdd)));
  for (int pass = 0; pass < N * Q; ++pass) {
    V circv = V::splat(0.0f);
    V heldv = V::splat(0.0f);
    for (int q = 0; q < Q; ++q) {
      const std::size_t off = static_cast<std::size_t>(q) * N;
      if (q > 0) extra = mul_f(extra, V::load(st.tdd + off));
      V cur = V::load(stripe(dmx, q));
      circv = add_f(circv, extra);
      heldv = add_f(heldv, cur);
      add_f(cur, extra).store(stripe(dmx, q));
    }
    if (hsum_f(circv) <= kFwdDdEpsilon * (hsum_f(heldv) + kFwdRescaleLo))
      break;
    extra = mul_f(shift_lanes_up(extra), V::load(st.tdd));
  }

  return hsum_f(xEv);
}

/// Special-state update after a Forward row with mass xE.
template <class LM>
inline void fwd_row_specials(FwdSweepState& s, const LM& lm, float xE) {
  s.xJ = s.xJ * lm.loop + xE * lm.e_j;
  s.xC = s.xC * lm.loop + xE * lm.e_c;
  s.xN = s.xN * lm.loop;
  s.xB = s.xN * lm.move + s.xJ * lm.move;
}

/// Rescale when the row's mass drifts out of float's comfortable range;
/// returns the factor applied to the DP rows (1.0f when none).
inline float fwd_row_rescale(FwdSweepState& s, float xE, float* mmx,
                             float* imx, float* dmx, std::size_t n) {
  if (!(xE > 0.0f && (xE > kFwdRescaleHi || xE < kFwdRescaleLo)))
    return 1.0f;
  const float inv = 1.0f / xE;
  for (std::size_t j = 0; j < n; ++j) mmx[j] *= inv;
  for (std::size_t j = 0; j < n; ++j) imx[j] *= inv;
  for (std::size_t j = 0; j < n; ++j) dmx[j] *= inv;
  s.xN *= inv;
  s.xB *= inv;
  s.xJ *= inv;
  s.xC *= inv;
  s.scale_log += std::log(static_cast<double>(xE));
  return inv;
}

/// Striped float Forward over N = V::kLanes lanes.  mmx/imx/dmx are Q*N
/// floats of caller scratch; `prof` supplies the length model only.
template <class V, class Seq>
float fwd_kernel(const profile::FwdProfile& prof, const FwdStripesView& st,
                 Seq seq, std::size_t L, float* mmx, float* imx,
                 float* dmx) {
  constexpr int N = V::kLanes;
  FINEHMM_CHECK(L >= 1, "cannot score an empty sequence");
  const int Q = st.Q;
  const auto lm = prof.length_model_for(static_cast<int>(L));
  const std::size_t n = static_cast<std::size_t>(Q) * N;

  std::fill(mmx, mmx + n, 0.0f);
  std::fill(imx, imx + n, 0.0f);
  std::fill(dmx, dmx + n, 0.0f);

  FwdSweepState s;
  s.xB = s.xN * lm.move;

  for (std::size_t i = 0; i < L; ++i) {
    const float* odds = st.odds + static_cast<std::size_t>(seq[i]) * n;
    const float xE = fwd_row<V>(st, odds, s.xB * st.entry, mmx, imx, dmx);
    fwd_row_specials(s, lm, xE);
    fwd_row_rescale(s, xE, mmx, imx, dmx, n);
  }

  if (s.xC <= 0.0f) return kNegInf;
  return static_cast<float>(std::log(static_cast<double>(s.xC) * lm.move) +
                            s.scale_log);
}

/// Caller-owned workspace for the checkpointed Forward/Backward decode.
/// All pointers are raw caller storage (the kernel allocates nothing):
///   mmx/imx/dmx      Q*N floats each — forward DP rows;
///   snap             n_blocks * 3*Q*N — (M,I,D) state after row b*block;
///   blk_m/blk_i      block * Q*N each — replayed forward rows;
///   row_xb/row_inv   L+1 floats — per-row post-rescale xB / rescale inv;
///   row_scale        L+1 doubles — cumulative scale_log after each row;
///   bwd_m/bwd_i/bwd_d/bwd_on  Q*N floats each — backward DP rows.
/// block is the checkpoint spacing (ceil(sqrt(L)) from the driver) and
/// n_blocks = ceil(L / block); memory is O(M * sqrt(L)).
struct FwdBwdScratch {
  float* mmx = nullptr;
  float* imx = nullptr;
  float* dmx = nullptr;
  float* snap = nullptr;
  float* blk_m = nullptr;
  float* blk_i = nullptr;
  float* row_xb = nullptr;
  float* row_inv = nullptr;
  double* row_scale = nullptr;
  float* bwd_m = nullptr;
  float* bwd_i = nullptr;
  float* bwd_d = nullptr;
  float* bwd_on = nullptr;
  int block = 0;
  int n_blocks = 0;
};

/// Checkpointed Forward + Backward with posterior model occupancy.
///
/// Pass 1 is the plain Forward sweep (bit-identical to fwd_kernel: same
/// row/specials/rescale helpers in the same order) recording per-row xB,
/// rescale factors and sqrt(L)-spaced (M,I,D) snapshots.  Pass 2 walks
/// blocks last-to-first: replaying each block's forward rows from its
/// snapshot (bitwise reconstruction — checked against the next snapshot
/// under FINEHMM_CHECKS), then sweeping the Backward recurrence over the
/// replayed rows and emitting mocc[i-1] = P(residue i emitted by the
/// core model | sequence) for i = 1..L.  Returns the Forward score in
/// nats (identical to fwd_kernel's).
///
/// The Backward recurrence mirrors the Forward's striping: the in-stripe
/// D chain runs top-down per lane, and the lane-crossing D mass wraps
/// through shift_lanes_down with the same epsilon cutoff the Forward
/// wrap uses.  Backward rows rescale on the row's bxB mass with the log
/// factor accumulated separately (bscale), so the posterior combines as
/// exp(log(rowsum) + row_scale[i] + bscale - total).
template <class V, class Seq>
float fwd_bwd_kernel(const profile::FwdProfile& prof,
                     const FwdStripesView& st, Seq seq, std::size_t L,
                     const FwdBwdScratch& ws, float* mocc) {
  constexpr int N = V::kLanes;
  FINEHMM_CHECK(L >= 1, "cannot score an empty sequence");
  FINEHMM_CHECK(st.tdd_out != nullptr,
                "fwd_bwd_kernel needs the out-indexed transition stripes");
  FINEHMM_CHECK(ws.block >= 1 && ws.n_blocks >= 1 &&
                    static_cast<std::size_t>(ws.block) *
                            static_cast<std::size_t>(ws.n_blocks) >=
                        L,
                "checkpoint geometry must cover the sequence");
  const int Q = st.Q;
  const auto lm = prof.length_model_for(static_cast<int>(L));
  const std::size_t n = static_cast<std::size_t>(Q) * N;
  const std::size_t row_bytes = n * sizeof(float);

  float* mmx = ws.mmx;
  float* imx = ws.imx;
  float* dmx = ws.dmx;
  auto snap_at = [&](int b) { return ws.snap + static_cast<std::size_t>(b) * 3 * n; };

  // ---- Pass 1: Forward, recording checkpoints ----
  std::fill(mmx, mmx + n, 0.0f);
  std::fill(imx, imx + n, 0.0f);
  std::fill(dmx, dmx + n, 0.0f);

  FwdSweepState s;
  s.xB = s.xN * lm.move;
  ws.row_xb[0] = s.xB;
  ws.row_inv[0] = 1.0f;
  ws.row_scale[0] = 0.0;
  std::memcpy(snap_at(0), mmx, row_bytes);
  std::memcpy(snap_at(0) + n, imx, row_bytes);
  std::memcpy(snap_at(0) + 2 * n, dmx, row_bytes);

  for (std::size_t i = 1; i <= L; ++i) {
    const float* odds =
        st.odds + static_cast<std::size_t>(seq[i - 1]) * n;
    const float xE = fwd_row<V>(st, odds, s.xB * st.entry, mmx, imx, dmx);
    fwd_row_specials(s, lm, xE);
    ws.row_inv[i] = fwd_row_rescale(s, xE, mmx, imx, dmx, n);
    ws.row_xb[i] = s.xB;
    ws.row_scale[i] = s.scale_log;
    const std::size_t b = i / static_cast<std::size_t>(ws.block);
    if (i % static_cast<std::size_t>(ws.block) == 0 &&
        b < static_cast<std::size_t>(ws.n_blocks)) {
      std::memcpy(snap_at(static_cast<int>(b)), mmx, row_bytes);
      std::memcpy(snap_at(static_cast<int>(b)) + n, imx, row_bytes);
      std::memcpy(snap_at(static_cast<int>(b)) + 2 * n, dmx, row_bytes);
    }
  }

  if (s.xC <= 0.0f) {
    std::fill(mocc, mocc + L, 0.0f);
    return kNegInf;
  }
  const double total =
      std::log(static_cast<double>(s.xC) * lm.move) + s.scale_log;

  // ---- Pass 2: blocks last-to-first, Backward over replayed rows ----
  float* bm = ws.bwd_m;
  float* bi = ws.bwd_i;
  float* bd = ws.bwd_d;
  float* bon = ws.bwd_on;
  auto stripe = [](float* v, int q) {
    return v + static_cast<std::size_t>(q) * N;
  };

  // Row L init: only C -> T move survives; M states exit through E.
  float bN = 0.0f;
  float bJ = 0.0f;
  float bC = lm.move;
  double bscale = 0.0;
  std::fill(bm, bm + n, lm.e_c * bC + lm.e_j * bJ);
  std::fill(bi, bi + n, 0.0f);
  std::fill(bd, bd + n, 0.0f);

  for (int b = ws.n_blocks - 1; b >= 0; --b) {
    const std::size_t lo =
        static_cast<std::size_t>(b) * static_cast<std::size_t>(ws.block) + 1;
    const std::size_t hi = std::min<std::size_t>(
        L, lo + static_cast<std::size_t>(ws.block) - 1);

    // Replay forward rows lo..hi from snapshot b (bitwise: same fwd_row,
    // same stored xB products, same stored rescale factors).
    std::memcpy(mmx, snap_at(b), row_bytes);
    std::memcpy(imx, snap_at(b) + n, row_bytes);
    std::memcpy(dmx, snap_at(b) + 2 * n, row_bytes);
    for (std::size_t i = lo; i <= hi; ++i) {
      const float* odds =
          st.odds + static_cast<std::size_t>(seq[i - 1]) * n;
      fwd_row<V>(st, odds, ws.row_xb[i - 1] * st.entry, mmx, imx, dmx);
      const float inv = ws.row_inv[i];
      if (inv != 1.0f) {
        for (std::size_t j = 0; j < n; ++j) mmx[j] *= inv;
        for (std::size_t j = 0; j < n; ++j) imx[j] *= inv;
        for (std::size_t j = 0; j < n; ++j) dmx[j] *= inv;
      }
      std::memcpy(ws.blk_m + (i - lo) * n, mmx, row_bytes);
      std::memcpy(ws.blk_i + (i - lo) * n, imx, row_bytes);
    }
#if FINEHMM_CHECKS_ENABLED
    if (b + 1 < ws.n_blocks) {
      const float* nxt = snap_at(b + 1);
      FINEHMM_DCHECK(std::memcmp(nxt, mmx, row_bytes) == 0 &&
                         std::memcmp(nxt + n, imx, row_bytes) == 0 &&
                         std::memcmp(nxt + 2 * n, dmx, row_bytes) == 0,
                     "checkpoint replay must reconstruct the next "
                     "snapshot bitwise");
    }
#endif

    // Backward sweep rows hi..lo.  Entering the block, bm/bi/bd hold row
    // hi+1 (or the row-L init); each iteration steps to row i, combines
    // with the replayed forward row, then rescales if needed.
    for (std::size_t i = hi;; --i) {
      if (i < L) {
        // Step row i+1 -> i; consumes residue i+1 (seq[i], 0-based).
        const float* odds =
            st.odds + static_cast<std::size_t>(seq[i]) * n;

        // on(k) = odds(x_{i+1}, k) * bM(i+1, k), plus its total.
        V sum_on_v = V::splat(0.0f);
        for (int q = 0; q < Q; ++q) {
          const std::size_t off = static_cast<std::size_t>(q) * N;
          const V on = mul_f(V::load(odds + off), V::load(stripe(bm, q)));
          on.store(stripe(bon, q));
          sum_on_v = add_f(sum_on_v, on);
        }
        const float sum_on = hsum_f(sum_on_v);

        // Special states (adjoints of the forward specials).
        const float bxB = st.entry * sum_on;
        bJ = bJ * lm.loop + bxB * lm.move;
        bN = bN * lm.loop + bxB * lm.move;
        bC = bC * lm.loop;
        const float bxE = lm.e_c * bC + lm.e_j * bJ;

        // In-stripe D chain, top-down per lane; the lane-crossing link
        // at the last stripe starts at zero and is filled by the wrap.
        V dnext = V::splat(0.0f);
        for (int q = Q - 1; q >= 0; --q) {
          const std::size_t off = static_cast<std::size_t>(q) * N;
          const V onp = q == Q - 1 ? shift_lanes_down(V::load(bon))
                                   : V::load(stripe(bon, q + 1));
          const V d = add_f(mul_f(V::load(st.tdm_out + off), onp),
                            mul_f(V::load(st.tdd_out + off), dnext));
          d.store(stripe(bd, q));
          dnext = d;
        }
        // Lane-crossing D mass, mirroring the Forward wrap: the delta
        // entering stripe Q-1 of lane j is the (partial) bd of stripe 0,
        // lane j+1, scaled by tdd_out; propagate until negligible.
        V extra = mul_f(V::load(st.tdd_out + (Q - 1) * N),
                        shift_lanes_down(V::load(bd)));
        for (int pass = 0; pass < N * Q; ++pass) {
          V circv = V::splat(0.0f);
          V heldv = V::splat(0.0f);
          for (int q = Q - 1; q >= 0; --q) {
            const std::size_t off = static_cast<std::size_t>(q) * N;
            if (q < Q - 1) extra = mul_f(extra, V::load(st.tdd_out + off));
            V cur = V::load(stripe(bd, q));
            circv = add_f(circv, extra);
            heldv = add_f(heldv, cur);
            add_f(cur, extra).store(stripe(bd, q));
          }
          if (hsum_f(circv) <=
              kFwdDdEpsilon * (hsum_f(heldv) + kFwdRescaleLo))
            break;
          extra = mul_f(shift_lanes_down(extra),
                        V::load(st.tdd_out + (Q - 1) * N));
        }

        // bM / bI rows in place (bM reads old bI, so it goes first).
        const V bxEv = V::splat(bxE);
        for (int q = 0; q < Q; ++q) {
          const std::size_t off = static_cast<std::size_t>(q) * N;
          const V onp = q == Q - 1 ? shift_lanes_down(V::load(bon))
                                   : V::load(stripe(bon, q + 1));
          const V bdp = q == Q - 1 ? shift_lanes_down(V::load(bd))
                                   : V::load(stripe(bd, q + 1));
          const V bip = V::load(stripe(bi, q));
          V bmv = bxEv;
          bmv = add_f(bmv, mul_f(V::load(st.tmm_out + off), onp));
          bmv = add_f(bmv, mul_f(V::load(st.tmi + off), bip));
          bmv = add_f(bmv, mul_f(V::load(st.tmd_out + off), bdp));
          const V biv = add_f(mul_f(V::load(st.tim_out + off), onp),
                              mul_f(V::load(st.tii + off), bip));
          bmv.store(stripe(bm, q));
          biv.store(stripe(bi, q));
        }
      }

      // Combine: posterior mass of residue i in the core model.
      {
        const float* fm = ws.blk_m + (i - lo) * n;
        const float* fi = ws.blk_i + (i - lo) * n;
        V rsv = V::splat(0.0f);
        for (int q = 0; q < Q; ++q) {
          const std::size_t off = static_cast<std::size_t>(q) * N;
          rsv = add_f(rsv, add_f(mul_f(V::load(fm + off), V::load(bm + off)),
                                 mul_f(V::load(fi + off), V::load(bi + off))));
        }
        const float rowsum = hsum_f(rsv);
        if (rowsum > 0.0f) {
          const double lp = std::log(static_cast<double>(rowsum)) +
                            ws.row_scale[i] + bscale - total;
          const float p = static_cast<float>(std::exp(lp));
          mocc[i - 1] = p < 1.0f ? p : 1.0f;
        } else {
          mocc[i - 1] = 0.0f;
        }
      }

      // Rescale the backward rows on the same trigger the forward uses;
      // bN tracks the total suffix mass (zero only at the row-L init,
      // which never needs rescaling).
      const float brow = bN;
      if (brow > 0.0f &&
          (brow > kFwdRescaleHi || brow < kFwdRescaleLo)) {
        const float inv = 1.0f / brow;
        for (std::size_t j = 0; j < n; ++j) bm[j] *= inv;
        for (std::size_t j = 0; j < n; ++j) bi[j] *= inv;
        for (std::size_t j = 0; j < n; ++j) bd[j] *= inv;
        bN *= inv;
        bJ *= inv;
        bC *= inv;
        bscale += std::log(static_cast<double>(brow));
      }

      if (i == lo) break;
    }
  }

  return static_cast<float>(total);
}

}  // namespace finehmm::cpu::simd_kernels
