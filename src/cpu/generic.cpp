#include "cpu/generic.hpp"

#include <algorithm>
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

float add_scores(float a, float b) {
  // max-plus semiring "multiply": -inf is absorbing.
  if (a == kNegInf || b == kNegInf) return kNegInf;
  return a + b;
}

}  // namespace

float generic_msv_filtersim(const hmm::SearchProfile& prof,
                            const std::uint8_t* seq, std::size_t L) {
  FH_REQUIRE(L >= 1, "cannot score an empty sequence");
  const int M = prof.length();
  const float tbm = prof.tsc(0, kPTBM);
  const float tec = std::log(0.5f);
  // Byte filter: loops are free, -3 nats restored at the end; the N->B
  // move is charged (tjb) and so is C->T, matching score_from_bytes.
  // With free loops N stays 0 and C tracks J exactly, so J alone carries
  // the row-to-row state.
  const float lf = static_cast<float>(L);
  const float tmove = std::log(3.0f / (lf + 3.0f));

  std::vector<float> mrow(M + 1, kNegInf);
  float xB = tmove;
  float xJ = kNegInf;
  for (std::size_t i = 0; i < L; ++i) {
    float xE = kNegInf;
    float diag = kNegInf;  // previous row's M(i-1, k-1)
    const float xBv = add_scores(xB, tbm);
    for (int k = 1; k <= M; ++k) {
      float sv = std::max(diag, xBv);
      sv = add_scores(sv, prof.msc(k, seq[i]));
      diag = mrow[k];
      mrow[k] = sv;
      xE = std::max(xE, sv);
    }
    xJ = std::max(xJ, add_scores(xE, tec));
    xB = std::max(tmove, add_scores(xJ, tmove));
  }
  return add_scores(xJ, tmove) - 3.0f;
}

float generic_viterbi(const hmm::SearchProfile& prof, const std::uint8_t* seq,
                      std::size_t L) {
  FH_REQUIRE(L >= 1, "cannot score an empty sequence");
  const int M = prof.length();
  const auto xs = prof.xsc_for(static_cast<int>(L));

  std::vector<float> pm(M + 1, kNegInf), pi(M + 1, kNegInf),
      pd(M + 1, kNegInf);
  std::vector<float> cm(M + 1, kNegInf), ci(M + 1, kNegInf),
      cd(M + 1, kNegInf);

  float xN = 0.0f;
  float xB = xN + xs.n_move;
  float xJ = kNegInf, xC = kNegInf;

  for (std::size_t i = 0; i < L; ++i) {
    float xE = kNegInf;
    cm[0] = ci[0] = cd[0] = kNegInf;
    for (int k = 1; k <= M; ++k) {
      float m = add_scores(xB, prof.tsc(k - 1, kPTBM));
      m = std::max(m, add_scores(pm[k - 1], prof.tsc(k - 1, kPTMM)));
      m = std::max(m, add_scores(pi[k - 1], prof.tsc(k - 1, kPTIM)));
      m = std::max(m, add_scores(pd[k - 1], prof.tsc(k - 1, kPTDM)));
      m = add_scores(m, prof.msc(k, seq[i]));
      cm[k] = m;
      xE = std::max(xE, add_scores(m, prof.esc(k)));

      if (k < M) {
        ci[k] = std::max(add_scores(pm[k], prof.tsc(k, kPTMI)),
                         add_scores(pi[k], prof.tsc(k, kPTII)));
      } else {
        ci[k] = kNegInf;
      }
      if (k >= 2) {
        cd[k] = std::max(add_scores(cm[k - 1], prof.tsc(k - 1, kPTMD)),
                         add_scores(cd[k - 1], prof.tsc(k - 1, kPTDD)));
      } else {
        cd[k] = kNegInf;
      }
    }
    xJ = std::max(add_scores(xJ, xs.j_loop), add_scores(xE, xs.e_j));
    xC = std::max(add_scores(xC, xs.c_loop), add_scores(xE, xs.e_c));
    xN = add_scores(xN, xs.n_loop);
    xB = std::max(add_scores(xN, xs.n_move), add_scores(xJ, xs.j_move));
    pm.swap(cm);
    pi.swap(ci);
    pd.swap(cd);
  }
  return add_scores(xC, xs.c_move);
}

namespace {

float lse(float a, float b, bool exact) {
  return exact ? logsum_exact(a, b) : logsum(a, b);
}

float forward_scalar(const hmm::SearchProfile& prof, const std::uint8_t* seq,
                     std::size_t L, bool exact) {
  FH_REQUIRE(L >= 1, "cannot score an empty sequence");
  const int M = prof.length();
  const auto xs = prof.xsc_for(static_cast<int>(L));

  std::vector<float> pm(M + 1, kNegInf), pi(M + 1, kNegInf),
      pd(M + 1, kNegInf);
  std::vector<float> cm(M + 1, kNegInf), ci(M + 1, kNegInf),
      cd(M + 1, kNegInf);

  float xN = 0.0f;
  float xB = xN + xs.n_move;
  float xJ = kNegInf, xC = kNegInf;

  for (std::size_t i = 0; i < L; ++i) {
    float xE = kNegInf;
    cm[0] = ci[0] = cd[0] = kNegInf;
    for (int k = 1; k <= M; ++k) {
      float m = add_scores(xB, prof.tsc(k - 1, kPTBM));
      m = lse(m, add_scores(pm[k - 1], prof.tsc(k - 1, kPTMM)), exact);
      m = lse(m, add_scores(pi[k - 1], prof.tsc(k - 1, kPTIM)), exact);
      m = lse(m, add_scores(pd[k - 1], prof.tsc(k - 1, kPTDM)), exact);
      m = add_scores(m, prof.msc(k, seq[i]));
      cm[k] = m;
      xE = lse(xE, add_scores(m, prof.esc(k)), exact);

      if (k < M) {
        ci[k] = lse(add_scores(pm[k], prof.tsc(k, kPTMI)),
                    add_scores(pi[k], prof.tsc(k, kPTII)), exact);
      } else {
        ci[k] = kNegInf;
      }
      if (k >= 2) {
        cd[k] = lse(add_scores(cm[k - 1], prof.tsc(k - 1, kPTMD)),
                    add_scores(cd[k - 1], prof.tsc(k - 1, kPTDD)), exact);
      } else {
        cd[k] = kNegInf;
      }
    }
    xJ = lse(add_scores(xJ, xs.j_loop), add_scores(xE, xs.e_j), exact);
    xC = lse(add_scores(xC, xs.c_loop), add_scores(xE, xs.e_c), exact);
    xN = add_scores(xN, xs.n_loop);
    xB = lse(add_scores(xN, xs.n_move), add_scores(xJ, xs.j_move), exact);
    pm.swap(cm);
    pi.swap(ci);
    pd.swap(cd);
  }
  return add_scores(xC, xs.c_move);
}

}  // namespace

float generic_forward(const hmm::SearchProfile& prof, const std::uint8_t* seq,
                      std::size_t L, bool exact) {
  if (exact) return forward_scalar(prof, seq, L, true);
  FH_REQUIRE(L >= 1, "cannot score an empty sequence");
  std::vector<float> rows(6 * prof.row_stride());
  return backend::tier_kernels(active_simd_tier())
      .forward_rows(prof, seq, L, rows.data());
}

float generic_forward_scalar(const hmm::SearchProfile& prof,
                             const std::uint8_t* seq, std::size_t L) {
  return forward_scalar(prof, seq, L, false);
}

float generic_backward(const hmm::SearchProfile& prof, const std::uint8_t* seq,
                       std::size_t L, bool exact) {
  FH_REQUIRE(L >= 1, "cannot score an empty sequence");
  const int M = prof.length();
  const auto xs = prof.xsc_for(static_cast<int>(L));

  // beta arrays at row i+1 ("next") and row i ("cur").
  std::vector<float> nm(M + 2, kNegInf), ni(M + 2, kNegInf),
      nd(M + 2, kNegInf);
  std::vector<float> cm(M + 2, kNegInf), ci(M + 2, kNegInf),
      cd(M + 2, kNegInf);

  // Row L: beta of states after all residues have been emitted.  B and N
  // are dead ends there (B -> M would need one more residue), J likewise,
  // and D chains can never reach E (E exits from M only), so only C and
  // the M exit path are live.
  float xC = xs.c_move;
  float xJ = kNegInf;
  float xN = kNegInf;
  float xE = lse(add_scores(xs.e_c, xC), add_scores(xs.e_j, xJ), exact);
  for (int k = M; k >= 1; --k) {
    nm[k] = add_scores(prof.esc(k), xE);
    nd[k] = kNegInf;
    ni[k] = kNegInf;
  }

  float prev_xC = xC, prev_xJ = xJ, prev_xN = xN;

  for (std::size_t i = L; i-- > 0;) {
    // Residue x_{i+1} (0-based seq[i]) is the next one to emit.
    std::uint8_t x = seq[i];

    // Specials at row i (can still emit residues i+1..L).
    float bxB = kNegInf;
    for (int k = 1; k <= M; ++k) {
      bxB = lse(bxB,
                add_scores(prof.tsc(k - 1, kPTBM),
                           add_scores(prof.msc(k, x), nm[k])),
                exact);
    }
    float bxJ = lse(add_scores(xs.j_loop, prev_xJ),
                    add_scores(xs.j_move, bxB), exact);
    float bxC = add_scores(xs.c_loop, prev_xC);
    float bxE = lse(add_scores(xs.e_c, bxC), add_scores(xs.e_j, bxJ), exact);

    for (int k = M; k >= 1; --k) {
      // beta_D(i,k): D->M diag or D->D right.
      float d = kNegInf;
      if (k < M) {
        d = add_scores(prof.tsc(k, kPTDM),
                       add_scores(prof.msc(k + 1, x), nm[k + 1]));
        d = lse(d, add_scores(prof.tsc(k, kPTDD), cd[k + 1]), exact);
      }
      cd[k] = d;

      // beta_I(i,k): I->M diag or I->I down.
      float iv = kNegInf;
      if (k < M) {
        iv = add_scores(prof.tsc(k, kPTIM),
                        add_scores(prof.msc(k + 1, x), nm[k + 1]));
        iv = lse(iv, add_scores(prof.tsc(k, kPTII), ni[k]), exact);
      }
      ci[k] = iv;

      // beta_M(i,k): exit, M->M diag, M->I down, M->D right.
      float m = add_scores(prof.esc(k), bxE);
      if (k < M) {
        m = lse(m,
                add_scores(prof.tsc(k, kPTMM),
                           add_scores(prof.msc(k + 1, x), nm[k + 1])),
                exact);
        m = lse(m, add_scores(prof.tsc(k, kPTMI), ni[k]), exact);
        m = lse(m, add_scores(prof.tsc(k, kPTMD), cd[k + 1]), exact);
      }
      cm[k] = m;
    }

    float bxN = lse(add_scores(xs.n_loop, prev_xN),
                    add_scores(xs.n_move, bxB), exact);

    prev_xC = bxC;
    prev_xJ = bxJ;
    prev_xN = bxN;
    nm.swap(cm);
    ni.swap(ci);
    nd.swap(cd);

    if (i == 0) return bxN;
  }
  return kNegInf;  // unreachable (L >= 1)
}

}  // namespace finehmm::cpu
