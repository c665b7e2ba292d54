#include "cpu/posterior.hpp"

#include <algorithm>
#include <cmath>

#include "cpu/checkpoint.hpp"
#include "cpu/generic.hpp"
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

}  // namespace

PosteriorMatrices posterior_matrices(const hmm::SearchProfile& prof,
                                     const std::uint8_t* seq, std::size_t L) {
  FH_REQUIRE(L >= 1, "cannot decode an empty sequence");
  const int M = prof.length();
  const auto xs = prof.xsc_for(static_cast<int>(L));

  PosteriorMatrices pm;
  pm.M = M;
  pm.L = L;
  const std::size_t stride = static_cast<std::size_t>(M + 1);
  const std::size_t cells = (L + 1) * stride;
  for (auto* v : {&pm.fwd_m, &pm.fwd_i, &pm.fwd_d, &pm.bwd_m, &pm.bwd_i,
                  &pm.bwd_d})
    v->assign(cells, kNegInf);
  for (auto* v : {&pm.fwd_n, &pm.fwd_b, &pm.fwd_j, &pm.fwd_c, &pm.bwd_n,
                  &pm.bwd_b, &pm.bwd_j, &pm.bwd_c})
    v->assign(L + 1, kNegInf);

  auto idx = [stride](std::size_t i, int k) { return i * stride + k; };

  // ---------------- Forward, storing everything ----------------
  pm.fwd_n[0] = 0.0f;
  pm.fwd_b[0] = xs.n_move;
  for (std::size_t i = 1; i <= L; ++i) {
    std::uint8_t x = seq[i - 1];
    float xE = kNegInf;
    for (int k = 1; k <= M; ++k) {
      float m = add(pm.fwd_b[i - 1], prof.tsc(k - 1, kPTBM));
      m = logsum_exact(
          m, add(pm.fwd_m[idx(i - 1, k - 1)], prof.tsc(k - 1, kPTMM)));
      m = logsum_exact(
          m, add(pm.fwd_i[idx(i - 1, k - 1)], prof.tsc(k - 1, kPTIM)));
      m = logsum_exact(
          m, add(pm.fwd_d[idx(i - 1, k - 1)], prof.tsc(k - 1, kPTDM)));
      m = add(m, prof.msc(k, x));
      pm.fwd_m[idx(i, k)] = m;
      xE = logsum_exact(xE, add(m, prof.esc(k)));

      if (k < M)
        pm.fwd_i[idx(i, k)] = logsum_exact(
            add(pm.fwd_m[idx(i - 1, k)], prof.tsc(k, kPTMI)),
            add(pm.fwd_i[idx(i - 1, k)], prof.tsc(k, kPTII)));
      if (k >= 2)
        pm.fwd_d[idx(i, k)] = logsum_exact(
            add(pm.fwd_m[idx(i, k - 1)], prof.tsc(k - 1, kPTMD)),
            add(pm.fwd_d[idx(i, k - 1)], prof.tsc(k - 1, kPTDD)));
    }
    pm.fwd_j[i] = logsum_exact(add(pm.fwd_j[i - 1], xs.j_loop),
                               add(xE, xs.e_j));
    pm.fwd_c[i] = logsum_exact(add(pm.fwd_c[i - 1], xs.c_loop),
                               add(xE, xs.e_c));
    pm.fwd_n[i] = add(pm.fwd_n[i - 1], xs.n_loop);
    pm.fwd_b[i] = logsum_exact(add(pm.fwd_n[i], xs.n_move),
                               add(pm.fwd_j[i], xs.j_move));
  }
  pm.total = add(pm.fwd_c[L], xs.c_move);

  // ---------------- Backward, storing everything ----------------
  pm.bwd_c[L] = xs.c_move;
  // (B, N, J at row L are dead ends; M at row L exits through E -> C.)
  {
    float bxE = add(xs.e_c, pm.bwd_c[L]);
    for (int k = 1; k <= M; ++k)
      pm.bwd_m[idx(L, k)] = add(prof.esc(k), bxE);
  }
  for (std::size_t i = L; i-- > 0;) {
    std::uint8_t x = seq[i];  // residue i+1, next to be emitted

    float bxB = kNegInf;
    for (int k = 1; k <= M; ++k)
      bxB = logsum_exact(
          bxB, add(prof.tsc(k - 1, kPTBM),
                   add(prof.msc(k, x), pm.bwd_m[idx(i + 1, k)])));
    pm.bwd_b[i] = bxB;
    pm.bwd_j[i] = logsum_exact(add(xs.j_loop, pm.bwd_j[i + 1]),
                               add(xs.j_move, bxB));
    pm.bwd_c[i] = add(xs.c_loop, pm.bwd_c[i + 1]);
    pm.bwd_n[i] = logsum_exact(add(xs.n_loop, pm.bwd_n[i + 1]),
                               add(xs.n_move, bxB));
    float bxE = logsum_exact(add(xs.e_c, pm.bwd_c[i]),
                             add(xs.e_j, pm.bwd_j[i]));

    if (i == 0) {
      // Row 0 has no M/I/D states occupied (nothing emitted yet).
      break;
    }
    for (int k = M; k >= 1; --k) {
      float d = kNegInf;
      if (k < M) {
        d = add(prof.tsc(k, kPTDM),
                add(prof.msc(k + 1, x), pm.bwd_m[idx(i + 1, k + 1)]));
        d = logsum_exact(
            d, add(prof.tsc(k, kPTDD), pm.bwd_d[idx(i, k + 1)]));
      }
      pm.bwd_d[idx(i, k)] = d;

      float iv = kNegInf;
      if (k < M) {
        iv = add(prof.tsc(k, kPTIM),
                 add(prof.msc(k + 1, x), pm.bwd_m[idx(i + 1, k + 1)]));
        iv = logsum_exact(iv,
                          add(prof.tsc(k, kPTII), pm.bwd_i[idx(i + 1, k)]));
      }
      pm.bwd_i[idx(i, k)] = iv;

      float m = add(prof.esc(k), bxE);
      if (k < M) {
        m = logsum_exact(
            m, add(prof.tsc(k, kPTMM),
                   add(prof.msc(k + 1, x), pm.bwd_m[idx(i + 1, k + 1)])));
        m = logsum_exact(m,
                         add(prof.tsc(k, kPTMI), pm.bwd_i[idx(i + 1, k)]));
        m = logsum_exact(m, add(prof.tsc(k, kPTMD), pm.bwd_d[idx(i, k + 1)]));
      }
      pm.bwd_m[idx(i, k)] = m;
    }
  }
  return pm;
}

std::vector<float> model_occupancy(const PosteriorMatrices& pm) {
  std::vector<float> mocc(pm.L, 0.0f);
  const std::size_t stride = static_cast<std::size_t>(pm.M + 1);
  for (std::size_t i = 1; i <= pm.L; ++i) {
    float acc = kNegInf;
    for (int k = 1; k <= pm.M; ++k) {
      acc = logsum_exact(acc, pm.fwd_m[i * stride + k] +
                                  pm.bwd_m[i * stride + k]);
      acc = logsum_exact(acc, pm.fwd_i[i * stride + k] +
                                  pm.bwd_i[i * stride + k]);
    }
    float p = acc == kNegInf ? 0.0f : std::exp(acc - pm.total);
    mocc[i - 1] = std::min(1.0f, std::max(0.0f, p));
  }
  return mocc;
}

std::vector<Domain> domains_from_occupancy(const hmm::SearchProfile& prof,
                                           const std::uint8_t* seq,
                                           std::size_t L, const float* mocc,
                                           TraceWorkspace& ws,
                                           const DomainDefOptions& opts) {
  std::vector<Domain> out;
  std::size_t i = 0;
  while (i < L) {
    if (mocc[i] < opts.rt1) {
      ++i;
      continue;
    }
    // Seed found: extend with the looser rt2 threshold.
    std::size_t lo = i;
    while (lo > 0 && mocc[lo - 1] >= opts.rt2) --lo;
    std::size_t hi = i;
    while (hi + 1 < L && mocc[hi + 1] >= opts.rt2) ++hi;

    Domain d;
    d.i_start = lo + 1;
    d.i_end = hi + 1;

    // Rescore the envelope independently, as hmmsearch does.
    std::size_t env_len = hi - lo + 1;
    const std::uint8_t* env = seq + lo;
    float raw = generic_forward(prof, env, env_len);
    d.bits = hmm::nats_to_bits(raw, static_cast<int>(env_len));

    auto trace = viterbi_trace(prof, env, env_len, ws);
    d.alignments = trace_alignments(trace, prof, env);
    for (auto& a : d.alignments) {
      a.i_start += lo;  // shift to whole-sequence coordinates
      a.i_end += lo;
    }
    out.push_back(std::move(d));
    i = hi + 1;
  }
  return out;
}

std::vector<Domain> define_domains(const hmm::SearchProfile& prof,
                                   const std::uint8_t* seq, std::size_t L,
                                   const DomainDefOptions& opts) {
  // The checkpointed decoder (O(M*sqrt(L)) memory) produces the same
  // occupancies as the full matrices; domain definition only needs mocc.
  auto ck = model_occupancy_checkpointed(prof, seq, L);
  TraceWorkspace ws;
  return domains_from_occupancy(prof, seq, L, ck.mocc.data(), ws, opts);
}

}  // namespace finehmm::cpu
