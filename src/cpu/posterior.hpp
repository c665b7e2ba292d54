// Posterior decoding and domain definition (extension).
//
// hmmsearch reports *domains*: maximal regions of the target that the
// model explains.  HMMER defines them from the posterior probability that
// each target residue is emitted by the core model (rather than by the
// N/C/J flanking states), computed from full Forward and Backward
// matrices:
//
//   mocc[i] = P(residue i emitted by M or I | sequence, model)
//
// Regions where mocc rises above rt1 (0.25) seed a domain; the envelope
// extends outward while mocc stays above rt2 (0.10).  Each envelope is
// then rescored independently (Forward on the envelope substring) and
// aligned (Viterbi traceback), mirroring p7_domaindef's architecture at
// sequence resolution.
#pragma once

#include <cstdint>
#include <vector>

#include "cpu/trace.hpp"
#include "hmm/profile.hpp"

namespace finehmm::cpu {

/// Full Forward/Backward matrices in nats (row 0 = before any residue).
struct PosteriorMatrices {
  int M = 0;
  std::size_t L = 0;
  // Indexed [i * (M+1) + k]; i in 0..L, k in 0..M (k=0 unused).
  std::vector<float> fwd_m, fwd_i, fwd_d;
  std::vector<float> bwd_m, bwd_i, bwd_d;
  // Specials per row.
  std::vector<float> fwd_n, fwd_b, fwd_j, fwd_c;
  std::vector<float> bwd_n, bwd_b, bwd_j, bwd_c;
  float total = 0.0f;  // Forward score (nats)

  float at(const std::vector<float>& m, std::size_t i, int k) const {
    return m[i * static_cast<std::size_t>(M + 1) + k];
  }
};

/// Run Forward and Backward with full matrix storage; O(M*L) memory.
PosteriorMatrices posterior_matrices(const hmm::SearchProfile& prof,
                                     const std::uint8_t* seq, std::size_t L);

/// Per-residue probability of being emitted by the core model (M or I
/// states); element i corresponds to residue i+1.  Values in [0, 1].
std::vector<float> model_occupancy(const PosteriorMatrices& pm);

struct DomainDefOptions {
  float rt1 = 0.25f;  // seed threshold
  float rt2 = 0.10f;  // envelope extension threshold
};

/// One domain envelope on the target sequence.
struct Domain {
  std::size_t i_start = 0, i_end = 0;  // 1-based envelope coordinates
  float bits = 0.0f;                   // envelope Forward bit score
  std::vector<Alignment> alignments;   // Viterbi alignment of the envelope
};

/// Define and score domains from a precomputed occupancy track (mocc[i]
/// = P(residue i+1 emitted by the core model), L entries).  This is the
/// common tail of every decode path: the scalar checkpointed decoder and
/// the vectorized fwd/bwd filters (FwdFilter::decode) both produce mocc
/// and delegate envelope definition, rescoring and alignment here.  Each
/// envelope is rescored by generic_forward and aligned by the workspace
/// viterbi_trace, both on the active tier's exact row kernels; `ws` is
/// the caller's (a scan worker's) traceback workspace.
std::vector<Domain> domains_from_occupancy(const hmm::SearchProfile& prof,
                                           const std::uint8_t* seq,
                                           std::size_t L, const float* mocc,
                                           TraceWorkspace& ws,
                                           const DomainDefOptions& opts = {});

/// Define and score domains for one sequence (computes the occupancy
/// track with the scalar checkpointed decoder, then delegates).
std::vector<Domain> define_domains(const hmm::SearchProfile& prof,
                                   const std::uint8_t* seq, std::size_t L,
                                   const DomainDefOptions& opts = {});

}  // namespace finehmm::cpu
