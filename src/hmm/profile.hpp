// Search-profile configuration: turning a Plan-7 core HMM into the
// log-odds scoring profile used by the generic (float) algorithms and by
// the vectorized filter profiles.
//
// We configure HMMER 3.0's multihit local alignment mode ("uniform
// fragment" entry, free local exit) with the standard length model:
//
//   entry   B -> M_k   = 2 / (M (M+1))          (uniform over k)
//   exit    M_k -> E   = 1                      (free local exit)
//   E -> {C, J}        = 1/2 each (multihit)    or  E -> C = 1 (unihit)
//   N/C/J loop         = L / (L+3)              (multihit; L+2 for unihit)
//   N/C/J move         = 3 / (L+3)
//
// Emission scores are log-odds against the background; insert emissions
// equal the background in local mode so their score is 0 (HMMER does the
// same in its optimized profiles).  Degenerate residues score the
// background-weighted average of their constituent residues' scores.
#pragma once

#include <vector>

#include "hmm/plan7.hpp"
#include "util/logspace.hpp"

namespace finehmm::hmm {

enum class AlignMode {
  kLocalMultihit,  // hmmsearch default
  kLocalUnihit,
  // Glocal ("global with respect to the model"): the whole model must be
  // traversed, entering/leaving through wing-retracted delete paths.
  // Used by the generic engines and hmmalign; the vectorized filters are
  // local-only, exactly as in HMMER.
  kGlocalMultihit,
  kGlocalUnihit,
};

constexpr bool is_local(AlignMode m) {
  return m == AlignMode::kLocalMultihit || m == AlignMode::kLocalUnihit;
}
constexpr bool is_multihit(AlignMode m) {
  return m == AlignMode::kLocalMultihit || m == AlignMode::kGlocalMultihit;
}

/// Profile transition score indices (log probabilities, nats).
enum ProfileTransition : int {
  kPTMM = 0,  // M_{k} -> M_{k+1}
  kPTIM = 1,  // I_{k} -> M_{k+1}
  kPTDM = 2,  // D_{k} -> M_{k+1}
  kPTBM = 3,  // B -> M_{k+1} (local entry; same for all k)
  kPTMD = 4,  // M_{k} -> D_{k+1}
  kPTDD = 5,  // D_{k} -> D_{k+1}
  kPTMI = 6,  // M_{k} -> I_{k}
  kPTII = 7,  // I_{k} -> I_{k}
};
inline constexpr int kNProfileTransitions = 8;

/// Special-state scores (nats) of the configured length model.
struct SpecialScores {
  float n_loop, n_move;  // N->N, N->B
  float e_c, e_j;        // E->C, E->J
  float c_loop, c_move;  // C->C, C->T
  float j_loop, j_move;  // J->J, J->B
};

class SearchProfile {
 public:
  SearchProfile() = default;

  /// Configure from a core model for a target length L.
  SearchProfile(const Plan7Hmm& hmm, AlignMode mode, int L);

  /// Re-derive the length-dependent special scores for a new target length
  /// without touching the emission/transition scores.
  void reconfig_length(int L);

  /// Pure variant: compute the special scores for a target length without
  /// mutating the profile (callers scoring many sequences use this).
  SpecialScores xsc_for(int L) const;

  int length() const noexcept { return M_; }
  int target_length() const noexcept { return L_; }
  AlignMode mode() const noexcept { return mode_; }
  const std::string& name() const noexcept { return name_; }

  /// Match emission log-odds score of alphabet code x at node k (1..M).
  float msc(int k, int x) const { return msc_row(x)[k]; }
  /// Insert emission score (0 in local mode, but kept for generality).
  float isc(int k, int x) const {
    (void)k;
    (void)x;
    return 0.0f;
  }
  /// Transition score t at source node k (0..M-1 for the k -> k+1 family).
  float tsc(int k, ProfileTransition t) const { return tsc_row(t)[k]; }
  /// Exit score M_k -> E (0 in local mode; the wing-retracted delete path
  /// M_k -> D_{k+1} -> ... -> D_M -> E in glocal mode).
  float esc(int k) const { return esc_[k]; }

  // Node-major rows, the layout the exact row kernels
  // (cpu/simd_backend/row_kernels.hpp) load in vector lanes: element k of
  // a row is node k, for k = 0..M, followed by kRowPad entries of -inf.
  // Node M has no k -> k+1 transitions and node 0 no match emission, so
  // those entries are -inf too.  The padding keeps a load of up to
  // kRowPad lanes that starts at any k <= M inside the row.
  static constexpr int kRowPad = 16;
  /// Floats per row: M + 1 nodes plus the padding.
  std::size_t row_stride() const noexcept { return stride_; }
  /// msc(k, x) for every k.
  const float* msc_row(int x) const {
    return msc_.data() + static_cast<std::size_t>(x) * stride_;
  }
  /// tsc(k, t) for every k.
  const float* tsc_row(ProfileTransition t) const {
    return tsc_.data() + static_cast<std::size_t>(t) * stride_;
  }
  /// esc(k) for every k.
  const float* esc_row() const { return esc_.data(); }
  const SpecialScores& xsc() const noexcept { return xsc_; }

  /// Most negative finite match emission score (used for byte bias).
  float min_emission_score() const noexcept { return min_msc_; }
  /// Largest match emission score.
  float max_emission_score() const noexcept { return max_msc_; }

 private:
  int M_ = 0;
  int L_ = 0;
  AlignMode mode_ = AlignMode::kLocalMultihit;
  std::string name_;
  std::size_t stride_ = 0;  // M + 1 + kRowPad
  std::vector<float> msc_;  // Kp rows of stride_
  std::vector<float> tsc_;  // 8 rows of stride_ (source node 0..M-1)
  std::vector<float> esc_;  // stride_, exit scores M_k -> E
  SpecialScores xsc_{};
  float min_msc_ = 0.0f;
  float max_msc_ = 0.0f;
};

/// The null (background) model score correction.
///
/// Null1 is a one-state geometric model emitting the background
/// composition.  Emission terms cancel inside the profile's log-odds
/// scores; what remains is the length term returned here (nats).
float null1_score(int L);

/// Convert a raw profile score (nats) to a bit score against null1.
float nats_to_bits(float raw_nats, int L);

}  // namespace finehmm::hmm
