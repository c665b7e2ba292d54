// The Plan-7 core profile HMM (Fig. 3 of the paper).
//
// A model of length M has match states M_1..M_M, insert states I_1..I_{M-1}
// and delete states D_1..D_M, with per-node emission distributions and the
// seven Plan-7 transition probabilities.  Node 0 is the begin node: its
// "match" transitions are the B->{M1,I0,D1} distribution.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bio/alphabet.hpp"

namespace finehmm::hmm {

/// Transition indices within a node, HMMER order.
enum Plan7Transition : int {
  kTMM = 0,  // M_k -> M_{k+1}   (k=0: B -> M_1)
  kTMI = 1,  // M_k -> I_k       (k=0: B -> I_0)
  kTMD = 2,  // M_k -> D_{k+1}   (k=0: B -> D_1)
  kTIM = 3,  // I_k -> M_{k+1}
  kTII = 4,  // I_k -> I_k
  kTDM = 5,  // D_k -> M_{k+1}
  kTDD = 6,  // D_k -> D_{k+1}
};
inline constexpr int kNTransitions = 7;

class Plan7Hmm {
 public:
  /// Longest model either reader accepts: far past any real profile, and
  /// small enough that every per-node size computation stays in range.
  static constexpr int kMaxLength = 1 << 20;

  Plan7Hmm() = default;
  /// Create a zeroed model of length M (all probabilities 0; caller fills).
  /// Throws unless 1 <= M <= kMaxLength.
  explicit Plan7Hmm(int M);

  int length() const noexcept { return M_; }
  const std::string& name() const noexcept { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }
  const std::string& description() const noexcept { return desc_; }
  void set_description(std::string d) { desc_ = std::move(d); }

  /// Match emission probability of residue a (0..19) at node k (1..M).
  float& mat(int k, int a) { return mat_[idx(k, a)]; }
  float mat(int k, int a) const { return mat_[idx(k, a)]; }

  /// Insert emission probability of residue a at node k (0..M-1 used; node M
  /// storage exists but is conventionally equal to background).
  float& ins(int k, int a) { return ins_[idx(k, a)]; }
  float ins(int k, int a) const { return ins_[idx(k, a)]; }

  /// Transition probability t at node k (0..M).  At node M the M->M slot
  /// means M_M -> E and D->D means D_M -> E.
  float& tr(int k, Plan7Transition t) { return tr_[k * kNTransitions + t]; }
  float tr(int k, Plan7Transition t) const {
    return tr_[k * kNTransitions + t];
  }

  /// Check that all distributions are normalized (within tol) and the
  /// structural conventions hold; throws finehmm::Error otherwise.
  void validate(float tol = 1e-3f) const;

  /// Renormalize every distribution in place.
  void renormalize();

  /// Match-state occupancy: probability that an alignment path visits M_k.
  /// Used for entry-distribution configuration and diagnostics.
  std::vector<float> match_occupancy() const;

  /// Consensus sequence: the maximum-probability residue of each match
  /// state, uppercase where that residue's probability exceeds 0.5
  /// (hmmemit -c behaviour).
  std::string consensus() const;

 private:
  std::size_t idx(int k, int a) const {
    return static_cast<std::size_t>(k) * bio::kK + static_cast<std::size_t>(a);
  }

  int M_ = 0;
  std::string name_;
  std::string desc_;
  std::vector<float> mat_;  // (M+1) x 20, row 0 unused
  std::vector<float> ins_;  // (M+1) x 20
  std::vector<float> tr_;   // (M+1) x 7
};

}  // namespace finehmm::hmm
