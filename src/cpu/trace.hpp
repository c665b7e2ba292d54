// Viterbi traceback and alignment rendering (extension).
//
// The filters only need scores, but a usable search tool reports *where*
// the motif matched.  viterbi_trace runs the full Plan-7 Viterbi DP with
// backpointers and recovers the optimal state path; trace_alignments
// renders each pass through the core model (a B->...->E segment) as a
// three-line alignment block, hmmsearch-style:
//
//     model  kvLATGCEw          (consensus; lowercase = weak column)
//     match  k+LA GC w          (letter = exact, '+' = positive score)
//     seq    KILASGCRW
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hmm/profile.hpp"

namespace finehmm::cpu {

enum class TraceState : std::uint8_t { kN, kB, kM, kI, kD, kE, kJ, kC };

struct TraceStep {
  TraceState state;
  int k = 0;          // model node (M/I/D states)
  std::size_t i = 0;  // 1-based sequence position for emitting steps, 0 else
};

struct ViterbiTrace {
  std::vector<TraceStep> steps;
  float score = 0.0f;  // the Viterbi score this path achieves (nats)
};

class TraceWorkspace;

/// Full Viterbi with backpointers; O(M*L) time and space.  The reference
/// traceback: viterbi_trace_scalar on a private workspace.
ViterbiTrace viterbi_trace(const hmm::SearchProfile& prof,
                           const std::uint8_t* seq, std::size_t L);

/// Scan-path traceback: the same states, score, step sequence and packed
/// backpointers as viterbi_trace_scalar (equality-tested on every tier),
/// computed by the active SIMD tier's exact row kernel
/// (cpu/simd_backend/row_kernels.hpp).  All DP and backpointer storage
/// lives in a caller-owned, grow-only workspace, so database engines keep
/// one per worker and rescoring a survivor allocates nothing once the
/// workspace has grown to the largest (M, L) seen.
ViterbiTrace viterbi_trace(const hmm::SearchProfile& prof,
                           const std::uint8_t* seq, std::size_t L,
                           TraceWorkspace& ws);

/// The scalar Viterbi DP the row kernels reproduce, on the same
/// workspace; kept as their test oracle.  Plain IEEE float adds: kNegInf
/// is -infinity and no score is +inf, so `a + b` never yields a NaN.
ViterbiTrace viterbi_trace_scalar(const hmm::SearchProfile& prof,
                                  const std::uint8_t* seq, std::size_t L,
                                  TraceWorkspace& ws);

/// Reusable storage for the workspace tracebacks.  Buffers only ever
/// grow; a default-constructed workspace is valid and sizes itself on
/// first use.
class TraceWorkspace {
 public:
  TraceWorkspace() = default;

  /// Row i (0..L) of the last trace's packed backpointers, indexed by
  /// node k (1..M): the match predecessor (0 B, 1 M, 2 I, 3 D) in bits
  /// 0-1, I-from-I in bit 2, D-from-D in bit 3.
  const std::uint8_t* packed_row(std::size_t i) const {
    return bp_.data() + i * bp_stride_;
  }

 private:
  friend ViterbiTrace viterbi_trace(const hmm::SearchProfile&,
                                    const std::uint8_t*, std::size_t,
                                    TraceWorkspace&);
  friend ViterbiTrace viterbi_trace_scalar(const hmm::SearchProfile&,
                                           const std::uint8_t*, std::size_t,
                                           TraceWorkspace&);
  void reserve(const hmm::SearchProfile& prof, std::size_t L);

  std::vector<float> rows_;       // 7 DP rows of prof.row_stride() floats
  std::vector<std::uint8_t> bp_;  // (L+1)*(M+1) packed M/I/D backpointers
  std::size_t bp_stride_ = 0;     // M+1
  std::vector<int> be_;           // best exit node per row
  std::vector<std::uint8_t> bj_, bc_, bb_;  // special-state backpointers
};

/// One aligned core-model segment of a trace.
struct Alignment {
  int k_start = 0, k_end = 0;          // model span
  std::size_t i_start = 0, i_end = 0;  // sequence span (1-based)
  std::string model_line;              // consensus with '.' for inserts
  std::string match_line;              // identity / '+' / ' '
  std::string seq_line;                // residues with '-' for deletes
};

/// Split a trace into its B->E segments and render them.
std::vector<Alignment> trace_alignments(const ViterbiTrace& trace,
                                        const hmm::SearchProfile& prof,
                                        const std::uint8_t* seq);

/// Recompute the score of a trace by summing its transition and emission
/// scores (used by tests to validate the traceback).
float trace_score(const ViterbiTrace& trace, const hmm::SearchProfile& prof,
                  const std::uint8_t* seq, std::size_t L);

}  // namespace finehmm::cpu
