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

/// Full Viterbi with backpointers; O(M*L) time and space.
ViterbiTrace viterbi_trace(const hmm::SearchProfile& prof,
                           const std::uint8_t* seq, std::size_t L);

class TraceWorkspace;

/// Scan-path variant of viterbi_trace: identical states, scores, and step
/// sequence (equality-tested against the reference above), but all DP and
/// backpointer storage lives in a caller-owned, grow-only workspace and
/// the inner loop uses plain IEEE float adds — kNegInf is -infinity, so
/// `a + b` equals the reference's guarded add bit-for-bit (no +inf ever
/// enters the recurrence, hence no NaN).  Database engines keep one
/// workspace per worker so rescoring a survivor allocates nothing once the
/// workspace has grown to the largest (M, L) seen.
ViterbiTrace viterbi_trace(const hmm::SearchProfile& prof,
                           const std::uint8_t* seq, std::size_t L,
                           TraceWorkspace& ws);

/// Reusable storage for the workspace viterbi_trace overload.  Buffers
/// only ever grow; a default-constructed workspace is valid and sizes
/// itself on first use.
class TraceWorkspace {
 public:
  TraceWorkspace() = default;

 private:
  friend ViterbiTrace viterbi_trace(const hmm::SearchProfile&,
                                    const std::uint8_t*, std::size_t,
                                    TraceWorkspace&);
  void reserve(int M, std::size_t L);

  std::vector<float> rows_;      // 6 rolling value rows of (M+1) floats
  std::vector<std::uint8_t> bp_; // (L+1)*(M+1) packed M/I/D backpointers
  std::vector<int> be_;          // best exit node per row
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
