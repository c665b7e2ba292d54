// SSV — Single-segment ungapped Viterbi (extension).
//
// The MSV model's J state lets an alignment chain several ungapped
// segments.  Dropping J yields the even simpler SSV heuristic (HMMER 3.1
// later shipped exactly this as its first pipeline stage): the score of
// the single best ungapped diagonal.  It shares the MSV byte-scoring
// system, so SSV <= MSV holds cell-wise and the same profile drives both.
//
// This is the scalar reference; the striped SIMD filter is the SSV
// instance of the one byte-stage kernel and runs at every tier through
// the backend table (cpu::FusedMsvFilter::ssv, which cpu::MsvFilter::ssv
// and pipeline::BatchScanner::ssv reach through a one-member group) and
// the warp kernel lives in gpu/ssv_kernel.  All agree bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>

#include "cpu/filter_result.hpp"
#include "profile/msv_profile.hpp"

namespace finehmm::cpu {

/// Scalar reference SSV.
FilterResult ssv_scalar(const profile::MsvProfile& prof,
                        const std::uint8_t* seq, std::size_t L);

}  // namespace finehmm::cpu
