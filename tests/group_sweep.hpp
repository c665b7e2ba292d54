// The one byte-stage kernel, msv_group_kernel, at any portable lane
// width: how the width-N spec tests reach the code FusedMsvFilter
// dispatches per tier.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "cpu/filter_result.hpp"
#include "cpu/msv_group.hpp"
#include "cpu/simd_backend/kernels.hpp"
#include "cpu/simd_vec.hpp"
#include "util/error.hpp"

namespace finehmm::test {

/// Every member's result of one portable N-lane sweep of `kStage` over
/// `group` (packed for N lanes), converted as FusedMsvFilter converts it.
template <int N, cpu::simd_kernels::ByteStage kStage, class Seq>
std::vector<cpu::FilterResult> sweep_width(const cpu::FusedMsvGroup& group,
                                           Seq seq, std::size_t L) {
  FH_REQUIRE(group.lanes() == N, "group packed for another lane width");
  std::vector<std::uint8_t> row(static_cast<std::size_t>(group.segments()) *
                                N);
  std::vector<std::uint8_t> lanes(3 * N);
  std::vector<std::uint8_t> xj(group.size()), overflowed(group.size());
  cpu::simd_kernels::MsvGroupState st;
  st.xb = lanes.data();
  st.trigger = lanes.data() + N;
  st.xe = lanes.data() + 2 * N;
  st.xj = xj.data();
  st.overflowed = overflowed.data();
  st.tjb = group.member(0).tjb_for(static_cast<int>(L));
  cpu::simd_kernels::msv_group_kernel<cpu::U8xN<N>, Seq, kStage>(
      group.view(), st, seq, L, row.data());
  std::vector<cpu::FilterResult> out(group.size());
  for (std::size_t m = 0; m < group.size(); ++m)
    out[m] = overflowed[m]
                 ? cpu::FilterResult{std::numeric_limits<float>::infinity(),
                                     true}
                 : cpu::FilterResult{group.member(m).score_from_bytes_tjb(
                                         xj[m], st.tjb),
                                     false};
  return out;
}

}  // namespace finehmm::test
