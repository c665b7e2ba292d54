#include "hmm/model_group.hpp"

#include <algorithm>
#include <limits>

#include "bio/alphabet.hpp"
#include "util/error.hpp"

namespace finehmm::hmm {

namespace {

// Lanes model length M claims at stripe count Q: the span holds the M
// real cells plus at least one trailing pad (M/Q + 1 == ceil((M+1)/Q)
// whenever M%Q < Q), so the group kernels' lane shift always crosses a
// forced-zero cell between neighbouring models.  cpu::FusedMsvGroup
// drops the last member's pad lane; counting it here too only
// over-estimates demand, so every planned shape still fits.
int lanes_for(int M, int Q) { return M / Q + 1; }

// Groups smaller than this are not worth the demux overhead.
constexpr std::size_t kMinModelsToFuse = 2;

// A model longer than this many full-width stripes already keeps a
// single-model sweep busy; fusing it would inflate every partner's Q.
constexpr int kMaxFusedStripes = 32;

}  // namespace

std::size_t FusePlan::fused_models() const {
  std::size_t n = 0;
  for (const GroupShape& g : groups) n += g.members.size();
  return n;
}

double FusePlan::models_per_group() const {
  if (groups.empty()) return 0.0;
  return static_cast<double>(fused_models()) /
         static_cast<double>(groups.size());
}

double FusePlan::lane_occupancy() const {
  double real = 0.0;
  double padded = 0.0;
  for (const GroupShape& g : groups) {
    const double cells = static_cast<double>(g.Q) * lane_width;
    real += g.occupancy * cells;
    padded += cells;
  }
  return padded > 0.0 ? real / padded : 0.0;
}

FusePlan plan_model_groups(const std::vector<int>& lengths, int lane_width,
                           const FuseOptions& opts) {
  FH_REQUIRE(lane_width == 16 || lane_width == 32 || lane_width == 64,
             "fuse planner needs a byte lane width of 16, 32, or 64");
  FusePlan plan;
  plan.lane_width = lane_width;
  const std::size_t n = lengths.size();

  const std::size_t q_cap =
      opts.max_table_bytes /
      (static_cast<std::size_t>(bio::kKp) * static_cast<std::size_t>(lane_width));
  if (q_cap == 0) {
    plan.unfused.resize(n);
    for (std::size_t i = 0; i < n; ++i) plan.unfused[i] = i;
    return plan;
  }

  const int max_len = opts.forced ? std::numeric_limits<int>::max()
                                  : kMaxFusedStripes * lane_width;

  std::vector<std::size_t> order;
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (lengths[i] >= 1 && lengths[i] <= max_len)
      order.push_back(i);
    else
      plan.unfused.push_back(i);
  }
  // Sort candidates by length so neighbours share a Q with little padding;
  // ties break by index for determinism.
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) {
              if (lengths[a] != lengths[b]) return lengths[a] < lengths[b];
              return a < b;
            });

  std::size_t group_cap = static_cast<std::size_t>(lane_width);
  if (opts.max_group_models > 0 &&
      static_cast<std::size_t>(opts.max_group_models) < group_cap)
    group_cap = static_cast<std::size_t>(opts.max_group_models);

  std::size_t pos = 0;
  while (pos < order.size()) {
    std::size_t take = std::min(group_cap, order.size() - pos);
    GroupShape g;
    while (take >= kMinModelsToFuse) {
      // Chunk is sorted ascending, so the last member is the longest.
      const int maxM = lengths[order[pos + take - 1]];
      // Lane demand is non-increasing in Q, so binary-search the minimal
      // feasible Q (always feasible at Q = maxM + 1, where every member
      // claims exactly one lane and take <= lane_width).
      int lo = 1, hi = maxM + 1, best = 0;
      while (lo <= hi) {
        const int mid = lo + (hi - lo) / 2;
        long demand = 0;
        for (std::size_t t = 0; t < take; ++t)
          demand += lanes_for(lengths[order[pos + t]], mid);
        if (demand <= lane_width) {
          best = mid;
          hi = mid - 1;
        } else {
          lo = mid + 1;
        }
      }
      if (best > 0 && static_cast<std::size_t>(best) <= q_cap) {
        g.Q = best;
        break;
      }
      // Minimal lane-feasible Q busts the table cap: drop the longest
      // member and retry with a shorter (hence smaller-Q) chunk.
      --take;
    }
    if (g.Q > 0) {
      g.members.reserve(take);
      long cells = 0;
      for (std::size_t t = 0; t < take; ++t) {
        const std::size_t idx = order[pos + t];
        g.members.push_back(idx);
        g.lanes_used += lanes_for(lengths[idx], g.Q);
        cells += lengths[idx];
      }
      g.occupancy = static_cast<double>(cells) /
                    (static_cast<double>(g.Q) * lane_width);
      plan.groups.push_back(std::move(g));
      pos += take;
    } else {
      plan.unfused.push_back(order[pos]);
      ++pos;
    }
  }
  std::sort(plan.unfused.begin(), plan.unfused.end());
  return plan;
}

std::vector<LengthBucket> length_histogram(const std::vector<int>& lengths) {
  std::vector<LengthBucket> out;
  int max_len = 0;
  for (int m : lengths) max_len = std::max(max_len, m);
  if (max_len < 1) return out;
  for (int lo = 1, hi = 32; lo <= max_len; lo = hi, hi *= 2) {
    LengthBucket b{lo, hi, 0};
    for (int m : lengths)
      if (m >= lo && m < hi) ++b.count;
    if (b.count > 0) out.push_back(b);
  }
  return out;
}

}  // namespace finehmm::hmm
