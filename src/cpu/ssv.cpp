#include "cpu/ssv.hpp"

#include <vector>

#include "util/check.hpp"
#include "util/error.hpp"

namespace finehmm::cpu {

namespace {

inline std::uint8_t sat_add(std::uint8_t a, std::uint8_t b) {
  unsigned s = unsigned(a) + unsigned(b);
  return s > 255u ? 255u : std::uint8_t(s);
}
inline std::uint8_t sat_sub(std::uint8_t a, std::uint8_t b) {
  return a > b ? std::uint8_t(a - b) : 0;
}

/// Shared final conversion: like MSV's but with a single E->C hop (no J
/// re-entry ever happens, so xJ == best xE - tec).
FilterResult finish(const profile::MsvProfile& prof, std::uint8_t xEmax,
                    bool overflowed, std::size_t L) {
  FilterResult out;
  if (overflowed) {
    out.score_nats = std::numeric_limits<float>::infinity();
    out.overflowed = true;
    return out;
  }
  std::uint8_t xJ = sat_sub(xEmax, prof.tec());
  out.score_nats = prof.score_from_bytes(xJ, static_cast<int>(L));
  return out;
}

}  // namespace

FilterResult ssv_scalar(const profile::MsvProfile& prof,
                        const std::uint8_t* seq, std::size_t L) {
  FH_REQUIRE(L >= 1, "cannot score an empty sequence");
  const int M = prof.length();
  const std::uint8_t bias = prof.bias();
  const std::uint8_t tjb = prof.tjb_for(static_cast<int>(L));
  // Without J, the begin score is a constant: base - tjb - tbm.
  const std::uint8_t xBv =
      sat_sub(sat_sub(prof.base(), tjb), prof.tbm());

  std::vector<std::uint8_t> mmx(static_cast<std::size_t>(M) + 1, 0);
  std::uint8_t xEmax = 0;

  for (std::size_t i = 0; i < L; ++i) {
    const std::uint8_t* rbv = prof.linear_row(seq[i]);
    std::uint8_t diag = 0;
    for (int k = 1; k <= M; ++k) {
      std::uint8_t sv = diag > xBv ? diag : xBv;
      sv = sat_add(sv, bias);
      sv = sat_sub(sv, rbv[k - 1]);
      diag = mmx[k];
      mmx[k] = sv;
      FINEHMM_IF_CHECKS(const std::uint8_t prev_xE = xEmax;)
      if (sv > xEmax) xEmax = sv;
      FINEHMM_DCHECK(xEmax >= prev_xE,
                     "SSV xEmax must be monotone non-decreasing");
    }
    if (prof.overflowed(xEmax))
      return finish(prof, xEmax, /*overflowed=*/true, L);
  }
  return finish(prof, xEmax, /*overflowed=*/false, L);
}

}  // namespace finehmm::cpu
