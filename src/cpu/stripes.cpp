#include "cpu/stripes.hpp"

namespace finehmm::cpu {

namespace {

int segments_for(int M, int lanes) {
  FH_REQUIRE(lanes >= 1, "lane count must be positive");
  return (M + lanes - 1) / lanes;
}

/// Lay position-ordered values at(k), k = 1..M, into Q stripes of N
/// lanes at out (padding slots keep whatever out already holds).
template <class T, class At>
void stripe_into(T* out, int M, int Q, int N, At&& at) {
  for (int k = 1; k <= M; ++k)
    out[static_cast<std::size_t>((k - 1) % Q) * N + (k - 1) / Q] = at(k);
}

/// One Q*N parameter row filled with pad, then striped from at(k).
template <class T, class At>
void stripe_row(aligned_vector<T>& out, int M, int Q, int N, T pad,
                At&& at) {
  out.assign(static_cast<std::size_t>(Q) * N, pad);
  stripe_into(out.data(), M, Q, N, at);
}

/// A Kp-row emission table (residue x's stripes at x*Q*N), from
/// at(x, k).
template <class T, class At>
void stripe_table(aligned_vector<T>& out, int M, int Q, int N, T pad,
                  At&& at) {
  const std::size_t row = static_cast<std::size_t>(Q) * N;
  out.assign(static_cast<std::size_t>(bio::kKp) * row, pad);
  for (int x = 0; x < bio::kKp; ++x)
    stripe_into(out.data() + x * row, M, Q, N,
                [&](int k) { return at(x, k); });
}

}  // namespace

VitStripes::VitStripes(const profile::VitProfile& prof, int lanes)
    : N_(lanes), Q_(segments_for(prof.length(), lanes)) {
  using profile::kWordNegInf;
  const int M = prof.length();
  stripe_table<std::int16_t>(msc_, M, Q_, N_, kWordNegInf,
                             [&](int x, int k) { return prof.msc(x, k); });
  auto row = [&](aligned_vector<std::int16_t>& out, const std::int16_t* lin) {
    stripe_row<std::int16_t>(out, M, Q_, N_, kWordNegInf,
                             [lin](int k) { return lin[k - 1]; });
  };
  row(tmm_, prof.tmm_data());
  row(tim_, prof.tim_data());
  row(tdm_, prof.tdm_data());
  row(tmi_, prof.tmi_data());
  row(tii_, prof.tii_data());
  row(tmd_, prof.tmd_data());
  row(tdd_, prof.tdd_data());
}

simd_kernels::VitStripesView VitStripes::view() const {
  simd_kernels::VitStripesView st;
  st.msc = msc_.data();
  st.tmm = tmm_.data();
  st.tim = tim_.data();
  st.tdm = tdm_.data();
  st.tmi = tmi_.data();
  st.tii = tii_.data();
  st.tmd = tmd_.data();
  st.tdd = tdd_.data();
  st.Q = Q_;
  return st;
}

FwdStripes::FwdStripes(const profile::FwdProfile& prof, int lanes)
    : N_(lanes),
      Q_(segments_for(prof.length(), lanes)),
      entry_(prof.entry()) {
  const int M = prof.length();
  stripe_table<float>(odds_, M, Q_, N_, 0.0f,
                      [&](int x, int k) { return prof.odds_at(x, k); });

  auto in = [&](aligned_vector<float>& out, auto&& at) {
    stripe_row<float>(out, M, Q_, N_, 0.0f, at);
  };
  in(tmm_, [&](int k) { return prof.tmm_at(k); });
  in(tim_, [&](int k) { return prof.tim_at(k); });
  in(tdm_, [&](int k) { return prof.tdm_at(k); });
  in(tmi_, [&](int k) { return prof.tmi_at(k); });
  in(tii_, [&](int k) { return prof.tii_at(k); });
  in(tmd_, [&](int k) { return prof.tmd_in_at(k); });
  in(tdd_, [&](int k) { return prof.tdd_in_at(k); });

  // Out-indexed: slot(k) <- the in-indexed value at k+1; position M (and
  // padding) keeps zero, terminating every Backward chain.
  auto out = [&](aligned_vector<float>& dst, auto&& at) {
    stripe_row<float>(dst, M - 1, Q_, N_, 0.0f,
                      [&](int k) { return at(k + 1); });
  };
  out(tmm_out_, [&](int k) { return prof.tmm_at(k); });
  out(tim_out_, [&](int k) { return prof.tim_at(k); });
  out(tdm_out_, [&](int k) { return prof.tdm_at(k); });
  out(tmd_out_, [&](int k) { return prof.tmd_in_at(k); });
  out(tdd_out_, [&](int k) { return prof.tdd_in_at(k); });
}

simd_kernels::FwdStripesView FwdStripes::view() const {
  simd_kernels::FwdStripesView st;
  st.odds = odds_.data();
  st.tmm = tmm_.data();
  st.tim = tim_.data();
  st.tdm = tdm_.data();
  st.tmi = tmi_.data();
  st.tii = tii_.data();
  st.tmd = tmd_.data();
  st.tdd = tdd_.data();
  st.tmm_out = tmm_out_.data();
  st.tim_out = tim_out_.data();
  st.tdm_out = tdm_out_.data();
  st.tmd_out = tmd_out_.data();
  st.tdd_out = tdd_out_.data();
  st.entry = entry_;
  st.Q = Q_;
  return st;
}

}  // namespace finehmm::cpu
