#include "hmm/plan7.hpp"

#include <cctype>
#include <cmath>
#include <numeric>

#include "util/error.hpp"

namespace finehmm::hmm {

Plan7Hmm::Plan7Hmm(int M) : M_(M) {
  FH_REQUIRE(M >= 1 && M <= kMaxLength,
             "model length must be in [1, " + std::to_string(kMaxLength) +
                 "], got " + std::to_string(M));
  mat_.assign(static_cast<std::size_t>(M + 1) * bio::kK, 0.0f);
  ins_.assign(static_cast<std::size_t>(M + 1) * bio::kK, 0.0f);
  tr_.assign(static_cast<std::size_t>(M + 1) * kNTransitions, 0.0f);
}

namespace {

float row_sum(const float* p, int n) {
  double s = 0.0;
  for (int i = 0; i < n; ++i) s += p[i];
  return static_cast<float>(s);
}

void check_dist(float sum, float tol, const std::string& what) {
  FH_REQUIRE(std::fabs(sum - 1.0f) <= tol,
             what + " not normalized (sum=" + std::to_string(sum) + ")");
}

}  // namespace

void Plan7Hmm::validate(float tol) const {
  FH_REQUIRE(M_ >= 1, "uninitialized model");
  for (int k = 1; k <= M_; ++k) {
    check_dist(row_sum(&mat_[idx(k, 0)], bio::kK), tol,
               "match emissions at node " + std::to_string(k));
  }
  for (int k = 0; k < M_; ++k) {
    check_dist(row_sum(&ins_[idx(k, 0)], bio::kK), tol,
               "insert emissions at node " + std::to_string(k));
  }
  for (int k = 0; k <= M_; ++k) {
    check_dist(tr(k, kTMM) + tr(k, kTMI) + tr(k, kTMD), tol,
               "match transitions at node " + std::to_string(k));
    if (k < M_) {
      check_dist(tr(k, kTIM) + tr(k, kTII), tol,
                 "insert transitions at node " + std::to_string(k));
    }
    if (k >= 1) {
      check_dist(tr(k, kTDM) + tr(k, kTDD), tol,
                 "delete transitions at node " + std::to_string(k));
    }
  }
}

void Plan7Hmm::renormalize() {
  auto norm = [](float* p, int n) {
    float s = row_sum(p, n);
    if (s <= 0.0f) return;
    for (int i = 0; i < n; ++i) p[i] /= s;
  };
  for (int k = 1; k <= M_; ++k) norm(&mat_[idx(k, 0)], bio::kK);
  for (int k = 0; k <= M_; ++k) norm(&ins_[idx(k, 0)], bio::kK);
  for (int k = 0; k <= M_; ++k) {
    norm(&tr_[k * kNTransitions + kTMM], 3);
    norm(&tr_[k * kNTransitions + kTIM], 2);
    norm(&tr_[k * kNTransitions + kTDM], 2);
  }
}

std::vector<float> Plan7Hmm::match_occupancy() const {
  // occ[k]: probability the core path uses M_k; HMMER's
  // p7_hmm_CalculateOccupancy recursion.
  std::vector<float> occ(static_cast<std::size_t>(M_) + 1, 0.0f);
  occ[1] = tr(0, kTMI) + tr(0, kTMM);
  for (int k = 2; k <= M_; ++k) {
    occ[k] = occ[k - 1] * (tr(k - 1, kTMM) + tr(k - 1, kTMI)) +
             (1.0f - occ[k - 1]) * tr(k - 1, kTDM);
  }
  return occ;
}

std::string Plan7Hmm::consensus() const {
  std::string out;
  out.reserve(static_cast<std::size_t>(M_));
  for (int k = 1; k <= M_; ++k) {
    int best = 0;
    for (int a = 1; a < bio::kK; ++a)
      if (mat(k, a) > mat(k, best)) best = a;
    char c = bio::kCanonical[best];
    out.push_back(mat(k, best) > 0.5f
                      ? c
                      : static_cast<char>(std::tolower(c)));
  }
  return out;
}

}  // namespace finehmm::hmm
