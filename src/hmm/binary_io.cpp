#include "hmm/binary_io.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "util/error.hpp"

namespace finehmm::hmm {

namespace {

constexpr char kMagic[4] = {'F', 'H', 'M', 'P'};
constexpr std::uint32_t kMaxStringLen = 1 << 16;

template <class T>
void put(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <class T>
T get(std::istream& in) {
  T v;
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  FH_REQUIRE(in.good(), "truncated binary profile");
  return v;
}

void put_string(std::ostream& out, const std::string& s) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string get_string(std::istream& in) {
  auto n = get<std::uint32_t>(in);
  FH_REQUIRE(n <= kMaxStringLen, "implausible string length");
  std::string s(n, '\0');
  in.read(s.data(), n);
  FH_REQUIRE(in.good(), "truncated binary profile");
  return s;
}

}  // namespace

void write_hmm_binary(std::ostream& out, const Plan7Hmm& hmm,
                      const stats::ModelStats* model_stats) {
  out.write(kMagic, sizeof(kMagic));
  put<std::uint32_t>(out, kBinaryVersion);
  put_string(out, hmm.name());
  put_string(out, hmm.description());
  const int M = hmm.length();
  put<std::int32_t>(out, M);
  for (int k = 1; k <= M; ++k)
    for (int a = 0; a < bio::kK; ++a) put<float>(out, hmm.mat(k, a));
  for (int k = 0; k <= M; ++k)
    for (int a = 0; a < bio::kK; ++a) put<float>(out, hmm.ins(k, a));
  for (int k = 0; k <= M; ++k)
    for (int t = 0; t < kNTransitions; ++t)
      put<float>(out, hmm.tr(k, static_cast<Plan7Transition>(t)));
  put<std::uint8_t>(out, model_stats != nullptr ? 1 : 0);
  if (model_stats != nullptr) {
    for (const auto* g : {&model_stats->ssv, &model_stats->msv,
                          &model_stats->vit}) {
      put<double>(out, g->mu);
      put<double>(out, g->lambda);
    }
    put<double>(out, model_stats->fwd.mu);
    put<double>(out, model_stats->fwd.lambda);
  }
  FH_REQUIRE(out.good(), "binary profile write failed");
}

void write_hmm_binary_file(const std::string& path, const Plan7Hmm& hmm,
                           const stats::ModelStats* model_stats) {
  std::ofstream out(path, std::ios::binary);
  FH_REQUIRE_IO(out.good(), "cannot open binary profile for writing: " + path);
  write_hmm_binary(out, hmm, model_stats);
}

Plan7Hmm read_hmm_binary(std::istream& in,
                         std::optional<stats::ModelStats>* out_stats) {
  char magic[4];
  in.read(magic, sizeof(magic));
  FH_REQUIRE(in.good() && std::memcmp(magic, kMagic, 4) == 0,
             "not a finehmm binary profile (bad magic)");
  auto version = get<std::uint32_t>(in);
  FH_REQUIRE(version == kBinaryVersion,
             "unsupported binary profile version " + std::to_string(version));
  std::string name = get_string(in);
  std::string desc = get_string(in);
  auto M = get<std::int32_t>(in);
  Plan7Hmm hmm(M);  // rejects implausible lengths before allocating
  hmm.set_name(name);
  hmm.set_description(desc);
  for (int k = 1; k <= M; ++k)
    for (int a = 0; a < bio::kK; ++a) hmm.mat(k, a) = get<float>(in);
  for (int k = 0; k <= M; ++k)
    for (int a = 0; a < bio::kK; ++a) hmm.ins(k, a) = get<float>(in);
  for (int k = 0; k <= M; ++k)
    for (int t = 0; t < kNTransitions; ++t)
      hmm.tr(k, static_cast<Plan7Transition>(t)) = get<float>(in);

  auto has_stats = get<std::uint8_t>(in);
  if (out_stats != nullptr) *out_stats = std::nullopt;
  if (has_stats) {
    stats::ModelStats st;
    for (auto* g : {&st.ssv, &st.msv, &st.vit}) {
      g->mu = get<double>(in);
      g->lambda = get<double>(in);
    }
    st.fwd.mu = get<double>(in);
    st.fwd.lambda = get<double>(in);
    if (out_stats != nullptr) *out_stats = st;
  }
  hmm.validate(0.05f);  // binary files can come from anywhere: sanity check
  return hmm;
}

Plan7Hmm read_hmm_binary_file(const std::string& path,
                              std::optional<stats::ModelStats>* out_stats) {
  std::ifstream in(path, std::ios::binary);
  FH_REQUIRE_IO(in.good(), "cannot open binary profile: " + path);
  return read_hmm_binary(in, out_stats);
}

}  // namespace finehmm::hmm
