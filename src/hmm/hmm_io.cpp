#include "hmm/hmm_io.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "util/error.hpp"

namespace finehmm::hmm {

namespace {

std::string format_prob(float p) {
  if (p <= 0.0f) return "*";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.5f", -std::log(p));
  return buf;
}

float parse_prob(const std::string& tok, std::size_t lineno) {
  if (tok == "*") return 0.0f;
  try {
    return std::exp(-std::stof(tok));
  } catch (const std::exception&) {
    throw ParseError("bad probability token '" + tok + "'", lineno);
  }
}

/// A whole-token decimal int: trailing junk, an empty token or a value
/// outside int range is a ParseError at this line.
int parse_int(const std::string& tok, std::size_t lineno, const char* what) {
  int v = 0;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  if (ec != std::errc() || ptr != end)
    throw ParseError(std::string("bad ") + what + " '" + tok + "'", lineno);
  return v;
}

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

}  // namespace

void write_hmm(std::ostream& out, const Plan7Hmm& hmm,
               const stats::ModelStats* model_stats) {
  const int M = hmm.length();
  out << "HMMER3/f [finehmm subset]\n";
  out << "NAME  " << (hmm.name().empty() ? "unnamed" : hmm.name()) << '\n';
  if (!hmm.description().empty()) out << "DESC  " << hmm.description() << '\n';
  out << "LENG  " << M << '\n';
  out << "ALPH  amino\n";
  if (model_stats != nullptr) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "STATS LOCAL MSV     %9.4f %9.5f\n",
                  model_stats->msv.mu, model_stats->msv.lambda);
    out << buf;
    std::snprintf(buf, sizeof(buf), "STATS LOCAL VITERBI %9.4f %9.5f\n",
                  model_stats->vit.mu, model_stats->vit.lambda);
    out << buf;
    std::snprintf(buf, sizeof(buf), "STATS LOCAL FORWARD %9.4f %9.5f\n",
                  model_stats->fwd.mu, model_stats->fwd.lambda);
    out << buf;
  }
  out << "HMM  ";
  for (int a = 0; a < bio::kK; ++a) out << "       " << bio::kCanonical[a];
  out << '\n';
  out << "        m->m     m->i     m->d     i->m     i->i     d->m     d->d\n";

  auto emit_row = [&](auto get) {
    for (int a = 0; a < bio::kK; ++a) {
      std::string s = format_prob(get(a));
      out << "  ";
      for (std::size_t pad = s.size(); pad < 7; ++pad) out << ' ';
      out << s;
    }
    out << '\n';
  };

  for (int k = 1; k <= M; ++k) {
    out << "  " << k << ' ';
    emit_row([&](int a) { return hmm.mat(k, a); });
    out << "     ";
    emit_row([&](int a) { return hmm.ins(k, a); });
    out << "     ";
    for (int t = 0; t < kNTransitions; ++t) {
      // Node k's transition line describes transitions out of node k; by
      // HMMER convention the B (node 0) transitions appear on node 1's
      // line... no: HMMER stores node k's own out-transitions on line k,
      // and B's on a "COMPO"-adjacent node-0 line.  We keep it simpler and
      // fully explicit: line k holds tr(k, *) and a leading node-0 line
      // (emitted below as node index 0) holds the begin transitions.
      std::string s = format_prob(hmm.tr(k, static_cast<Plan7Transition>(t)));
      out << "  ";
      for (std::size_t pad = s.size(); pad < 7; ++pad) out << ' ';
      out << s;
    }
    out << '\n';
  }
  // Begin-node transitions, written last under an explicit tag.
  out << "BEGIN";
  for (int t = 0; t < kNTransitions; ++t) {
    std::string s = format_prob(hmm.tr(0, static_cast<Plan7Transition>(t)));
    out << "  " << s;
  }
  out << '\n';
  out << "//\n";
}

void write_hmm_file(const std::string& path, const Plan7Hmm& hmm,
                    const stats::ModelStats* model_stats) {
  std::ofstream out(path);
  FH_REQUIRE_IO(out.good(), "cannot open hmm file for writing: " + path);
  write_hmm(out, hmm, model_stats);
}

Plan7Hmm read_hmm(std::istream& in,
                  std::optional<stats::ModelStats>* out_stats) {
  std::string line;
  std::size_t lineno = 0;
  std::string name, desc;
  int M = -1;
  bool header_seen = false;
  stats::ModelStats parsed_stats;
  int stats_seen = 0;

  // --- header ---
  while (std::getline(in, line)) {
    ++lineno;
    if (line.rfind("HMMER3", 0) == 0) {
      header_seen = true;
      continue;
    }
    if (line.rfind("NAME", 0) == 0) {
      auto toks = split_ws(line);
      if (toks.size() >= 2) name = toks[1];
      continue;
    }
    if (line.rfind("DESC", 0) == 0) {
      std::size_t pos = line.find_first_not_of(" \t", 4);
      if (pos != std::string::npos) desc = line.substr(pos);
      continue;
    }
    if (line.rfind("LENG", 0) == 0) {
      auto toks = split_ws(line);
      if (toks.size() < 2) throw ParseError("LENG without value", lineno);
      M = parse_int(toks[1], lineno, "LENG value");
      continue;
    }
    if (line.rfind("ALPH", 0) == 0) {
      auto toks = split_ws(line);
      FH_REQUIRE(toks.size() >= 2 && (toks[1] == "amino" || toks[1] == "AMINO"),
                 "only the amino alphabet is supported");
      continue;
    }
    if (line.rfind("STATS", 0) == 0) {
      auto toks = split_ws(line);
      if (toks.size() >= 5 && toks[1] == "LOCAL") {
        double mu = std::atof(toks[3].c_str());
        double lambda = std::atof(toks[4].c_str());
        if (toks[2] == "MSV") {
          parsed_stats.msv = {mu, lambda};
          stats_seen |= 1;
        } else if (toks[2] == "VITERBI") {
          parsed_stats.vit = {mu, lambda};
          stats_seen |= 2;
        } else if (toks[2] == "FORWARD") {
          parsed_stats.fwd = {mu, lambda};
          stats_seen |= 4;
        }
      }
      continue;
    }
    if (line.rfind("HMM", 0) == 0) break;  // column header line
    // Unknown header lines (DATE, ...) are skipped.
  }
  if (out_stats != nullptr)
    *out_stats = stats_seen == 7
                     ? std::optional<stats::ModelStats>(parsed_stats)
                     : std::nullopt;
  FH_REQUIRE(header_seen, "missing HMMER3 magic line");
  FH_REQUIRE(M >= 1, "missing or invalid LENG");

  // Skip the transition column header line.
  std::getline(in, line);
  ++lineno;

  Plan7Hmm hmm(M);
  hmm.set_name(name);
  hmm.set_description(desc);

  int k = 0;
  bool saw_begin = false;
  bool saw_end = false;
  while (std::getline(in, line)) {
    ++lineno;
    auto toks = split_ws(line);
    if (toks.empty()) continue;
    if (toks[0] == "//") {
      saw_end = true;
      break;
    }
    if (toks[0] == "COMPO") {  // optional; ignore
      std::getline(in, line);  // its insert line
      std::getline(in, line);  // its transition line
      lineno += 2;
      continue;
    }
    if (toks[0] == "BEGIN") {
      FH_REQUIRE(toks.size() == 1 + kNTransitions, "malformed BEGIN line");
      for (int t = 0; t < kNTransitions; ++t)
        hmm.tr(0, static_cast<Plan7Transition>(t)) =
            parse_prob(toks[1 + t], lineno);
      saw_begin = true;
      continue;
    }
    // Node line: index + 20 match emissions (+ optional annotations which we
    // tolerate and ignore beyond the 20 scores).
    ++k;
    FH_REQUIRE(k <= M, "more node lines than LENG");
    if (parse_int(toks[0], lineno, "node index") != k)
      throw ParseError("node index mismatch", lineno);
    FH_REQUIRE(toks.size() >= 1 + static_cast<std::size_t>(bio::kK),
               "short match emission line");
    for (int a = 0; a < bio::kK; ++a)
      hmm.mat(k, a) = parse_prob(toks[1 + a], lineno);

    // Insert emission line.
    if (!std::getline(in, line)) throw ParseError("missing insert line", lineno);
    ++lineno;
    toks = split_ws(line);
    FH_REQUIRE(toks.size() >= static_cast<std::size_t>(bio::kK),
               "short insert emission line");
    for (int a = 0; a < bio::kK; ++a)
      hmm.ins(k, a) = parse_prob(toks[a], lineno);

    // Transition line.
    if (!std::getline(in, line))
      throw ParseError("missing transition line", lineno);
    ++lineno;
    toks = split_ws(line);
    FH_REQUIRE(toks.size() >= static_cast<std::size_t>(kNTransitions),
               "short transition line");
    for (int t = 0; t < kNTransitions; ++t)
      hmm.tr(k, static_cast<Plan7Transition>(t)) = parse_prob(toks[t], lineno);
  }
  FH_REQUIRE(k == M, "fewer node lines than LENG");
  FH_REQUIRE(saw_begin, "missing BEGIN transition line");
  FH_REQUIRE(saw_end, "missing closing // line");

  // Insert emissions for node 0 default to node 1's (background).
  for (int a = 0; a < bio::kK; ++a) hmm.ins(0, a) = hmm.ins(1, a);
  return hmm;
}

Plan7Hmm read_hmm_file(const std::string& path,
                       std::optional<stats::ModelStats>* out_stats) {
  std::ifstream in(path);
  FH_REQUIRE_IO(in.good(), "cannot open hmm file: " + path);
  return read_hmm(in, out_stats);
}

}  // namespace finehmm::hmm
