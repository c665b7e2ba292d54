// Filter fidelity: how well each stage's score separates true homologs
// from null sequences.
//
// The pipeline's premise (paper §I-II) is that the cheap scores are
// faithful proxies for the expensive ones: the high tail of MSV agrees
// with Viterbi, which agrees with Forward.  We quantify that as ROC AUC
// of each stage's bit score on planted homologs vs nulls — expect
// Forward >= Viterbi >= MSV >= SSV, all far above 0.5, with remote
// (fragmentary) homologs separating the stages more than easy full-length
// ones.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "hmm/sampler.hpp"
#include "pipeline/batch_scanner.hpp"

using namespace finehmm;
using namespace finehmm::bench;

namespace {

double roc_auc(const std::vector<double>& pos,
               const std::vector<double>& neg) {
  // AUC = P(pos score > neg score), ties at half weight.
  double wins = 0.0;
  for (double p : pos)
    for (double n : neg) wins += p > n ? 1.0 : (p == n ? 0.5 : 0.0);
  return wins / (static_cast<double>(pos.size()) * neg.size());
}

}  // namespace

int main() {
  const int M = 120;
  auto model = hmm::paper_model(M);
  hmm::SearchProfile prof(model, hmm::AlignMode::kLocalMultihit, 250);
  profile::MsvProfile msv(prof);
  profile::VitProfile vit(prof);
  profile::FwdProfile fwd(prof);
  pipeline::BatchScanner scanner(msv, vit, &fwd);

  auto score_set = [&](const std::vector<bio::Sequence>& seqs,
                       std::vector<double>& ssv_s, std::vector<double>& msv_s,
                       std::vector<double>& vit_s,
                       std::vector<double>& fwd_s) {
    for (const auto& seq : seqs) {
      int L = static_cast<int>(seq.length());
      auto cap = [&](const cpu::FilterResult& r) {
        return r.overflowed ? 100.0
                            : hmm::nats_to_bits(r.score_nats, L);
      };
      ssv_s.push_back(cap(scanner.ssv(0, seq.codes.data(), L)));
      msv_s.push_back(cap(scanner.msv(0, seq.codes.data(), L)));
      vit_s.push_back(cap(scanner.vit(0, seq.codes.data(), L)));
      fwd_s.push_back(
          hmm::nats_to_bits(scanner.fwd(0, seq.codes.data(), L), L));
    }
  };

  Pcg32 rng(97);
  const int n = 150;
  std::vector<bio::Sequence> nulls, easy, hard;
  for (int i = 0; i < n; ++i)
    nulls.push_back(bio::random_sequence(250, rng));
  hmm::SampleOptions full;
  full.fragment_prob = 0.0;
  for (int i = 0; i < n; ++i) easy.push_back(hmm::sample_homolog(model, rng, full));
  hmm::SampleOptions frag;
  frag.fragment_prob = 1.0;  // remote-ish: fragments only
  for (int i = 0; i < n; ++i) hard.push_back(hmm::sample_homolog(model, rng, frag));

  std::vector<double> null_s[4], easy_s[4], hard_s[4];
  score_set(nulls, null_s[0], null_s[1], null_s[2], null_s[3]);
  score_set(easy, easy_s[0], easy_s[1], easy_s[2], easy_s[3]);
  score_set(hard, hard_s[0], hard_s[1], hard_s[2], hard_s[3]);

  std::printf("Filter fidelity: ROC AUC of each stage's bit score (M=%d,\n"
              "%d homologs vs %d nulls)\n\n", M, n, n);
  TextTable table({"stage", "AUC full-length homologs", "AUC fragments"});
  const char* names[4] = {"SSV", "MSV", "P7Viterbi", "Forward"};
  for (int st = 0; st < 4; ++st)
    table.add_row({names[st],
                   TextTable::num(roc_auc(easy_s[st], null_s[st]), 4),
                   TextTable::num(roc_auc(hard_s[st], null_s[st]), 4)});
  std::fputs(table.str().c_str(), stdout);
  std::printf(
      "\nAll stages separate homologs nearly perfectly; the ordering on the\n"
      "harder fragment set shows why the pipeline can afford cheap early\n"
      "filters at loose thresholds and save Forward for the end (paper\n"
      "Fig. 1's 2.2%% / 0.1%% cascade).\n");
  return 0;
}
