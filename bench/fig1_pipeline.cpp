// Figure 1 reproduction: the HMMER3 task pipeline's pass rates and
// execution-time split.
//
// Paper (model size 400, Env_nr): 2.2% of sequences pass the MSV filter,
// 0.1% reach Forward; execution time splits 80.6% MSV / 14.5% P7Viterbi /
// 4.9% Forward-Backward.  We run the real CPU pipeline on an Env_nr-like
// sample with a small planted-homolog fraction and report both the
// measured host wall-clock split and the modeled quad-core split.
#include <cstdio>

#include "bench_common.hpp"
#include "pipeline/pipeline.hpp"

using namespace finehmm;
using namespace finehmm::bench;

int main() {
  const int M = 400;
  auto model = hmm::paper_model(M);

  pipeline::WorkloadSpec spec;
  spec.db = DbPreset::envnr().spec(1e-6);
  spec.db.n_sequences =
      static_cast<std::size_t>(bench_cell_budget() * 4 / M / 197.0);
  if (spec.db.n_sequences < 500) spec.db.n_sequences = 500;
  spec.homolog_fraction = 0.005;
  auto db = pipeline::make_workload(model, spec);

  std::printf("Figure 1: HMMER3 task pipeline, model size %d, %zu %s\n", M,
              db.size(), "Envnr-like sequences");

  pipeline::HmmSearch search(model);
  auto r = search.run_cpu(db);

  double total_s = r.msv.seconds + r.vit.seconds + r.fwd.seconds;
  TextTable table({"stage", "sequences in", "pass rate", "DP cells",
                   "measured time", "time share"});
  auto row = [&](const char* name, const pipeline::StageStats& st) {
    table.add_row({name, std::to_string(st.n_in),
                   TextTable::pct(st.pass_rate()),
                   TextTable::num(st.cells / 1e6, 1) + "M",
                   TextTable::num(st.seconds * 1e3, 1) + " ms",
                   TextTable::pct(total_s > 0 ? st.seconds / total_s : 0)});
  };
  row("MSV", r.msv);
  row("P7Viterbi", r.vit);
  row("Forward", r.fwd);
  std::fputs(table.str().c_str(), stdout);

  std::printf("\nhits reported: %zu\n", r.hits.size());
  std::printf(
      "\nPaper reference (Env_nr, M=400): pass rates 2.2%% -> 0.1%%;\n"
      "execution time 80.6%% MSV / 14.5%% P7Viterbi / 4.9%% Forward.\n");
  return 0;
}
