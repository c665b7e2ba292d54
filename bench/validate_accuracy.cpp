// Accuracy validation — the abstract's "while preserving the sensitivity
// and accuracy of HMMER 3.0" claim, checked three ways:
//
//  1. E-value calibration: scanning a null database, the number of hits
//     reported at E-value <= x must be ~x (that is what an E-value means).
//  2. Sensitivity: planted full-length homologs must be recovered at a
//     very high rate through the full filter cascade.
//  3. Engine identity: the GPU pipeline must report exactly the CPU
//     pipeline's hits (bit-identical filters make this exact, not
//     approximate).
#include <cstdio>

#include "bench_common.hpp"
#include "pipeline/pipeline.hpp"

using namespace finehmm;
using namespace finehmm::bench;

int main() {
  const int M = 150;
  auto model = hmm::paper_model(M);
  pipeline::Thresholds thr;
  thr.report_evalue = 20.0;  // loose, so the calibration curve has points
  pipeline::HmmSearch search(model, thr);

  // ---- 1. E-value calibration on a pure null database ----
  bio::SyntheticDbSpec null_spec;
  null_spec.name = "null";
  null_spec.n_sequences = static_cast<std::size_t>(
      std::max(2000.0, bench_cell_budget() / M / 200.0));
  null_spec.seed = 321;
  auto null_db = bio::generate_database(null_spec);
  auto null_run = search.run_cpu(null_db);

  std::printf("E-value calibration (%zu null sequences):\n",
              null_db.size());
  TextTable cal({"threshold E", "expected hits <= E", "observed"});
  for (double e : {0.1, 1.0, 5.0, 10.0, 20.0}) {
    std::size_t observed = 0;
    for (const auto& hit : null_run.hits)
      if (hit.evalue <= e) ++observed;
    cal.add_row({TextTable::num(e, 1), TextTable::num(e, 1),
                 std::to_string(observed)});
  }
  std::fputs(cal.str().c_str(), stdout);
  std::printf(
      "(Observed <= expected is correct behaviour: the MSV/Viterbi filter\n"
      "cascade removes marginal null sequences before Forward, so reported\n"
      "E-values near the threshold are conservative — HMMER behaves the\n"
      "same way.)\n");

  // ---- 2. Sensitivity on planted homologs ----
  pipeline::WorkloadSpec wspec;
  wspec.db.n_sequences = 1500;
  wspec.db.seed = 55;
  wspec.homolog_fraction = 0.04;
  auto db = pipeline::make_workload(model, wspec);
  std::size_t planted = 0;
  for (std::size_t s = 0; s < db.size(); ++s)
    if (db[s].name.rfind("homolog_", 0) == 0) ++planted;

  pipeline::Thresholds strict;
  pipeline::HmmSearch strict_search(model, strict);
  auto run = strict_search.run_cpu(db);
  std::size_t found = 0;
  for (const auto& hit : run.hits)
    if (hit.name.rfind("homolog_", 0) == 0) ++found;
  std::printf("\nSensitivity: %zu/%zu planted homologs recovered (%.1f%%)\n",
              found, planted, 100.0 * found / planted);
  std::printf("False hits among reports: %zu\n", run.hits.size() - found);

  // ---- 3. CPU vs GPU identity ----
  bio::PackedDatabase packed(db);
  auto gpu_run =
      strict_search.run_gpu({simt::DeviceSpec::tesla_k40()}, db, packed);
  bool identical = gpu_run.hits.size() == run.hits.size();
  for (std::size_t i = 0; identical && i < run.hits.size(); ++i)
    identical = gpu_run.hits[i].seq_index == run.hits[i].seq_index;
  std::printf("\nGPU pipeline hit list identical to CPU: %s "
              "(%zu hits; filters are bit-exact by construction)\n",
              identical ? "YES" : "NO", gpu_run.hits.size());
  return identical ? 0 : 1;
}
