// Quickstart: the whole library in ~60 lines.
//
//   1. build a profile HMM (here: a synthetic Pfam-like model),
//   2. make a target database (random background + planted homologs),
//   3. run the calibrated hmmsearch pipeline on the CPU and on the
//      simulated GPU, and
//   4. print the hits with E-values.
//
// Run:  ./build/examples/quickstart
#include <cstdio>

#include "bio/packing.hpp"
#include "hmm/generator.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/workload.hpp"

using namespace finehmm;

int main() {
  // 1. A 120-position query motif.
  auto model = hmm::paper_model(120);
  std::printf("query model: %s (M=%d)\n", model.name().c_str(),
              model.length());

  // 2. 2000 background sequences with 1% planted homologs.
  pipeline::WorkloadSpec spec;
  spec.db.name = "demo";
  spec.db.n_sequences = 2000;
  spec.homolog_fraction = 0.01;
  auto db = pipeline::make_workload(model, spec);
  std::printf("database: %zu sequences, %llu residues\n", db.size(),
              static_cast<unsigned long long>(db.total_residues()));

  // 3. Calibrate and search (CPU pipeline).
  pipeline::HmmSearch search(model);
  auto result = search.run_cpu(db);
  std::printf("\nMSV kept %zu/%zu (%.1f%%), P7Viterbi kept %zu, "
              "Forward reported %zu hits\n",
              result.msv.n_passed, result.msv.n_in,
              100.0 * result.msv.pass_rate(), result.vit.n_passed,
              result.hits.size());

  // ... and the same search through the simulated GPU kernels.
  bio::PackedDatabase packed(db);
  auto gpu_result = search.run_gpu({simt::DeviceSpec::tesla_k40()}, db,
                                   packed, gpu::ParamPlacement::kShared);
  std::printf("GPU engine agrees: %zu hits (filters are bit-identical)\n",
              gpu_result.hits.size());

  // 4. Top hits.
  std::printf("\n%-20s %12s %12s %10s\n", "sequence", "vit bits", "fwd bits",
              "E-value");
  std::size_t shown = 0;
  for (const auto& hit : result.hits) {
    std::printf("%-20s %12.1f %12.1f %10.2e\n", hit.name.c_str(),
                hit.vit_bits, hit.fwd_bits, hit.evalue);
    if (++shown == 10) break;
  }
  if (result.hits.size() > shown)
    std::printf("... and %zu more\n", result.hits.size() - shown);
  return 0;
}
