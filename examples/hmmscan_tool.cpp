// hmmscan-like tool: annotate query sequences against a pressed model
// library — the reverse orientation of hmmsearch (sequence = query,
// models = database), which is how Pfam annotation actually runs.
//
// Usage:
//   hmmscan_tool [--gpu | --sequential] [--threads n]
//                <library.fhpdb> <queries.fasta>
//
// For each query sequence, every library model's calibrated pipeline is
// applied and significant models are reported best-first.  The default
// CPU path lane-packs short models into fused groups (docs/multi_model.md)
// so one MSV/SSV sweep scores a whole group per sequence; --sequential
// scans one model at a time (the pre-fusion behaviour, same hits).
// --threads n sizes the fused sweep's pool: n pool threads (0, the
// default, = hardware concurrency) plus the calling thread, so n + 1
// workers.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bio/fasta.hpp"
#include "bio/packing.hpp"
#include "hmm/model_db.hpp"
#include "pipeline/pipeline.hpp"
#include "tool_exit.hpp"

using namespace finehmm;

int main(int argc, char** argv) {
  bool use_gpu = false, sequential = false;
  std::size_t threads = 0;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--gpu")
      use_gpu = true;
    else if (a == "--sequential")
      sequential = true;
    else if (a == "--threads" && i + 1 < argc)
      threads = static_cast<std::size_t>(std::atoll(argv[++i]));
    else
      paths.push_back(a);
  }
  if (paths.size() != 2) {
    std::fprintf(stderr,
                 "usage: hmmscan_tool [--gpu | --sequential] [--threads n] "
                 "<library.fhpdb> <queries.fasta>\n");
    return 2;
  }

  try {
    hmm::ModelDbReader library(paths[0]);
    auto queries = bio::read_fasta_file(paths[1]);
    std::printf("# library: %zu models; queries: %zu sequences\n",
                library.size(), queries.size());

    // One calibrated search per model (calibration comes from the pressed
    // stats; nothing is simulated at scan time).
    std::vector<pipeline::HmmSearch> searches;
    std::vector<std::string> names;
    for (std::size_t m = 0; m < library.size(); ++m) {
      auto entry = library.load(m);
      names.push_back(entry.model.name());
      if (entry.model_stats) {
        searches.emplace_back(entry.model, *entry.model_stats);
      } else {
        searches.emplace_back(entry.model);
      }
    }

    struct Annot {
      std::size_t query;
      std::string model;
      double evalue;
      float bits;
    };
    std::vector<Annot> annots;
    auto collect = [&](std::size_t m, const pipeline::SearchResult& r) {
      for (const auto& hit : r.hits)
        annots.push_back({hit.seq_index, names[m], hit.evalue, hit.fwd_bits});
    };

    if (use_gpu) {
      bio::PackedDatabase packed(queries);
      for (std::size_t m = 0; m < searches.size(); ++m)
        collect(m, searches[m].run_gpu({simt::DeviceSpec::tesla_k40()},
                                       queries, packed));
    } else if (sequential) {
      for (std::size_t m = 0; m < searches.size(); ++m)
        collect(m, searches[m].run_cpu(queries));
    } else {
      // Fused many-model sweep: the auto-tuner lane-packs short models
      // into shared group tables; hits match the sequential path bit for
      // bit (tests/test_fused_scan.cpp).
      ThreadPool pool(threads);
      std::vector<const pipeline::HmmSearch*> ptrs;
      ptrs.reserve(searches.size());
      for (const auto& s : searches) ptrs.push_back(&s);
      const hmm::FusePlan plan = pipeline::plan_fusion(ptrs);
      auto scan = pipeline::HmmSearch::run_cpu_coalesced(
          ptrs, pipeline::ScanSource(queries), pool, &plan);
      double groups = 0, fused = 0, occupancy = 0;
      for (const auto& st : scan.telemetry.stages) {
        if (st.stage != "msv") continue;
        for (const auto& [key, value] : st.counters) {
          if (key == "fuse.groups") groups = value;
          if (key == "fuse.fused_models") fused = value;
          if (key == "fuse.lane_occupancy") occupancy = value;
        }
      }
      std::printf(
          "# fused scan: %.0f of %zu models in %.0f groups "
          "(%.1f%% lane occupancy)\n",
          fused, searches.size(), groups, 100.0 * occupancy);
      for (std::size_t m = 0; m < searches.size(); ++m)
        collect(m, scan.per_model[m]);
    }

    std::sort(annots.begin(), annots.end(), [](const Annot& a,
                                               const Annot& b) {
      return a.query != b.query ? a.query < b.query : a.evalue < b.evalue;
    });

    std::printf("#\n%-20s %-12s %10s %10s\n", "query", "model", "E-value",
                "bits");
    std::size_t last = static_cast<std::size_t>(-1);
    for (const auto& a : annots) {
      std::printf("%-20s %-12s %10.2e %10.1f\n",
                  a.query == last ? "" : queries[a.query].name.c_str(),
                  a.model.c_str(), a.evalue, a.bits);
      last = a.query;
    }
    if (annots.empty()) std::printf("# no significant annotations\n");
  } catch (const std::exception& e) {
    return tools::report_exception(e);
  }
  return 0;
}
