// hmmalign-like tool: align sequences to a profile HMM and emit an
// A2M-style multiple alignment (uppercase/dash = match columns,
// lowercase = insertions).
//
// Usage:
//   hmmalign_tool [--glocal] <model.hmm> <seqs.fasta> [out.afa]
//   hmmalign_tool --demo [out.afa]
//
// --glocal aligns each sequence across the whole model (wing-retracted
// entry/exit), which is what you usually want when the inputs are known
// full-length members of the family.
//
// Each sequence is Viterbi-traced against the model; its longest aligned
// segment supplies the residue (or deletion) for each of the M match
// columns.  Residues emitted by insert states are attached, lowercased,
// after the preceding match column.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bio/fasta.hpp"
#include "cpu/trace.hpp"
#include "hmm/generator.hpp"
#include "hmm/hmm_io.hpp"
#include "hmm/profile.hpp"
#include "hmm/sampler.hpp"
#include "tool_exit.hpp"

using namespace finehmm;

namespace {

/// Build the A2M row of one sequence from its trace (match columns 1..M).
std::string a2m_row(const cpu::ViterbiTrace& trace, int M,
                    const std::uint8_t* codes) {
  // Collect per-column content from the highest-scoring pass: we simply
  // take the first B->E segment covering the most match states.
  std::vector<std::string> column(M + 1);  // column[k] = match char + inserts
  // operator=(char) sidesteps GCC 12's -Wrestrict false positive (bug
  // 105651) on the operator=(const char*) inline expansion.
  for (int k = 1; k <= M; ++k) column[k] = '-';
  int covered_best = -1;
  std::vector<std::string> best = column;

  std::vector<std::string> cur = column;
  int covered = 0;
  int last_k = 0;
  for (const auto& step : trace.steps) {
    switch (step.state) {
      case cpu::TraceState::kB:
        cur = column;
        covered = 0;
        last_k = 0;
        break;
      case cpu::TraceState::kM:
        cur[step.k] = std::string(1, bio::symbol(codes[step.i - 1]));
        last_k = step.k;
        ++covered;
        break;
      case cpu::TraceState::kD:
        cur[step.k] = '-';
        last_k = step.k;
        break;
      case cpu::TraceState::kI:
        if (last_k >= 1)
          cur[last_k].push_back(static_cast<char>(
              std::tolower(bio::symbol(codes[step.i - 1]))));
        break;
      case cpu::TraceState::kE:
        if (covered > covered_best) {
          covered_best = covered;
          best = cur;
        }
        break;
      default:
        break;
    }
  }

  std::string row;
  for (int k = 1; k <= M; ++k) row += best[k];
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: hmmalign_tool <model.hmm> <seqs.fasta> [out.afa]\n"
                 "       hmmalign_tool --demo [out.afa]\n");
    return 2;
  }

  try {
    hmm::Plan7Hmm model;
    bio::SequenceDatabase seqs;
    std::string out_path;
    bool glocal = false;

    int argi = 1;
    if (std::string(argv[argi]) == "--glocal") {
      glocal = true;
      ++argi;
      if (argi >= argc) {
        std::fprintf(stderr, "error: missing model after --glocal\n");
        return 2;
      }
    }
    argv += argi - 1;
    argc -= argi - 1;

    if (std::string(argv[1]) == "--demo") {
      model = hmm::paper_model(40);
      Pcg32 rng(123);
      for (int i = 0; i < 6; ++i)
        seqs.add(hmm::sample_homolog(model, rng, {},
                                     "member" + std::to_string(i)));
      if (argc > 2) out_path = argv[2];
      std::printf("# demo: aligning 6 sampled homologs to a 40-state model\n");
    } else {
      if (argc < 3) {
        std::fprintf(stderr, "error: need a model and a FASTA file\n");
        return 2;
      }
      model = hmm::read_hmm_file(argv[1]);
      seqs = bio::read_fasta_file(argv[2]);
      if (argc > 3) out_path = argv[3];
    }

    hmm::SearchProfile prof(model,
                            glocal ? hmm::AlignMode::kGlocalUnihit
                                   : hmm::AlignMode::kLocalMultihit,
                            400);
    bio::SequenceDatabase aligned;
    cpu::TraceWorkspace ws;
    for (const auto& s : seqs) {
      auto trace = cpu::viterbi_trace(prof, s.codes.data(), s.length(), ws);
      std::string row = a2m_row(trace, model.length(), s.codes.data());
      // A2M rows may contain '-' and lowercase; keep them as annotation by
      // storing the text directly.
      bio::Sequence out_seq;
      out_seq.name = s.name;
      out_seq.description = "aligned to " + model.name();
      out_seq.codes = bio::digitize(row);
      aligned.add(std::move(out_seq));
      std::printf("%-16s %s\n", s.name.c_str(), row.c_str());
    }

    if (!out_path.empty()) {
      bio::write_fasta_file(out_path, aligned);
      std::printf("# wrote %s\n", out_path.c_str());
    }
  } catch (const std::exception& e) {
    return tools::report_exception(e);
  }
  return 0;
}
