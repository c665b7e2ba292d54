#include "inputs.hpp"

#include <bit>
#include <sstream>

#include "hmm/generator.hpp"
#include "hmm/sampler.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"
#include "workloads.hpp"

namespace finehmm::bench {

std::vector<int> spaced_lengths(std::size_t count, int lo, int hi) {
  std::vector<int> lengths;
  for (std::size_t i = 0; i < count; ++i)
    lengths.push_back(count < 2 ? lo
                                : lo + static_cast<int>((hi - lo) * i /
                                                        (count - 1)));
  return lengths;
}

std::vector<hmm::Plan7Hmm> make_models(std::uint64_t seed,
                                       const std::vector<int>& lengths,
                                       const std::string& prefix) {
  std::vector<hmm::Plan7Hmm> models;
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    hmm::RandomHmmSpec spec;
    spec.length = lengths[i];
    spec.seed = derive_seed(seed, i);
    models.push_back(hmm::generate_hmm(spec));
    models.back().set_name(prefix + std::to_string(i));
  }
  return models;
}

bio::SequenceDatabase make_database(bio::SyntheticDbSpec spec,
                                    std::uint64_t seed,
                                    const std::vector<hmm::Plan7Hmm>& sources,
                                    double homolog_fraction) {
  spec.seed = derive_seed(seed, kDbSeed);
  bio::SequenceDatabase db = bio::generate_database(spec);
  Pcg32 rng(derive_seed(seed, kHomologSeed));
  const auto n_hom = static_cast<std::size_t>(
      homolog_fraction * static_cast<double>(db.size()));
  for (std::size_t i = 0; i < n_hom && !sources.empty(); ++i) {
    const std::size_t slot =
        rng.below(static_cast<std::uint32_t>(db.size()));
    db.replace(slot, hmm::sample_homolog(sources[i % sources.size()], rng, {},
                                         "homolog_" + std::to_string(i)));
  }
  return db;
}

void write_calibrated_models(const std::string& path,
                             const std::vector<hmm::Plan7Hmm>& models) {
  std::vector<hmm::ModelEntry> entries(models.size());
  ThreadPool pool(std::max<std::size_t>(1, bench_threads() - 1));
  pool.parallel_for(models.size(), [&](std::size_t i) {
    entries[i] = {models[i], pipeline::HmmSearch(models[i]).model_stats()};
  });
  hmm::write_model_db_file(path, entries);
}

std::vector<hmm::ModelEntry> read_calibrated_models(const std::string& path) {
  std::vector<hmm::ModelEntry> entries = hmm::read_model_db_file(path);
  for (const hmm::ModelEntry& e : entries)
    FH_REQUIRE(e.model_stats.has_value(),
               "model " + e.model.name() + " in " + path + " lacks stats");
  return entries;
}

std::string input_path(const RunOptions& opt, const std::string& file) {
  return opt.dir + "/" + file;
}

namespace {

bool same_bits(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_alignment(const cpu::Alignment& a, const cpu::Alignment& b) {
  return a.k_start == b.k_start && a.k_end == b.k_end &&
         a.i_start == b.i_start && a.i_end == b.i_end &&
         a.model_line == b.model_line && a.match_line == b.match_line &&
         a.seq_line == b.seq_line;
}

template <class T, class Eq>
bool same_list(const std::vector<T>& a, const std::vector<T>& b, Eq eq) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!eq(a[i], b[i])) return false;
  return true;
}

bool same_domain(const cpu::Domain& a, const cpu::Domain& b) {
  return a.i_start == b.i_start && a.i_end == b.i_end &&
         same_bits(a.bits, b.bits) &&
         same_list(a.alignments, b.alignments, same_alignment);
}

}  // namespace

std::string diff_hits(const std::vector<pipeline::Hit>& want,
                      const std::vector<pipeline::Hit>& got, bool deep) {
  if (want.size() != got.size())
    return "hit count " + std::to_string(got.size()) + " != reference " +
           std::to_string(want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const pipeline::Hit& a = want[i];
    const pipeline::Hit& b = got[i];
    const bool same =
        a.seq_index == b.seq_index && a.name == b.name &&
        same_bits(a.msv_bits, b.msv_bits) && same_bits(a.vit_bits, b.vit_bits) &&
        same_bits(a.fwd_bits, b.fwd_bits) &&
        same_bits(a.bias_bits, b.bias_bits) && same_bits(a.pvalue, b.pvalue) &&
        same_bits(a.evalue, b.evalue) &&
        (!deep || (same_list(a.alignments, b.alignments, same_alignment) &&
                   same_list(a.domains, b.domains, same_domain)));
    if (!same) {
      std::ostringstream os;
      os << "hit " << i << " (" << a.name << ") differs from the reference";
      return os.str();
    }
  }
  return {};
}

std::string diff_stage(const char* stage, const pipeline::StageStats& want,
                       const pipeline::StageStats& got) {
  if (want.n_in == got.n_in && want.n_passed == got.n_passed &&
      same_bits(want.cells, got.cells))
    return {};
  std::ostringstream os;
  os << stage << " stage counts " << got.n_in << "/" << got.n_passed
     << " != reference " << want.n_in << "/" << want.n_passed;
  return os.str();
}

std::string diff_results(const pipeline::SearchResult& want,
                         const pipeline::SearchResult& got, bool deep) {
  std::string d = diff_stage_set(want, got);
  return d.empty() ? diff_hits(want.hits, got.hits, deep) : d;
}

}  // namespace finehmm::bench
