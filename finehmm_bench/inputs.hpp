// Seeded input generation and the bit-identity checks every workload
// runs against the run_cpu reference.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bio/sequence.hpp"
#include "bio/synthetic.hpp"
#include "harness.hpp"
#include "hmm/model_db.hpp"
#include "hmm/plan7.hpp"
#include "pipeline/pipeline.hpp"

namespace finehmm::bench {

/// One independent seed stream per generated input.
enum SeedTag : std::uint64_t {
  kDbSeed = 1,
  kHomologSeed,
  kQuerySeed,
  kScheduleSeed,
  kMixSeed,
};

/// `count` model lengths evenly spaced over [lo, hi]: the seed varies the
/// models' contents, never their mean length (which the workload's cost
/// follows).
std::vector<int> spaced_lengths(std::size_t count, int lo, int hi);

/// Random Pfam-like models of the given lengths, named prefix0, prefix1...
std::vector<hmm::Plan7Hmm> make_models(std::uint64_t seed,
                                       const std::vector<int>& lengths,
                                       const std::string& prefix);

/// A synthetic database with `homolog_fraction` of its slots replaced by
/// sequences sampled from `sources` round-robin (so every query model has
/// true hits), all drawn from `seed`.
bio::SequenceDatabase make_database(bio::SyntheticDbSpec spec,
                                    std::uint64_t seed,
                                    const std::vector<hmm::Plan7Hmm>& sources,
                                    double homolog_fraction);

/// A pressed library whose models carry their calibration, as hmmbuild
/// and hmmpress leave them: the models are calibrated here (as HmmSearch
/// construction does, on several threads), when the inputs are made.
void write_calibrated_models(const std::string& path,
                             const std::vector<hmm::Plan7Hmm>& models);
std::vector<hmm::ModelEntry> read_calibrated_models(const std::string& path);

std::string input_path(const RunOptions& opt, const std::string& file);

/// Empty when `got` is bit-identical to `want` (every hit field, floats
/// compared as bit patterns; alignments and domains too when `deep`),
/// otherwise a description of the first difference.
std::string diff_hits(const std::vector<pipeline::Hit>& want,
                      const std::vector<pipeline::Hit>& got, bool deep);

/// Empty when the stage counts and cells agree (times are not compared).
std::string diff_stage(const char* stage, const pipeline::StageStats& want,
                       const pipeline::StageStats& got);

/// diff_stage over the five stages of two results (local or wire).
template <class Want, class Got>
std::string diff_stage_set(const Want& want, const Got& got) {
  for (const std::string& d :
       {diff_stage("ssv", want.ssv, got.ssv), diff_stage("msv", want.msv, got.msv),
        diff_stage("vit", want.vit, got.vit), diff_stage("fwd", want.fwd, got.fwd),
        diff_stage("bwd", want.bwd, got.bwd)})
    if (!d.empty()) return d;
  return {};
}

/// Hits and stages of two whole results.
std::string diff_results(const pipeline::SearchResult& want,
                         const pipeline::SearchResult& got, bool deep);

}  // namespace finehmm::bench
