// Per-layer probes shared by the batch and service workloads.
#include <algorithm>
#include <filesystem>
#include <thread>

#include "pipeline/batch_scanner.hpp"
#include "profile/fwd_profile.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace finehmm::bench {

std::size_t bench_threads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

bio::SequenceDatabase kernel_sample(const bio::MappedSeqDb& db,
                                    std::size_t residues) {
  bio::SequenceDatabase sample;
  std::size_t total = 0;
  for (std::size_t i = 0; i < db.size() && total < residues; ++i) {
    std::vector<std::uint8_t> codes(db.length(i));
    bio::unpack_into(db.residues(i), db.length(i), codes.data());
    total += codes.size();
    if (!codes.empty())
      sample.add(bio::Sequence(std::string(db.name(i)), std::move(codes)));
  }
  return sample;
}

KernelRates probe_kernels(const pipeline::HmmSearch& search,
                          const bio::SequenceDatabase& sample,
                          double budget_s) {
  const profile::FwdProfile fwd_profile(search.profile());
  pipeline::BatchScanner scanner(search.msv_profile(), search.vit_profile(),
                                 &fwd_profile, 1);
  const double M = search.profile().length();
  std::vector<float> mocc;

  // Cycle through the sample until the budget is spent (at least one
  // sequence), after one untimed call that sizes the DP rows.
  const auto rate = [&](auto&& score) {
    score(sample[0]);
    double cells = 0.0;
    std::size_t i = 0;
    Timer t;
    do {
      const bio::Sequence& s = sample[i++ % sample.size()];
      score(s);
      cells += static_cast<double>(s.length()) * M;
    } while (t.seconds() < budget_s);
    return cells / t.seconds() * 1e-9;
  };
  KernelRates k;
  k.msv = rate([&](const bio::Sequence& s) {
    scanner.msv(0, s.codes.data(), s.length());
  });
  k.vit = rate([&](const bio::Sequence& s) {
    scanner.vit(0, s.codes.data(), s.length());
  });
  k.fwd = rate([&](const bio::Sequence& s) {
    scanner.fwd(0, s.codes.data(), s.length());
  });
  k.decode = rate([&](const bio::Sequence& s) {
    scanner.decode(0, s.codes.data(), s.length(), mocc);
  });
  return k;
}

void StageTotals::add(const pipeline::SearchResult& r, double wall,
                      std::size_t threads) {
  const auto sum = [](pipeline::StageStats& into,
                      const pipeline::StageStats& s) {
    into.n_in += s.n_in;
    into.n_passed += s.n_passed;
    into.cells += s.cells;
    into.seconds += s.seconds;
  };
  sum(ssv, r.ssv);
  sum(msv, r.msv);
  sum(vit, r.vit);
  sum(fwd, r.fwd);
  sum(bwd, r.bwd);
  thread_seconds += wall * static_cast<double>(threads);
}

void report_pipeline_layers(Report& out, const KernelRates& k,
                            const StageTotals& t) {
  out.metric("cpu.msv.gcups", k.msv, "Gcells/s", 1);
  out.metric("cpu.vit.gcups", k.vit, "Gcells/s", 1);
  out.metric("cpu.fwd.gcups", k.fwd, "Gcells/s", 1);
  out.metric("cpu.decode.gcups", k.decode, "Gcells/s", 1);

  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  out.metric("pipeline.msv.pass_rate",
             ratio(static_cast<double>(t.msv.n_passed),
                   static_cast<double>(t.msv.n_in)),
             "ratio", t.msv.n_in);
  out.metric("pipeline.vit.pass_rate",
             ratio(static_cast<double>(t.vit.n_passed),
                   static_cast<double>(t.vit.n_in)),
             "ratio", t.vit.n_in);
  out.metric("pipeline.fwd.hit_yield",
             ratio(static_cast<double>(t.fwd.n_passed),
                   static_cast<double>(t.fwd.n_in)),
             "ratio", t.fwd.n_in);
  out.metric("pipeline.fwd.us_per_survivor",
             ratio(t.fwd.seconds * 1e6, static_cast<double>(t.fwd.n_in)), "us",
             t.fwd.n_in);
  // The stages' cells at the kernels' one-thread rates, over the
  // thread-seconds the engine actually spent: how close the pipeline
  // runs to its kernels (SSV is costed at the MSV rate).
  const double kernel_s =
      ratio((t.ssv.cells + t.msv.cells) * 1e-9, k.msv) +
      ratio(t.vit.cells * 1e-9, k.vit) + ratio(t.fwd.cells * 1e-9, k.fwd) +
      ratio(t.bwd.cells * 1e-9, k.decode);
  out.metric("pipeline.kernel_share", ratio(kernel_s, t.thread_seconds),
             "ratio", 1);
  char line[200];
  std::snprintf(line, sizeof line,
                "  stage busy s: msv %.4f vit %.4f fwd %.4f bwd %.4f "
                "(cells %.3g / %.3g / %.3g / %.3g)",
                t.ssv.seconds + t.msv.seconds, t.vit.seconds, t.fwd.seconds,
                t.bwd.seconds, t.ssv.cells + t.msv.cells, t.vit.cells,
                t.fwd.cells, t.bwd.cells);
  out.note(line);
}

void report_absent(Report& out, const std::vector<AbsentMetric>& metrics) {
  for (const AbsentMetric& m : metrics) out.metric(m.name, 0.0, m.unit, 0);
}

double file_mb(const std::string& path) {
  return static_cast<double>(std::filesystem::file_size(path)) /
         (1024.0 * 1024.0);
}

}  // namespace finehmm::bench
