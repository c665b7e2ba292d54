// finehmm_bench: the end-to-end benchmark program (see README.md).
//
//   finehmm_bench prepare --workload W --seed N --dir D
//       write W's seeded inputs (database, models) into D
//   finehmm_bench run --workload W --seed N --seconds S --trace 0|1
//                     --dir D [--trace-out FILE]
//       set up from D, measure for S seconds, check every output against
//       run_cpu; print metric lines and, last, the JSON result; exit 3
//       when an output differed from run_cpu
//
// run.py builds this binary and runs the two steps in separate processes,
// so generating inputs never shows in the measured process's peak RSS.
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

namespace {

using namespace finehmm::bench;

// The run finished and printed its result, but an output was wrong.
constexpr int kMismatchExit = 3;

int usage() {
  std::cerr << "usage: finehmm_bench prepare --workload W --seed N --dir D\n"
               "       finehmm_bench run --workload W --seed N --seconds S "
               "--trace 0|1 --dir D [--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  RunOptions opt;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::stoull(value);
    else if (key == "--seconds") opt.seconds = std::stod(value);
    else if (key == "--trace") opt.trace = value == "1";
    else if (key == "--dir") opt.dir = value;
    else if (key == "--trace-out") opt.trace_out = value;
    else return usage();
  }
  const bool batch = is_batch_workload(opt.workload);
  if (opt.dir.empty() || !(batch || is_service_workload(opt.workload)) ||
      (mode != "prepare" && mode != "run") || !(opt.seconds > 0.0))
    return usage();

  try {
    if (mode == "prepare") {
      batch ? prepare_batch(opt) : prepare_service(opt);
      return 0;
    }
    Report out;
    SpanLog spans;
    out.note(host_fingerprint());
    batch ? run_batch(opt, out, spans) : run_service(opt, out, spans);
    // Not a ledger metric: it is 0 on a healthy run.
    out.note("layer error_rate = " +
             std::to_string(out.attempted
                                ? static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted)
                                : 0.0) +
             " ratio (n=" + std::to_string(out.attempted) + ")");
    if (opt.trace && !opt.trace_out.empty()) {
      spans.write_chrome(opt.trace_out);
      out.note("trace written to " + opt.trace_out);
    }
    out.print_json();
    return out.correct() ? 0 : kMismatchExit;
  } catch (const std::exception& e) {
    std::cerr << "finehmm_bench: " << e.what() << "\n";
    return 1;
  }
}
