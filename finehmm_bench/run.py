#!/usr/bin/env python3
"""Build and run the finehmm end-to-end benchmark.

Run from the repository root:

  python3 finehmm_bench/run.py --workload search_filter --seed 1 \\
      --seconds 20 --trace 0
  python3 finehmm_bench/run.py --smoke

One run builds finehmm_bench (the library from src/ plus the benchmark,
Release) under .bench_build/, writes the workload's inputs from --seed in
one process, then sets up and measures in a fresh process, so that process's
peak RSS is the workload's own.  --trace 1 swaps the end-to-end metrics for
the per-layer ones and writes a Chrome/Perfetto trace to
.bench_build/<workload>.trace.json.  Metric lines go to stdout; the last
stdout line is the JSON result, printed only when it carries every metric
BENCHMARK.json names.  Its `correct` says whether every output matched
run_cpu; when one did not, the result is still printed and the exit code
is 1.

--smoke runs every workload for about a second, traced and untraced, and
checks the schema and the bit-identity verdict only.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "finehmm_bench"
WORKLOADS = ("search_filter", "search_rescore", "serve_mixed",
             "cluster_search")
MISMATCH_EXIT = 3  # finehmm_bench run: result printed, an output was wrong


def log(message):
    print(message, file=sys.stderr, flush=True)


def run(cmd, timeout):
    """Run cmd in its own process group; kill the whole group on timeout.

    Returns (exit code, combined output)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return -1, out + f"\ntimed out after {timeout} s\n"
    return proc.returncode, out


def build():
    if not (BENCH_DIR.parent / "src" / "CMakeLists.txt").is_file():
        log("finehmm_bench: no finehmm sources next to the benchmark "
            f"(expected {BENCH_DIR.parent / 'src'})")
        sys.exit(2)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "finehmm_bench", "-j", jobs])
    for cmd in steps:
        code, out = run(cmd, timeout=800)
        if code != 0:
            log(out)
            log("finehmm_bench: build failed: " + " ".join(cmd))
            sys.exit(1)
    return BUILD_DIR / "finehmm_bench"


def expected_metrics(trace):
    """(name -> unit) the result must carry, from BENCHMARK.json."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """The parsed result, or an explanation of what is wrong with it."""
    try:
        result = json.loads(line)
    except ValueError:
        return None, "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None, "result keys are not correct/attempted/failed/metrics"
    want = expected_metrics(trace)
    if want is not None:
        got = {name: m.get("unit") for name, m in result["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            wrong = sorted(n for n in set(want) & set(got)
                           if want[n] != got[n])
            return None, (f"metrics differ from BENCHMARK.json: missing "
                          f"{missing}, extra {extra}, wrong unit {wrong}")
    return result, None


def measure(binary, workload, seed, seconds, trace):
    """Prepare and run one workload; returns (result line, result, error).

    A run whose outputs differed from run_cpu returns its result line and
    result together with an error."""
    workdir = BUILD_ROOT / "runs" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        common = ["--workload", workload, "--seed", str(seed), "--dir",
                  str(workdir)]
        code, out = run([str(binary), "prepare"] + common, timeout=150)
        if code != 0:
            return None, None, "prepare failed:\n" + out
        cmd = [str(binary), "run"] + common + [
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
        if trace:
            cmd += ["--trace-out", str(BUILD_ROOT / f"{workload}.trace.json")]
        code, out = run(cmd, timeout=170)
        lines = out.rstrip("\n").split("\n")
        if code not in (0, MISMATCH_EXIT):
            return None, None, "run failed:\n" + out
        result, error = check_result(lines[-1], trace)
        if error:
            return None, None, error + "\n" + out
        print("\n".join(lines[:-1]), flush=True)
        if code == MISMATCH_EXIT or not result["correct"]:
            return lines[-1], result, "an output differed from run_cpu"
        return lines[-1], result, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def smoke(binary):
    failures = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            _, result, error = measure(binary, workload, 1, 1, trace)
            ok = error is None and result["correct"] and result["failed"] == 0
            log(f"smoke {workload} trace={int(trace)}: "
                + ("ok" if ok else "FAILED " + (error or json.dumps(result))))
            failures += not ok
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if args.smoke:
        return smoke(binary)
    line, _, error = measure(binary, args.workload, args.seed, args.seconds,
                             bool(args.trace))
    if line is not None:
        print(line, flush=True)
    if error:
        log("finehmm_bench: " + error)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
