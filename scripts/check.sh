#!/usr/bin/env bash
# One-command verification: configure, build, and test via the CMake
# presets, plus the repo-invariant linter (tools/finehmm_lint).
#
# Usage: scripts/check.sh [MODE]
#   (none)        default Release build + tests, then the asan preset
#   --fast        default build + tests only
#   --lint        repo-invariant linter only (self-test + tree pass);
#                 needs no build tree, so CI can gate on it in seconds
#   --static      the full static-analysis tier, mirroring the CI matrix
#                 (docs/static_analysis.md): the linter, then — when the
#                 tools exist on PATH — a clang++ build of the clang
#                 preset (thread-safety analysis as errors), clang-tidy
#                 over compile_commands.json (result-cached), and
#                 cppcheck.  Missing tools are skipped with a notice, so
#                 the command is useful on a gcc-only box too
#   --preset P    one named preset only (default|asan|ubsan|tsan)
#   --server-smoke  build the default preset, then run only the daemon's
#                 TCP end-to-end smoke (scripts/server_smoke.sh)
#   --cluster-smoke  build the default preset, then run only the sharded
#                 cluster's TCP end-to-end smoke (scripts/cluster_smoke.sh:
#                 fsqdb_shard + 2 workers + finehmm_clusterd, merged tblout
#                 byte-identical to an unsharded scan)
#   --all         everything: lint, then default + asan + ubsan + tsan
#
# Every sanitizer preset builds into its own tree (build-asan/,
# build-ubsan/, build-tsan/) with FINEHMM_CHECKS=ON, so the DP/queue
# invariants are armed exactly where the sanitizers are watching.
set -euo pipefail

cd "$(dirname "$0")/.."

run() { echo "+ $*"; "$@"; }

lint() {
  run python3 tools/finehmm_lint --self-test
  run python3 tools/finehmm_lint
}

preset() {
  run cmake --preset "$1"
  run cmake --build --preset "$1" -j "$(nproc)"
  run ctest --preset "$1"
}

static_tier() {
  lint
  if command -v clang++ >/dev/null 2>&1; then
    # Build (not just syntax-check) so -Wthread-safety -Werror covers
    # every TU, and run the tests: the clang preset also registers the
    # negative-compile pair (test_thread_safety_violations, WILL_FAIL).
    preset clang
  else
    echo "check.sh: clang++ not found, skipping thread-safety build"
  fi
  if command -v clang-tidy >/dev/null 2>&1; then
    run python3 tools/finehmm_lint --clang-tidy
  else
    echo "check.sh: clang-tidy not found, skipping deep pass"
  fi
  if command -v cppcheck >/dev/null 2>&1; then
    run cppcheck --error-exitcode=1 --inline-suppr \
        --enable=warning,portability \
        --suppress=missingInclude --suppress=unusedFunction \
        --inconclusive --quiet -I src src
  else
    echo "check.sh: cppcheck not found, skipping"
  fi
}

case "${1:-}" in
  --fast)
    preset default
    ;;
  --lint)
    lint
    ;;
  --static)
    static_tier
    ;;
  --preset)
    [[ -n "${2:-}" ]] || { echo "check.sh: --preset needs a name" >&2; exit 2; }
    preset "$2"
    ;;
  --server-smoke)
    run cmake --preset default
    run cmake --build --preset default -j "$(nproc)"
    run bash scripts/server_smoke.sh build/tools build/examples
    ;;
  --cluster-smoke)
    run cmake --preset default
    run cmake --build --preset default -j "$(nproc)"
    run bash scripts/cluster_smoke.sh build/tools build/examples
    ;;
  --all)
    lint
    preset default
    preset asan
    preset ubsan
    preset tsan
    ;;
  "")
    preset default
    preset asan
    ;;
  *)
    echo "check.sh: unknown mode '$1'" \
         "(--fast|--lint|--static|--preset P|--server-smoke|--cluster-smoke|--all)" >&2
    exit 2
    ;;
esac

echo "check.sh: all suites passed"
