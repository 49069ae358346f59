#!/usr/bin/env bash
# Full build-and-test matrix: a Release build (what the benches and
# figures run as) and an AddressSanitizer build (guards the ring-buffer /
# calendar-wheel index arithmetic and the new fault/retransmission
# paths), each running the complete ctest suite, plus a ThreadSanitizer
# build running the `parallel` and `serve` labels (the sharded
# barrier-synchronous tick, the sweep thread pool, and the daemon), the
# golden figure-stdout gate (scripts/check_golden.sh), the campaign-daemon
# crash-recovery smoke test (scripts/serve_smoke.sh: kill -9, restart,
# bit-compare), and the repository benchmark's smoke test
# (perfbench/smoke_test.py, which builds perfbench from a clean tree).
#
# Usage: scripts/ci.sh [jobs]        (default: all cores)
#
# Exits non-zero on the first failing configure/build/test step.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

run_config() {
  local dir="$1"
  shift
  echo "==== configure ${dir} ($*) ===="
  cmake -B "${dir}" -S . "$@" >/dev/null
  echo "==== build ${dir} ===="
  cmake --build "${dir}" -j "${JOBS}"
  echo "==== test ${dir} ===="
  ctest --test-dir "${dir}" -j "${JOBS}" --output-on-failure
}

# As run_config but only runs the tests carrying a ctest label (used for
# the ThreadSanitizer build, where the full suite would be needlessly
# slow — TSan only adds signal on the multi-threaded surface).
run_config_label() {
  local dir="$1" label="$2"
  shift 2
  echo "==== configure ${dir} ($*) ===="
  cmake -B "${dir}" -S . "$@" >/dev/null
  echo "==== build ${dir} ===="
  cmake --build "${dir}" -j "${JOBS}"
  echo "==== test ${dir} (-L ${label}) ===="
  ctest --test-dir "${dir}" -L "${label}" --output-on-failure
}

echo "==== docs checks ===="
scripts/check_docs_links.sh
scripts/check_config_docs.sh

# -Werror on the Release build: a new compiler warning fails CI.
run_config build-ci-release -DCMAKE_BUILD_TYPE=Release -DNOCSPRINT_WERROR=ON
run_config build-ci-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DNOCS_SANITIZE=address
# serve rides along under TSan: the scheduler's preemption, watch
# streaming, and progress atomics are thread-heavy by construction.
run_config_label build-ci-tsan 'parallel|serve' \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DNOCS_SANITIZE=thread

# The shipped topology example files must parse and be deadlock-free at
# every sprint level (docs/TOPOLOGY.md stays executable documentation).
echo "==== topology example lint ===="
scripts/check_topo_examples.sh build-ci-release

# Figure stdout must stay byte-identical to the committed goldens,
# serially and sharded (the determinism contract, checked mechanically).
echo "==== golden figure stdout ===="
scripts/check_golden.sh build-ci-release

echo "==== serve crash-recovery smoke test ===="
scripts/serve_smoke.sh build-ci-release

echo "==== perfbench smoke test ===="
python3 perfbench/smoke_test.py

echo "==== ci.sh: all configurations passed ===="
