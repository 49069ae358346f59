#!/usr/bin/env bash
# Sampling profile of one perfbench workload.
#
# Builds perfbench's sources (perfbench/CMakeLists.txt) into
# .bench_build/profile with -O3 -g -DNDEBUG and passes -pg to the link
# line only.  Linking with -pg pulls in the gprof start-up code, which
# samples the program counter on SIGPROF into gmon.out; because no object
# is compiled with -pg there are no mcount calls, so the flat profile
# charges the simulator's own code instead of libc's call counting (a
# compile-time -O2 -pg build spent most of a mesh8_uniform run in mcount).
# Call counts and the call graph are therefore absent: read self seconds
# only.  `gprof -l` (per-line) is not used; it aborts on binutils 2.40.
# perfbench builds with IPO, so the link-time code generation sees -pg
# too; it instruments only the two thunks it creates itself.  Samples in
# LTO-local functions can be charged to a neighboring symbol, so compare
# a function's self seconds per pass between builds rather than trusting
# every label.
#
# Usage: scripts/profile.sh <workload> [seconds]   (default 10 seconds)
#
# Prints the workload's result line, then `gprof -b -p` of the run.
set -euo pipefail

cd "$(dirname "$0")/.."
workload="${1:?usage: scripts/profile.sh <workload> [seconds]}"
seconds="${2:-10}"
build=".bench_build/profile"

jobs="$(nproc 2>/dev/null || echo 1)"
if [[ "${jobs}" -gt 4 ]]; then jobs=4; fi

if [[ ! -f "${build}/CMakeCache.txt" ]]; then
  cmake -S perfbench -B "${build}" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS_RELEASE="-O3 -g -DNDEBUG" \
    -DCMAKE_EXE_LINKER_FLAGS="-pg" >/dev/null
fi
cmake --build "${build}" -j "${jobs}" >/dev/null

run="${build}/run"
rm -rf "${run}"
mkdir -p "${run}"
# gmon.out is written to the working directory at exit.
(cd "${run}" && ../perfbench --workload "${workload}" --seed 1 \
  --seconds "${seconds}" --trace 0 --state-dir state | tail -n 1)
gprof -b -p "${build}/perfbench" "${run}/gmon.out"
