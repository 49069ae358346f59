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
# only.
#
# The flat profile comes from scripts/gmon_flat.py, not `gprof -p`: it
# charges each histogram bin to the function whose `nm --print-size`
# range holds it.  gprof 2.40 leaves some GCC clone symbols out of its
# table and charges their samples to the symbol before them (it printed
# `Router::stage_vc_allocation [clone .constprop.0]`'s 6-9% as
# `json::Value::dump [clone .constprop.0]`).  perfbench builds with IPO;
# LTO-local functions are sized symbols too, so they keep their samples,
# but a function inlined into another is charged to its caller.  Compare a
# function's self seconds per pass between builds, i.e. divide by the
# run's `attempted`.
#
# Usage: scripts/profile.sh <workload> [seconds]   (default 10 seconds)
#
# Prints the workload's result line, then the flat profile of the run.
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
python3 scripts/gmon_flat.py "${build}/perfbench" "${run}/gmon.out"
