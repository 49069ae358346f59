#!/usr/bin/env bash
# Golden stdout gate: every figure and ablation bench except micro_perf,
# and every example except the CLI, the serve client and topo_lint (whose
# CLI runs are pinned below and whose topologies scripts/
# check_topo_examples.sh lints), must print exactly the committed bytes
# in tests/golden/<name>.txt.  Between them they pin the simulator's
# mesh, sprint and topology paths, the 3-stage router pipeline
# (ablation_pipeline), the 2-class VC partition (ablation_protocol),
# dynamic gating with wake-on-arrival (ablation_gating), multicast plus
# request/reply DRAM traffic (fig13_membound), the cosimulation (fig09,
# fig10), the fault injector (fault_storm) and the analytic power,
# thermal, area and scheduling models.  Each runs serially and with every
# simulation sharded across four threads (NOCS_SIM_THREADS=4; threads=1
# keeps a bench's sweep pool inline so the shards really run; benches
# without a pool ignore it).  Results are bit-identical for any shard
# count by contract, so one golden file serves both runs.
#
# The CLI's batch modes (simulate, sweep, topo) are pinned the same way:
# each run executes inside a fresh scratch directory with fixed relative
# output names, so its stdout (including the "report written to
# report.json" line) and every JSON file it writes are compared byte for
# byte with tests/golden/cli_<name>.<file>, serially and at 3 and 4
# shards.  Three shards cut the mesh mid-row, so links inside a row cross
# a shard boundary too, and the byte-identity gate covers their pipes.
# simulate_stuck freezes dark router 15 from cycle 0, so its leakage pins
# how a frozen gated router is ticked and counted.
#
# Usage: scripts/check_golden.sh <build-dir>
#
# Exits non-zero after listing every run whose output differs.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:?usage: scripts/check_golden.sh <build-dir>}"

out="$(mktemp)"
work="$(mktemp -d)"
trap 'rm -rf "${out}" "${work}"' EXIT
failed=0

# check <bench> <label> <command...>: runs the command under env(1) and
# compares its stdout with the bench's golden file.
check() {
  local bench="$1" label="$2"
  shift 2
  local golden="tests/golden/${bench}.txt"
  env "$@" >"${out}"
  if cmp -s "${golden}" "${out}"; then
    echo "ok    ${bench} (${label})"
  else
    echo "FAIL  ${bench} (${label}): stdout differs from ${golden}"
    diff "${golden}" "${out}" | head -20 || true
    failed=1
  fi
}

# <dir>/<name> under the build tree; the golden is tests/golden/<name>.txt.
stdout_runs=(
  bench/fig01_sprint_phases bench/fig02_router_power bench/fig03_chip_power
  bench/fig04_parsec_scaling bench/fig07_exec_time bench/fig08_core_power
  bench/fig09_net_latency bench/fig10_net_power bench/fig11_synthetic
  bench/fig12_thermal bench/fig13_membound bench/fig14_topology_sprint
  bench/sprint_duration bench/cdor_area
  bench/ablation_dim_sprint bench/ablation_floorplan bench/ablation_gating
  bench/ablation_llc bench/ablation_meshscale bench/ablation_pipeline
  bench/ablation_protocol bench/ablation_rotation bench/ablation_topology
  bench/ablation_wires
  examples/quickstart examples/traffic_sweep examples/fault_storm
  examples/online_adaptation examples/thermal_explorer examples/bursty_server
)
for run in "${stdout_runs[@]}"; do
  bench="${run#*/}"
  bin="${BUILD}/${run}"
  check "${bench}" serial "${bin}"
  check "${bench}" "NOCS_SIM_THREADS=4 threads=1" \
    NOCS_SIM_THREADS=4 "${bin}" threads=1
done
# check_cli <name> <label> <env...> -- <cli args...>: runs nocsprint_cli in
# an empty scratch dir and compares stdout.txt plus every output file
# named by a tests/golden/cli_<name>.* golden.
cli="$(cd "${BUILD}" && pwd)/examples/nocsprint_cli"
check_cli() {
  local name="$1" label="$2"
  shift 2
  local envs=()
  while [[ "$1" != "--" ]]; do envs+=("$1"); shift; done
  shift
  local dir
  dir="$(mktemp -d -p "${work}")"
  (cd "${dir}" && env "${envs[@]}" "${cli}" "$@" >stdout.txt)
  compare_cli "${name}" "${label}" "${dir}"
}
# compare_cli <name> <label> <dir>: compares every tests/golden/cli_<name>.*
# golden with the file of the same name in <dir>.
compare_cli() {
  local name="$1" label="$2" dir="$3"
  local golden file ok=1
  for golden in tests/golden/cli_"${name}".*; do
    file="${golden#tests/golden/cli_${name}.}"
    if ! cmp -s "${golden}" "${dir}/${file}"; then
      echo "FAIL  cli_${name} (${label}): ${file} differs from ${golden}"
      diff "${golden}" "${dir}/${file}" | head -20 || true
      ok=0
      failed=1
    fi
  done
  if [[ ${ok} -eq 1 ]]; then echo "ok    cli_${name} (${label})"; fi
}

# name|CLI arguments (report=/metrics= use fixed relative file names)
cli_runs=(
  "simulate_full|mode=simulate level=4 injection=0.2 scheme=full report=report.json"
  "simulate_faults|mode=simulate level=8 classes=2 protocol=true faults=true fault_flip_rate=1e-3 metrics=metrics.json report=report.json"
  "sweep_faults|mode=sweep level=8 rates=0.05:0.1:0.45 faults=true report=report.json"
  "topo_ring|mode=topo topology=ring_circulant ring_skip=4 level=8 report=report.json"
  "simulate_stuck|mode=simulate scheme=noc level=4 faults=true fault_stuck=15 report=report.json"
)
for run in "${cli_runs[@]}"; do
  name="${run%%|*}"
  read -r -a args <<<"${run#*|}"
  check_cli "${name}" serial -- "${args[@]}"
  # threads=1 keeps a sweep's points inline so the shards really run.
  extra=()
  if [[ "${args[0]}" == mode=sweep ]]; then extra=(threads=1); fi
  for shards in 3 4; do
    check_cli "${name}" "NOCS_SIM_THREADS=${shards}" \
      NOCS_SIM_THREADS="${shards}" -- "${args[@]}" "${extra[@]}"
  done
done

# Torn-manifest resume, on the sweep_faults run and its goldens: the sweep
# runs with checkpoint=m.nsrl, its manifest is cut 7 bytes short of the
# end of its third record (a torn task append) or of its first (a torn
# header: a fresh start), and the same command re-run must print and
# report exactly the golden bytes, serially and at 3 shards.  Cutting the
# file stands in for a kill -9 mid-append deterministically: a whole
# faulted sweep is too short to kill reliably between two records.
# manifest_cut <file> <n>: the offset 7 bytes before the n-th frame ends
# (frame: magic u32 | length u64 | checksum u64 | payload, little-endian).
manifest_cut() {
  local at=0 len i
  for ((i = 0; i < $2; ++i)); do
    len=$(od -An -t u8 -j $((at + 4)) -N 8 "$1" | tr -d ' ')
    at=$((at + 20 + len))
  done
  echo $((at - 7))
}
for run in "${cli_runs[@]}"; do
  [[ "${run%%|*}" == sweep_faults ]] && read -r -a args <<<"${run#*|}"
done
for record in 3 1; do
  for shards in 1 3; do
    dir="$(mktemp -d -p "${work}")"
    envs=(NOCS_SIM_THREADS="${shards}")
    sweep=("${cli}" "${args[@]}" threads=1 checkpoint=m.nsrl)
    label="NOCS_SIM_THREADS=${shards}, manifest cut in record ${record}"
    (cd "${dir}" && env "${envs[@]}" "${sweep[@]}" >/dev/null)
    truncate -s "$(manifest_cut "${dir}/m.nsrl" "${record}")" "${dir}/m.nsrl"
    (cd "${dir}" && env "${envs[@]}" "${sweep[@]}" >stdout.txt 2>stderr.txt)
    if ! grep -q "damaged tail" "${dir}/stderr.txt"; then
      echo "FAIL  cli_sweep_faults (${label}): the cut manifest was not read"
      failed=1
    fi
    compare_cli sweep_faults "resumed, ${label}" "${dir}"
  done
done
exit "${failed}"
