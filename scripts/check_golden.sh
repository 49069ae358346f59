#!/usr/bin/env bash
# Golden stdout gate: the figure benches whose output pins the simulator's
# mesh, sprint and topology paths, the 3-stage router pipeline
# (ablation_pipeline), the 2-class VC partition (ablation_protocol),
# dynamic gating with wake-on-arrival (ablation_gating), and multicast
# plus request/reply DRAM traffic (fig13_membound) must print exactly the
# committed bytes in tests/golden/, both serially and with every
# simulation sharded across four threads (NOCS_SIM_THREADS=4; threads=1
# keeps the sweep pool inline so the shards really run).  Results are
# bit-identical for any shard count by contract, so one golden file
# serves both runs.
#
# Usage: scripts/check_golden.sh <build-dir>
#
# Exits non-zero after listing every run whose output differs.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:?usage: scripts/check_golden.sh <build-dir>}"

out="$(mktemp)"
trap 'rm -f "${out}"' EXIT
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

for bench in fig09_net_latency fig11_synthetic fig14_topology_sprint \
             ablation_topology ablation_pipeline ablation_protocol \
             ablation_gating fig13_membound; do
  bin="${BUILD}/bench/${bench}"
  check "${bench}" serial "${bin}"
  check "${bench}" "NOCS_SIM_THREADS=4 threads=1" \
    NOCS_SIM_THREADS=4 "${bin}" threads=1
done
exit "${failed}"
