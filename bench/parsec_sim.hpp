// Shared simulation driver for the PARSEC network experiments (Figures 9
// and 10): the library's sprint::cosimulate() per benchmark, on the
// resumable batch driver.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "cmp/perf_model.hpp"
#include "common/json.hpp"
#include "common/snapshot.hpp"
#include "noc/parallel_sweep.hpp"
#include "sprint/cosim.hpp"

namespace nocs::bench {

/// Manifest fingerprint for a PARSEC suite run: mesh shape, suite size,
/// and seed.  A manifest written under different arguments, or holding
/// another payload than sprint::to_json(CosimResult), starts fresh.
inline std::string parsec_suite_fingerprint(
    const noc::NetworkParams& params,
    const std::vector<cmp::WorkloadParams>& suite, std::uint64_t seed) {
  return "parsec-cosim:mesh=" + std::to_string(params.width) + "x" +
         std::to_string(params.height) +
         ";n=" + std::to_string(suite.size()) +
         ";seed=" + std::to_string(seed);
}

/// Runs the whole suite with one worker per benchmark (each co-simulation
/// stays serial internally).  Every benchmark uses the same fixed `seed`
/// and its own networks, so results are identical to the serial loop no
/// matter the thread count.  `manifest` makes the run resumable.
inline std::vector<sprint::CosimResult> run_parsec_suite(
    const noc::NetworkParams& params,
    const std::vector<cmp::WorkloadParams>& suite, const cmp::PerfModel& pm,
    std::uint64_t seed, int num_threads = 0,
    snapshot::TaskManifest* manifest = nullptr) {
  if (manifest != nullptr) {
    const std::size_t done = manifest->completed_count();
    if (done > 0 && done < suite.size())
      std::printf("resuming: %zu/%zu benchmarks already completed\n", done,
                  suite.size());
  }
  sprint::CosimConfig cfg;
  cfg.seed = seed;
  cfg.num_threads = 1;
  const std::vector<json::Value> runs = noc::run_resumable(
      suite.size(), num_threads, manifest, nullptr, [&](std::size_t i) {
        return sprint::to_json(sprint::cosimulate(params, suite[i], pm, cfg));
      });
  std::vector<sprint::CosimResult> results;
  for (const json::Value& v : runs)
    results.push_back(sprint::cosim_result_from_json(v));
  return results;
}

}  // namespace nocs::bench
