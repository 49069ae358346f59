// Shared simulation driver for the PARSEC network experiments (Figures 9
// and 10) — a thin adapter over the library's sprint::cosimulate().
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

struct ParsecNetResult {
  int level = 0;
  double full_latency = 0.0;
  double noc_latency = 0.0;
  Watts full_power = 0.0;
  Watts noc_power = 0.0;
};

/// Manifest payload for one benchmark (bit-exact double round-trip).
inline json::Value to_json(const ParsecNetResult& r) {
  json::Value o = json::Value::object();
  o.set("level", r.level);
  o.set("full_latency", r.full_latency);
  o.set("noc_latency", r.noc_latency);
  o.set("full_power", r.full_power);
  o.set("noc_power", r.noc_power);
  return o;
}

inline ParsecNetResult parsec_net_result_from_json(const json::Value& v) {
  ParsecNetResult r;
  r.level = static_cast<int>(v.at("level").as_number());
  r.full_latency = v.at("full_latency").as_number();
  r.noc_latency = v.at("noc_latency").as_number();
  r.full_power = v.at("full_power").as_number();
  r.noc_power = v.at("noc_power").as_number();
  return r;
}

/// Manifest fingerprint for a PARSEC suite run: mesh shape, suite size,
/// and seed.  A manifest written under different arguments starts fresh.
inline std::string parsec_suite_fingerprint(
    const noc::NetworkParams& params,
    const std::vector<cmp::WorkloadParams>& suite, std::uint64_t seed) {
  return "parsec-suite:mesh=" + std::to_string(params.width) + "x" +
         std::to_string(params.height) +
         ";n=" + std::to_string(suite.size()) +
         ";seed=" + std::to_string(seed);
}

inline ParsecNetResult run_parsec_network(const noc::NetworkParams& params,
                                          const cmp::WorkloadParams& w,
                                          const cmp::PerfModel& pm,
                                          std::uint64_t seed,
                                          int num_threads = 0) {
  sprint::CosimConfig cfg;
  cfg.seed = seed;
  cfg.num_threads = num_threads;
  const sprint::CosimResult r = sprint::cosimulate(params, w, pm, cfg);
  ParsecNetResult out;
  out.level = r.level;
  out.full_latency = r.full_latency;
  out.noc_latency = r.noc_latency;
  out.full_power = r.full_noc_power;
  out.noc_power = r.noc_noc_power;
  return out;
}

/// Runs the whole suite with one worker per benchmark (each co-simulation
/// stays serial internally).  Every benchmark uses the same fixed `seed`
/// and its own networks, so results are identical to the serial loop no
/// matter the thread count.  `manifest` makes the run resumable.
inline std::vector<ParsecNetResult> run_parsec_suite(
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
  const std::vector<json::Value> runs = noc::run_resumable(
      suite.size(), num_threads, manifest, nullptr, [&](std::size_t i) {
        return to_json(run_parsec_network(params, suite[i], pm, seed,
                                          /*num_threads=*/1));
      });
  std::vector<ParsecNetResult> results;
  for (const json::Value& v : runs)
    results.push_back(parsec_net_result_from_json(v));
  return results;
}

}  // namespace nocs::bench
