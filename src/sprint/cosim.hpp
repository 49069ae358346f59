// CMP <-> NoC co-simulation.
//
// Runs a workload's traffic through the cycle-accurate network under both
// full-sprinting (16 endpoints, XY-DOR, nothing gated) and NoC-sprinting
// (optimal convex region, CDOR, dark region gated), then feeds the
// *measured* network latencies back into the execution-time model through
// the comm-gamma coupling.  This closes the loop the paper's gem5+Garnet
// setup closes natively: CDOR's shorter paths show up in end-to-end
// execution time, not just in network statistics.
#pragma once

#include "cmp/perf_model.hpp"
#include "common/json.hpp"
#include "noc/params.hpp"
#include "noc/simulator.hpp"

namespace nocs::sprint {

/// Everything one benchmark's co-simulation produces.
struct CosimResult {
  int level = 0;  ///< optimal sprint level (simulated at >= 2)

  // Full-sprinting network.
  double full_latency = 0.0;   ///< avg packet latency, cycles
  Watts full_noc_power = 0.0;
  bool full_saturated = false;

  // NoC-sprinting network.
  double noc_latency = 0.0;
  Watts noc_noc_power = 0.0;
  bool noc_saturated = false;

  // Latency-adjusted execution times (normalized; full-sprinting's
  // measured latency is the calibration reference, matching the paper's
  // gem5 profiling with the full network active).
  double exec_full = 0.0;  ///< at 16 cores, full network latency
  double exec_noc = 0.0;   ///< at the optimal level, CDOR latency
};

/// Co-simulation knobs.
struct CosimConfig {
  Cycle warmup = 2000;
  Cycle measure = 10000;
  std::uint64_t seed = 7;

  /// Workers for the two independent network simulations (<= 0 selects
  /// the default thread count, 1 forces serial).  Results are identical
  /// for any value: each simulation owns its network and seed.
  int num_threads = 0;
};

/// Runs both configurations for `workload` and couples the results.
CosimResult cosimulate(const noc::NetworkParams& params,
                       const cmp::WorkloadParams& workload,
                       const cmp::PerfModel& perf,
                       const CosimConfig& cfg = {});

/// Serializes one co-simulation's results as a JSON object (the per-
/// benchmark payload of the fig09/fig10 task manifests).
json::Value to_json(const CosimResult& r);

/// Inverse of to_json (doubles round-trip bit-exactly); throws
/// std::invalid_argument when a field is missing.
CosimResult cosim_result_from_json(const json::Value& v);

}  // namespace nocs::sprint
