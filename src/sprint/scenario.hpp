// One experiment as the paper's results define it: a design point (sprint
// level, scheme — NoC-sprinting with CDOR or full-sprinting with XY —
// traffic pattern and load), a load sweep over one, or a design point on
// an arbitrary topology graph.
//
// A DesignPoint is the typed form of one simulation; run_point() is the
// one function that builds, runs and prices it.  A Scenario parses and
// validates a DesignPoint (plus a sweep's rates) once from key=value
// configuration and then runs it task by task:
//
//   Config -> Scenario::from_config -> run_task(i) = run_point(point(i))
//          -> aggregate(results) -> the report document
//
// The CLI's batch modes (mode=simulate|sweep|topo) and the serve daemon's
// job kinds (simulate|sweep) are both thin dispatchers over Scenario, and
// the figure and ablation benches build DesignPoints in code and call
// run_point, so a daemon result equals a direct run by construction.
// Keys describing where a run happens rather than what it computes
// (checkpoint paths, worker counts, report/metrics/trace outputs) stay
// with the caller; the run context is a noc::CheckpointConfig.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/json.hpp"
#include "fault/fault_injector.hpp"
#include "noc/simulator.hpp"
#include "noc/topology.hpp"
#include "power/noc_power.hpp"
#include "sprint/network_builder.hpp"

namespace nocs::sprint {

/// Most points one `rates=` spec may expand to.
inline constexpr std::size_t kMaxSweepPoints = 4096;

/// Injection rates of a `rates=start:step:end` spec.  Throws
/// std::invalid_argument on a malformed spec, unless start > 0, step > 0
/// and end >= start, and when it expands past kMaxSweepPoints points.
std::vector<double> parse_rates(const std::string& spec);

/// Everything that decides one simulation's results, as plain values.
struct DesignPoint {
  noc::NetworkParams params;
  /// The graph to build on, certified deadlock-free before the first
  /// tick; unset builds the params.width x params.height mesh unchecked.
  std::optional<noc::Topology> topology;
  NetworkScheme scheme = NetworkScheme::kNoc;
  int level = 4;
  std::string traffic = "uniform";
  std::uint64_t seed = 1;
  /// Cache-shaped load: 1-flit class-0 requests beget 5-flit class-1
  /// replies (needs params.num_classes >= 2).
  bool request_reply = false;
  /// Shards ticking the network; results are bit-identical for any value
  /// (0 defers to NOCS_SIM_THREADS, else serial).
  int sim_threads = 0;
  noc::SimConfig sim;
  fault::FaultParams faults;
};

/// What one point ran on, for callers that print more than its report
/// holds (routing name, active set, topology, power and stats breakdown).
struct TaskRun {
  noc::SimResults results;
  power::NocPowerEstimate power;  ///< unset when the run was interrupted
  /// The passing verdict when the point names a topology.
  noc::DeadlockCheckResult deadlock;
  /// Declared before `bundle` so the network, which holds fault hooks
  /// into it, is destroyed first.
  std::unique_ptr<fault::FaultInjector> injector;
  NetworkBundle bundle;
};

/// Runs `point`: builds its network (make_sprinting_network), certifies a
/// named topology (require_deadlock_free, which throws on failure),
/// applies request/reply and sim_threads, attaches the fault injector
/// (also as the "fault" snapshot extra of a copy of `ckpt`), simulates
/// under `ckpt`, and estimates the network's power unless `ckpt` stopped
/// the run early (results.interrupted).
TaskRun run_point(const DesignPoint& point,
                  const noc::CheckpointConfig& ckpt = {});

class Scenario {
 public:
  /// A single run of `point` (the topo kind when it names a topology,
  /// else simulate), or, given `rates`, a sweep of it over those
  /// injection rates (a sweep takes no topology).
  explicit Scenario(DesignPoint point, std::vector<double> rates = {});

  /// Reads and validates every key `kind` ("simulate", "sweep" or "topo")
  /// accepts; throws std::invalid_argument on an unknown kind or a bad
  /// value.  Keys it does not know are left for the caller's
  /// Config::reject_unknown().
  static Scenario from_config(const std::string& kind, const Config& cfg);

  /// Sweep: one task per rate; otherwise 1.
  std::size_t task_count() const;

  /// Digest of every value that can change this scenario's results, read
  /// after parsing, so defaults are filled in and equal values hash
  /// equally however they were spelled.  Keys that never change results
  /// (sim_threads, trace_sample) are left out.  Names the `mode=sweep`
  /// task manifest.
  std::string fingerprint() const;
  /// The sweep's rates (empty for the single-run kinds).
  const std::vector<double>& rates() const { return rates_; }
  std::uint64_t seed() const { return point_.seed; }

  /// Trace counter sampling window (SimConfig::trace_sample); results
  /// never depend on it.
  void set_trace_sample(Cycle cycles) { point_.sim.trace_sample = cycles; }

  /// Task `i`'s design point: a sweep's point i runs at rate i on its own
  /// network seeded task_seed(seed, i), so the points are identical for
  /// any worker count and completion order; a single run's is the point.
  DesignPoint point(std::size_t i) const;

  /// Runs task `i` through run_point(point(i), ckpt).  Returns the task's
  /// report, or a null Value when `ckpt` stopped the run early.  `run`,
  /// when given, receives the network and its raw results.
  json::Value run_task(std::size_t i, const noc::CheckpointConfig& ckpt,
                       TaskRun* run = nullptr) const;

  /// The report from every task's result, in task order: a single run's
  /// result as is, a sweep's {level, traffic, seed, points}.  `label`,
  /// when given, is stamped as {label: kind name} ahead of the
  /// scenario's own keys (the CLI's "mode").
  json::Value aggregate(const std::vector<json::Value>& results,
                        const char* label = nullptr) const;

 private:
  bool sweep() const { return !rates_.empty(); }
  const char* kind_name() const;

  DesignPoint point_;
  std::vector<double> rates_;  ///< a sweep's; empty for a single run
};

}  // namespace nocs::sprint
