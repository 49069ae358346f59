// One experiment as the paper's results define it: a design point (sprint
// level, scheme — NoC-sprinting with CDOR or full-sprinting with XY —
// traffic pattern and load), a load sweep over one, or a design point on
// an arbitrary topology graph.
//
// A Scenario is parsed and validated once from key=value configuration
// and then run task by task:
//
//   Config -> Scenario::from_config -> run_task(i) for each task
//          -> aggregate(results) -> the report document
//
// The CLI's batch modes (mode=simulate|sweep|topo) and the serve daemon's
// job kinds (simulate|sweep) are both thin dispatchers over it, so a
// daemon result equals a direct run by construction.  Keys describing
// where a run happens rather than what it computes (checkpoint paths,
// worker counts, report/metrics/trace outputs) stay with the caller; the
// run context is a noc::CheckpointConfig.
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

/// What one task ran on, for callers that print more than its report
/// holds (routing name, active set, topology, power and stats breakdown).
struct TaskRun {
  noc::SimResults results;
  power::NocPowerEstimate power;
  /// Declared before `bundle` so the network, which holds fault hooks
  /// into it, is destroyed first.
  std::unique_ptr<fault::FaultInjector> injector;
  NetworkBundle bundle;
};

class Scenario {
 public:
  /// Reads and validates every key `kind` ("simulate", "sweep" or "topo")
  /// accepts; throws std::invalid_argument on an unknown kind or a bad
  /// value.  Keys it does not know are left for the caller's
  /// Config::reject_unknown().
  static Scenario from_config(const std::string& kind, const Config& cfg);

  /// Sweep: one task per rate; otherwise 1.
  std::size_t task_count() const;
  /// The sweep's rates (empty for the single-run kinds).
  const std::vector<double>& rates() const { return rates_; }
  std::uint64_t seed() const { return seed_; }

  /// Trace counter sampling window (SimConfig::trace_sample); results
  /// never depend on it.
  void set_trace_sample(Cycle cycles) { sim_.trace_sample = cycles; }

  /// Runs task `i`: builds its network, applies sim_threads, attaches the
  /// fault injector (also as the "fault" snapshot extra of a copy of
  /// `ckpt`), runs it under `ckpt`, and estimates its power.  Returns the
  /// task's report, or a null Value when `ckpt` stopped the run early.
  /// `run`, when given, receives the network and its raw results.
  json::Value run_task(std::size_t i, const noc::CheckpointConfig& ckpt,
                       TaskRun* run = nullptr) const;

  /// The report from every task's result, in task order: a single run's
  /// result as is, a sweep's {level, traffic, seed, points}.  `label`,
  /// when given, is stamped as {label: kind name} ahead of the
  /// scenario's own keys (the CLI's "mode").
  json::Value aggregate(const std::vector<json::Value>& results,
                        const char* label = nullptr) const;

 private:
  enum class Kind { kSimulate, kSweep, kTopo };

  Scenario() = default;
  const char* kind_name() const;

  Kind kind_ = Kind::kSimulate;
  noc::NetworkParams params_;
  std::optional<noc::Topology> topology_;  ///< kTopo only
  NetworkScheme scheme_ = NetworkScheme::kNoc;
  int level_ = 4;
  std::string traffic_;
  std::uint64_t seed_ = 1;
  bool request_reply_ = false;
  int sim_threads_ = 0;
  noc::SimConfig sim_;
  fault::FaultParams faults_;
  std::vector<double> rates_;  ///< kSweep only
};

}  // namespace nocs::sprint
