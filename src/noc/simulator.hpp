// Simulation driver implementing the standard warmup / measure / drain
// methodology (the runs behind every latency and power figure; sweeps over
// many runs live in noc/parallel_sweep.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/snapshot.hpp"
#include "noc/counters.hpp"
#include "noc/network.hpp"

namespace nocs::noc {

/// Phase lengths and load for one simulation run.
struct SimConfig {
  Cycle warmup = 2000;       ///< cycles before measurement starts
  Cycle measure = 10000;     ///< measurement window length
  Cycle drain_max = 100000;  ///< drain budget after the window closes
  double injection_rate = 0.1;  ///< flits/cycle per active endpoint
  /// Livelock/deadlock watchdog: abort the run and capture a diagnostic
  /// snapshot once no flit makes progress for this many cycles while the
  /// network is not drained.  0 disables the watchdog (the default, so
  /// fault-free runs are untouched).
  Cycle watchdog_cycles = 0;
  /// Cycles between per-window trace samples (counter events for in-flight
  /// packets, hot routers, per-router occupancy).  Only read while a trace
  /// session is active; with tracing off the run is bit-identical
  /// regardless of this value.
  Cycle trace_sample = 256;
};

/// Aggregated results of one run.
struct SimResults {
  double avg_packet_latency = 0.0;   ///< creation -> tail eject (cycles)
  double avg_network_latency = 0.0;  ///< head inject -> tail eject (cycles)
  double p50_latency = 0.0;          ///< median packet latency
  double p99_latency = 0.0;          ///< tail latency
  double avg_hops = 0.0;
  std::uint64_t packets_generated = 0;
  std::uint64_t packets_ejected = 0;
  /// Measurement-window throughput: measurement-tagged flits ejected per
  /// measurement cycle per active endpoint (drain cycles add no tagged
  /// load and are excluded from the normalization).
  double accepted_rate = 0.0;
  bool saturated = false;      ///< drain budget exhausted (unstable load)
  /// True when some packet latency exceeded the latency histogram's
  /// initial range (the histogram grew to cover it), i.e. the reported
  /// tail quantiles come from a coarsened-but-complete distribution — the
  /// telltale of a run at or past saturation.
  bool histogram_saturated = false;
  double max_packet_latency = 0.0;  ///< worst measured packet latency
  bool hung = false;           ///< watchdog fired (livelock/deadlock)
  std::string diagnostic;      ///< per-router snapshot when `hung`
  /// True when the run stopped at CheckpointConfig::stop_at instead of
  /// finishing; the statistics cover only the cycles simulated so far.
  bool interrupted = false;
  Cycle cycles = 0;            ///< total cycles simulated
  RouterCounters counters;     ///< summed router activity (whole run)
  ResilienceCounters resilience;  ///< end-to-end protection activity

  /// Registers the run's statistics into `reg` ("sim.*" gauges/counters
  /// plus the router/resilience counter families).
  void export_metrics(MetricsRegistry& reg) const;
};

/// Serializes every SimResults field (including resilience counters and
/// the watchdog diagnostic) as a JSON object — the payload of `report=`
/// run reports.
json::Value to_json(const SimResults& r);

/// Inverse of to_json: rebuilds a SimResults from its JSON form.  Exact
/// (bit-identical doubles — the JSON layer round-trips numbers through
/// shortest-representation formatting), so a report read back (a served
/// job's result, a manifest entry) equals the run that wrote it.
SimResults sim_results_from_json(const json::Value& v);

/// Checkpoint/restore policy for one run (all off by default, in which
/// case run_simulation behaves exactly as without it).
struct CheckpointConfig {
  /// Snapshot file written by periodic autosave and at stop_at ("" = off).
  std::string save_path;
  /// Autosave period: a checkpoint is written whenever the simulation
  /// cycle is a multiple of `every` (0 = off; requires save_path).
  Cycle every = 0;
  /// Snapshot to resume from ("" = off).  The network must be constructed
  /// and configured (endpoints, seed, gating, faults) exactly as in the
  /// checkpointed run; the SimConfig must match the one recorded in the
  /// file.  Throws snapshot::SnapshotError on any mismatch or corruption.
  std::string restore_path;
  /// Absolute cycle at which to stop the run (writing save_path first when
  /// set), marking the results `interrupted`.  0 = run to completion.
  /// Combined with restore_path this is how bit-identical resume is
  /// verified: run to cycle N, stop, restore, continue, compare.
  Cycle stop_at = 0;
  /// Optional cooperative stop flag (the process shutdown flag installed
  /// by common/shutdown, or a serve-job CancellationToken's flag).
  /// Polled at chunk boundaries (a few thousand cycles at most); once set
  /// the run writes save_path (when configured) and returns with
  /// `interrupted`, exactly like hitting stop_at.  Polling never perturbs
  /// simulation state, so an uninterrupted run is bit-identical with or
  /// without the flag wired up.
  const std::atomic<bool>* stop_flag = nullptr;
  /// Optional progress observer, invoked with the current cycle at the
  /// same chunk boundaries that poll `stop_flag`.  Purely observational:
  /// it sees the simulation, it never steers it, so results are
  /// bit-identical with or without a hook installed.  Called from the
  /// simulating thread — keep it cheap (the serve daemon stores into an
  /// atomic and returns).
  std::function<void(Cycle)> on_progress;
  /// Extra components serialized into/restored from the same snapshot
  /// under their given names, in order (e.g. {"fault", &injector}).  The
  /// pointers must outlive the run.
  std::vector<std::pair<std::string, snapshot::Serializable*>> extras;
};

/// Runs warmup, a measurement window, and a drain phase on `net`, which
/// must already be configured (endpoints, traffic, gating).  Counters are
/// reset at the start so power estimates cover exactly this run.
SimResults run_simulation(Network& net, const SimConfig& cfg);

/// As above with checkpoint/restore: optionally resumes from a snapshot,
/// autosaves periodically (atomic tmp + rename), and can stop early at a
/// fixed cycle.  A restored run continues the warmup/measure/drain state
/// machine exactly where it stopped and produces results bit-identical to
/// a run that never stopped.
SimResults run_simulation(Network& net, const SimConfig& cfg,
                          const CheckpointConfig& ckpt);

}  // namespace nocs::noc
