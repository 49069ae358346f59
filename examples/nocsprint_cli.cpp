// nocsprint_cli — one command-line entry point for the whole library.
//
// Modes (key=value arguments):
//   mode=plan      workload=<name> [scheme=noc|full|fine|non]
//       -> the sprint controller's decision for one workload
//   mode=simulate  level=<k> [traffic=uniform] [injection=0.1] [seed=1]
//                  [scheme=noc|full] [classes=1|2] [pipeline=5|3]
//                  [faults=true fault_flip_rate=... fault_seed=...]
//       -> one cycle-accurate run with latency/power/percentiles;
//          faults=true enables the fault injector + end-to-end protection
//          and a livelock watchdog (see README "Robustness")
//   mode=sweep     level=<k> [traffic=...] [rates=start:step:end]
//       -> latency-throughput curve
//   mode=thermal   level=<k> [floorplan=identity|thermal]
//       -> steady-state heat map + peak temperature
//   mode=topo      [topology=mesh|torus|ring_circulant|hamming|file]
//                  [topo_file=<path>] [ring_skip=4] [level=<k>]
//                  [traffic=uniform] [injection=0.1] [seed=1]
//       -> sprint on an arbitrary topology graph (docs/TOPOLOGY.md):
//          generalized Algorithm 1 active set, table-driven up*/down*
//          routing off the mesh, deadlock check certified at build time
//   mode=serve     [serve_port=0] [serve_dir=serve-state] [serve_workers=2]
//       -> crash-safe campaign daemon: line-delimited JSON over TCP with a
//          write-ahead job ledger, admission control, retry/timeout
//          supervision, and a result cache (protocol: docs/SERVE.md)
//
// simulate, sweep and topo parse their keys into one sprint::Scenario
// (the serve daemon's simulate and sweep jobs run the same one) and only
// format its results; unknown keys are rejected before anything runs.
//
// Observability (simulate and sweep modes, all off by default — see
// README "Observability"):
//   trace=path.json         Chrome trace-event file (chrome://tracing /
//                           Perfetto); trace_sample=N sets the counter
//                           sampling window in cycles (default 256)
//   report=path.json        machine-readable JSON run report
//   metrics=path.json       metrics-registry snapshot (counters/gauges)
//
// Checkpoint/restore (see docs/SNAPSHOT_FORMAT.md):
//   mode=simulate checkpoint=run.nocsnap checkpoint_every=5000
//       -> periodic autosave of the full simulation state
//   mode=simulate restore=run.nocsnap
//       -> resume a checkpointed run (same config required); results are
//          bit-identical to the uninterrupted run
//   mode=sweep checkpoint=sweep.manifest.json
//       -> per-task completion ledger; a killed sweep re-run with the same
//          arguments skips every already-finished point
//
// Signals: simulate, sweep, and serve install SIGINT/SIGTERM handlers —
// the first signal checkpoints (simulate: checkpoint= snapshot; sweep: the
// task manifest; serve: every in-flight job) and exits 130; a second
// signal kills the process the ordinary way.
//
// Examples:
//   ./nocsprint_cli mode=plan workload=canneal
//   ./nocsprint_cli mode=simulate level=4 injection=0.2 scheme=full
//   ./nocsprint_cli mode=sweep level=8 rates=0.05:0.05:0.5
//   ./nocsprint_cli mode=thermal level=4 floorplan=thermal
//   ./nocsprint_cli mode=topo topology=ring_circulant ring_skip=4 level=8
//   ./nocsprint_cli mode=serve serve_port=4517 serve_dir=campaign
#include <cstdio>
#include <stdexcept>

#include "cmp/perf_model.hpp"
#include "common/config.hpp"
#include "common/metrics.hpp"
#include "common/shutdown.hpp"
#include "common/table.hpp"
#include "common/trace.hpp"
#include "noc/parallel_sweep.hpp"
#include "power/chip_power.hpp"
#include "serve/server.hpp"
#include "sprint/floorplanner.hpp"
#include "sprint/scenario.hpp"
#include "sprint/sprint_controller.hpp"
#include "sprint/topology.hpp"
#include "thermal/grid.hpp"
#include "thermal/pcm.hpp"

using namespace nocs;

namespace {

/// Opens/closes the global trace session around a mode when `path` is
/// set (the trace= key); a no-op otherwise.
class TraceSession {
 public:
  explicit TraceSession(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) trace::begin(path_);
  }
  ~TraceSession() {
    if (!path_.empty() && trace::end())
      std::printf("trace written to %s (load in chrome://tracing or "
                  "https://ui.perfetto.dev)\n",
                  path_.c_str());
  }

 private:
  std::string path_;
};

/// The result lines simulate and topo share.
void print_run(const sprint::TaskRun& run) {
  const noc::SimResults& r = run.results;
  std::printf("avg latency      %.2f cycles (p50 %.1f, p99 %.1f)\n",
              r.avg_packet_latency, r.p50_latency, r.p99_latency);
  std::printf("avg hops         %.2f\n", r.avg_hops);
  std::printf("accepted rate    %.4f flits/cycle/node\n", r.accepted_rate);
  std::printf("packets          %llu (saturated: %s)\n",
              static_cast<unsigned long long>(r.packets_ejected),
              r.saturated ? "yes" : "no");
  std::printf("network power    %.2f mW (routers %.2f, links %.2f)\n",
              run.power.total() * 1e3, run.power.routers.total() * 1e3,
              (run.power.link_dynamic + run.power.link_leakage) * 1e3);
}

/// Writes `doc` to `path` when set and says so.
void write_report(const std::string& path, const json::Value& doc) {
  if (!path.empty() && noc::write_report(path, doc))
    std::printf("report written to %s\n", path.c_str());
}

int mode_plan(const Config& cfg) {
  const MeshShape mesh(4, 4);
  const cmp::PerfModel perf(mesh.size());
  const power::ChipPowerModel chip{power::ChipPowerParams{}};
  const thermal::PcmModel pcm{thermal::PcmParams{}};
  const sprint::SprintController ctl(mesh, perf, chip, pcm);
  const auto suite = cmp::parsec_suite(mesh.size());
  const auto& w =
      cmp::find_workload(suite, cfg.get_string("workload", "dedup"));

  const std::string scheme = cfg.get_string("scheme", "noc");
  sprint::SprintMode mode = sprint::SprintMode::kNocSprinting;
  if (scheme == "full") mode = sprint::SprintMode::kFullSprinting;
  else if (scheme == "fine") mode = sprint::SprintMode::kFineGrained;
  else if (scheme == "non") mode = sprint::SprintMode::kNonSprinting;
  else if (scheme != "noc") throw std::invalid_argument("bad scheme");

  const sprint::SprintPlan p = ctl.plan(w, mode);
  std::printf("workload     %s\nscheme       %s\nlevel        %d\n",
              p.workload.c_str(), sprint::to_string(p.mode), p.level);
  std::printf("active nodes ");
  for (NodeId id : p.active) std::printf("%d ", id);
  std::printf("\nspeedup      %.2fx\ncore power   %.1f W\n", p.speedup,
              p.core_power);
  std::printf("noc power    %.2f W\nchip power   %.1f W\nduration     ",
              p.noc_power, p.chip_power);
  if (p.sprint_duration >= 10.0) std::printf("sustainable\n");
  else std::printf("%.2f s\n", p.sprint_duration);
  return 0;
}

int mode_simulate(const Config& cfg) {
  install_shutdown_handlers();
  sprint::Scenario scenario = sprint::Scenario::from_config("simulate", cfg);
  scenario.set_trace_sample(
      static_cast<Cycle>(cfg.get_int("trace_sample", 256)));
  noc::CheckpointConfig ckpt;
  ckpt.save_path = cfg.get_string("checkpoint", "");
  ckpt.every = static_cast<Cycle>(cfg.get_int("checkpoint_every", 0));
  ckpt.restore_path = cfg.get_string("restore", "");
  // Ctrl-C / SIGTERM: checkpoint (when configured) instead of dying mid-run.
  ckpt.stop_flag = shutdown_flag();
  const std::string report = cfg.get_string("report", "");
  const std::string metrics = cfg.get_string("metrics", "");
  const std::string trace = cfg.get_string("trace", "");
  cfg.reject_unknown();
  const TraceSession trace_session(trace);

  if (!ckpt.restore_path.empty())
    std::printf("restoring from %s\n", ckpt.restore_path.c_str());
  sprint::TaskRun run;
  const json::Value result = scenario.run_task(0, ckpt, &run);
  const noc::SimResults& r = run.results;
  if (result.is_null()) {
    std::printf("interrupted by signal %d at cycle %llu\n",
                shutdown_signal(),
                static_cast<unsigned long long>(r.cycles));
    if (!ckpt.save_path.empty())
      std::printf("checkpoint flushed to %s; resume with restore=%s\n",
                  ckpt.save_path.c_str(), ckpt.save_path.c_str());
    else
      std::printf("no checkpoint= configured, partial run discarded\n");
    return 130;
  }

  std::printf("scheme           %s (routing %s)\n",
              result.at("scheme").as_string().c_str(),
              run.bundle.policy->name());
  print_run(run);
  if (run.injector != nullptr) {
    const noc::ResilienceCounters& rs = r.resilience;
    std::printf(
        "resilience       retx %llu (timeouts %llu), corrupted %llu, "
        "dropped %llu, dups %llu\n",
        static_cast<unsigned long long>(rs.retransmissions),
        static_cast<unsigned long long>(rs.timeouts),
        static_cast<unsigned long long>(rs.corrupted_packets),
        static_cast<unsigned long long>(rs.dropped_packets),
        static_cast<unsigned long long>(rs.duplicates));
    std::printf("fault activity   corrupted flits %llu, reroutes %llu, "
                "wake failures %llu\n",
                static_cast<unsigned long long>(r.counters.flits_corrupted),
                static_cast<unsigned long long>(r.counters.reroutes),
                static_cast<unsigned long long>(r.counters.wake_failures));
    if (r.hung)
      std::printf("WATCHDOG FIRED: no flit progress\n%s", r.diagnostic.c_str());
  }

  write_report(report, scenario.aggregate({result}, "mode"));
  if (!metrics.empty()) {
    MetricsRegistry reg;
    r.export_metrics(reg);
    run.bundle.network->stats().export_metrics(reg);
    run.power.export_metrics(reg);
    if (reg.write_json(metrics))
      std::printf("metrics written to %s\n", metrics.c_str());
  }
  return 0;
}

int mode_sweep(const Config& cfg) {
  install_shutdown_handlers();
  sprint::Scenario scenario = sprint::Scenario::from_config("sweep", cfg);
  scenario.set_trace_sample(
      static_cast<Cycle>(cfg.get_int("trace_sample", 256)));
  const int threads = static_cast<int>(cfg.get_int("threads", 0));
  const std::string checkpoint = cfg.get_string("checkpoint", "");
  const std::string report = cfg.get_string("report", "");
  const std::string trace = cfg.get_string("trace", "");
  cfg.reject_unknown();
  const TraceSession trace_session(trace);

  // checkpoint= names a task manifest: each finished point is recorded
  // immediately, and a re-run with the same arguments replays completed
  // points instead of re-simulating them.
  snapshot::TaskManifest manifest(checkpoint, scenario.fingerprint());
  // One independent network per point, seeded per task: results are
  // identical for any threads= value (threads=1 is the plain serial loop).
  // threads= parallelizes across points, sim_threads= shards each point's
  // tick loop.  On SIGINT/SIGTERM the running points stop cooperatively
  // and stay off the manifest, so the sweep resumes where it was killed.
  noc::CheckpointConfig ckpt;
  ckpt.stop_flag = shutdown_flag();
  const std::vector<json::Value> points = noc::run_resumable(
      scenario.task_count(), threads, &manifest, shutdown_flag(),
      [&](std::size_t i) { return scenario.run_task(i, ckpt); });

  Table t({"rate", "latency", "p99", "accepted", "saturated"});
  std::size_t finished = 0;
  for (const json::Value& pt : points) {
    if (pt.is_null()) continue;
    ++finished;
    t.add_row({Table::fmt(pt.at("injection_rate").as_number(), 3),
               Table::fmt(pt.at("avg_packet_latency").as_number(), 2),
               Table::fmt(pt.at("p99_latency").as_number(), 1),
               Table::fmt(pt.at("accepted_rate").as_number(), 4),
               pt.at("saturated").as_bool() ? "yes" : "no"});
  }
  t.print();

  if (shutdown_requested() && finished < points.size()) {
    std::printf("interrupted by signal %d after %zu of %zu point(s)\n",
                shutdown_signal(), finished, points.size());
    if (manifest.enabled())
      std::printf("manifest flushed to %s; re-run the same command to "
                  "resume\n",
                  checkpoint.c_str());
    else
      std::printf("no checkpoint= manifest configured, finished points "
                  "were discarded\n");
    return 130;
  }
  write_report(report, scenario.aggregate(points, "mode"));
  return 0;
}

int mode_serve(const Config& cfg) {
  // Arm signals before recovery: a SIGTERM during a long ledger replay
  // already drains cleanly.
  install_shutdown_handlers();
  const serve::ServerOptions opts = serve::ServerOptions::from_config(cfg);
  serve::Server server(opts);
  std::printf("serving on %s:%d (state %s, %d worker(s))\n",
              opts.host.c_str(), server.port(), opts.dir.c_str(),
              opts.limits.workers);
  if (server.scheduler().recovered_jobs() > 0)
    std::printf("recovered %zu interrupted job(s) from the ledger\n",
                server.scheduler().recovered_jobs());
  std::fflush(stdout);  // scripts wait for this line before connecting
  server.run();
  std::printf("drained cleanly\n");
  return 0;
}

int mode_topo(const Config& cfg) {
  // Sprint on a topology graph (docs/TOPOLOGY.md).  The mesh keeps the
  // paper's CDOR; everything else routes on up*/down* tables, and either
  // way the channel-dependency deadlock check runs before the first tick
  // (this is the one mode that accepts a user-written graph).
  const sprint::Scenario scenario = sprint::Scenario::from_config("topo", cfg);
  const std::string report = cfg.get_string("report", "");
  cfg.reject_unknown();

  sprint::TaskRun run;
  const json::Value result = scenario.run_task(0, {}, &run);
  const noc::Topology& topo = run.bundle.network->topology();
  std::printf("topology         %s (%d nodes, %zu directed links)\n",
              topo.kind().c_str(), topo.num_nodes(), topo.links().size());
  std::printf("routing          %s\n", run.bundle.policy->name());
  std::printf("active nodes     ");
  for (NodeId id : run.bundle.endpoints) std::printf("%d ", id);
  std::printf("\ndeadlock check   ok (%d channels, %d dependencies)\n",
              static_cast<int>(result.at("deadlock_channels").as_number()),
              static_cast<int>(result.at("deadlock_dependencies").as_number()));
  print_run(run);
  write_report(report, scenario.aggregate({result}, "mode"));
  return 0;
}

int mode_thermal(const Config& cfg) {
  const MeshShape mesh(4, 4);
  const int level = static_cast<int>(cfg.get_int("level", 4));
  const bool thermal_fp = cfg.get_string("floorplan", "identity") == "thermal";
  const power::ChipPowerParams chip{};
  const thermal::GridThermalModel model(thermal::GridThermalParams{}, 12.0,
                                        12.0);
  std::vector<Watts> powers(16, chip.core_gated + chip.l2_tile +
                                    chip.noc_gated_node);
  for (NodeId id : sprint::active_set(mesh, level, 0))
    powers[static_cast<std::size_t>(id)] =
        chip.core_active + chip.l2_tile + chip.noc_per_node;
  const auto positions = thermal_fp
                             ? sprint::thermal_aware_floorplan(mesh, 0).positions
                             : sprint::identity_floorplan(mesh).positions;
  const auto field = model.solve_steady(
      thermal::make_cmp_floorplan(mesh, 12.0, 12.0, powers, positions));
  std::printf("level %d, %s floorplan: peak %.2f K, avg %.2f K\n\n", level,
              thermal_fp ? "thermal-aware" : "identity", field.peak(),
              field.average());
  std::printf("%s", thermal::render_heatmap(field, 32, 16).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Config cfg = Config::from_args(argc, argv);
    const std::string mode = cfg.get_string("mode", "plan");
    int rc = 2;
    if (mode == "plan") rc = mode_plan(cfg);
    else if (mode == "simulate") rc = mode_simulate(cfg);
    else if (mode == "sweep") rc = mode_sweep(cfg);
    else if (mode == "thermal") rc = mode_thermal(cfg);
    else if (mode == "topo") rc = mode_topo(cfg);
    else if (mode == "serve") rc = mode_serve(cfg);
    else {
      std::fprintf(stderr,
                   "unknown mode '%s' "
                   "(plan|simulate|sweep|thermal|topo|serve)\n",
                   mode.c_str());
      return 2;
    }
    // Every knob the mode understands has been queried by now; anything
    // left over is a typo (error out with a near-miss suggestion).  The
    // batch modes check before they run.
    cfg.reject_unknown();
    return rc;
  } catch (const std::exception& e) {
    std::fflush(stdout);  // keep the error after the mode's buffered output
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
