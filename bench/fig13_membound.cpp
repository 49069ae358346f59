// Figure 13 (extension) — sprint-level selection when the workload is
// DRAM-bound.
//
// The paper's Algorithm 1 picks how many cores to sprint with by asking
// which level minimizes execution time (Fig. 7) or energy under the power
// budget.  Its workloads are compute/NoC-bound; this experiment asks the
// same question for a tile-transfer workload in the DRAM-bound regime:
// per layer, group leaders fetch weights from the edge DRAM controllers,
// broadcast them across their tile group (tree multicast), tiles stream
// activations to the next group, and leaders write results back.  When
// the edge controllers are the bottleneck, sprinting more tiles adds
// leakage and replication power without shortening the critical DRAM
// serialization — so the time- and energy-optimal levels separate.
//
// Per sprint level the bench reports completion time, average NoC power,
// energy, and the DRAM/queue statistics, then the level Algorithm 1
// would select for time and for energy.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/trace.hpp"
#include "mem/mem_params.hpp"
#include "mem/mem_subsystem.hpp"
#include "mem/tile_driver.hpp"
#include "mem/tile_schedule.hpp"
#include "noc/routing.hpp"
#include "power/noc_power.hpp"
#include "sprint/topology.hpp"

using namespace nocs;

namespace {

struct LevelResult {
  int level = 0;
  bool finished = false;
  Cycle cycles = 0;
  double power_w = 0.0;
  double energy_j = 0.0;
  double mcast_repl_w = 0.0;
  mem::MemCounters mem_counters;
  std::uint64_t weight_mcasts = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = bench::parse_config(argc, argv);
  noc::NetworkParams net = bench::network_params(cfg);
  // Requests (class 0) and replies/data (class 1) need separate virtual
  // networks — the standard protocol-deadlock guard.
  net.num_classes = 2;
  net.validate();
  bench::banner("Figure 13: sprint-level selection, DRAM-bound tile transfer",
                "edge DRAM controllers + multicast weight broadcast; "
                "time- vs energy-optimal sprint level",
                net);

  mem::MemParams mp = mem::MemParams::from_config(cfg);
  if (mp.ctrls == 0) mp.ctrls = 4;  // the bench needs DRAM to be bound by
  const bool multicast = cfg.get_bool("multicast", true);
  const int tile_groups = static_cast<int>(cfg.get_int("tile_groups", 4));
  const int threads = static_cast<int>(cfg.get_int("threads", 1));
  const Cycle max_cycles =
      static_cast<Cycle>(cfg.get_int("max_cycles", 2'000'000));
  const mem::TileSchedule sched =
      mem::TileSchedule::parse(cfg.get_string(
          "schedule", mem::TileSchedule::example().to_string()));

  std::vector<int> levels;
  for (int l : {1, 2, 4, 8, 16})
    if (l <= net.num_nodes()) levels.push_back(l);

  const std::string trace_path = cfg.get_string("trace", "");
  if (!trace_path.empty()) trace::begin(trace_path);

  const power::RouterPowerParams rp =
      power::RouterPowerParams::from_network(net);
  const MeshShape shape = net.shape();
  const noc::XyRouting xy;

  std::printf("schedule: %s   controllers: %d (%s)   multicast: %s\n\n",
              sched.to_string().c_str(), mp.ctrls,
              mem::to_string(mp.placement), multicast ? "tree" : "unicast");

  std::vector<LevelResult> results;
  for (int level : levels) {
    noc::Network network(net, &xy);
    if (threads > 1) network.set_sim_threads(threads);
    const std::vector<NodeId> active = sprint::active_set(shape, level);
    const std::vector<NodeId> sites =
        mem::controller_sites(shape, mp.ctrls, mp.placement);
    network.gate_dark_region(mem::powered_closure(shape, active, sites));

    mem::MemSubsystem mem_sys(network, mp);
    mem::TileTransferDriver driver(
        network, mem_sys, sched,
        mem::partition_groups(active, std::min(tile_groups, level)),
        {.multicast = multicast, .chunk_flits = 0});
    driver.install();

    while (!driver.done() && network.now() < max_cycles) network.tick();
    driver.uninstall();

    LevelResult r;
    r.level = level;
    r.finished = driver.done();
    r.cycles = driver.finished_at();
    if (r.finished && r.cycles > 0) {
      const power::NocPowerEstimate est =
          power::estimate_noc_power(network, r.cycles);
      r.power_w = est.total();
      r.mcast_repl_w = est.mcast_replication;
      r.energy_j =
          r.power_w * static_cast<double>(r.cycles) / rp.op.frequency;
    }
    r.mem_counters = mem_sys.total_counters();
    r.weight_mcasts = driver.counters().weight_mcasts;
    results.push_back(r);
    if (!r.finished)
      std::fprintf(stderr, "level %d did not finish within %llu cycles\n",
                   level, static_cast<unsigned long long>(max_cycles));
  }

  if (!trace_path.empty()) trace::end();

  Table t({"level", "cycles", "power (mW)", "energy (uJ)", "DRAM rd/wr",
           "queue peak", "mcast sends"});
  int best_time = -1, best_energy = -1;
  for (const LevelResult& r : results) {
    if (!r.finished) continue;
    if (best_time < 0 || r.cycles < results[static_cast<std::size_t>(
                                        best_time)].cycles)
      best_time = static_cast<int>(&r - results.data());
    if (best_energy < 0 ||
        r.energy_j <
            results[static_cast<std::size_t>(best_energy)].energy_j)
      best_energy = static_cast<int>(&r - results.data());
    t.add_row({Table::fmt(static_cast<long long>(r.level)),
               Table::fmt(static_cast<long long>(r.cycles)),
               Table::fmt(r.power_w * 1e3, 2),
               Table::fmt(r.energy_j * 1e6, 2),
               Table::fmt(static_cast<long long>(r.mem_counters.reads)) +
                   "/" +
                   Table::fmt(static_cast<long long>(r.mem_counters.writes)),
               Table::fmt(static_cast<long long>(r.mem_counters.queue_peak)),
               Table::fmt(static_cast<long long>(r.weight_mcasts))});
  }
  t.print();

  if (best_time >= 0 && best_energy >= 0) {
    bench::headline(
        "Algorithm 1 selection (DRAM-bound)",
        "time- and energy-optimal levels separate when DRAM binds",
        "time-optimal level = " +
            std::to_string(results[static_cast<std::size_t>(best_time)]
                               .level) +
            ", energy-optimal level = " +
            std::to_string(results[static_cast<std::size_t>(best_energy)]
                               .level));
  }

  json::Value rows = json::Value::array();
  for (const LevelResult& r : results) {
    json::Value row = json::Value::object();
    row.set("level", r.level);
    row.set("finished", r.finished);
    row.set("cycles", static_cast<std::uint64_t>(r.cycles));
    row.set("power_w", r.power_w);
    row.set("energy_j", r.energy_j);
    row.set("mcast_replication_w", r.mcast_repl_w);
    row.set("dram_reads", r.mem_counters.reads);
    row.set("dram_writes", r.mem_counters.writes);
    row.set("queue_peak", r.mem_counters.queue_peak);
    row.set("weight_mcasts", r.weight_mcasts);
    rows.push_back(std::move(row));
  }
  json::Value doc = json::Value::object();
  doc.set("figure", "fig13_membound");
  doc.set("config", bench::to_json(net));
  doc.set("schedule", sched.to_string());
  doc.set("mem_ctrls", mp.ctrls);
  doc.set("multicast", multicast);
  doc.set("levels", std::move(rows));
  if (best_time >= 0)
    doc.set("time_optimal_level",
            results[static_cast<std::size_t>(best_time)].level);
  if (best_energy >= 0)
    doc.set("energy_optimal_level",
            results[static_cast<std::size_t>(best_energy)].level);
  bench::maybe_write_report(cfg, std::move(doc));

  // bench_json= merges the headline numbers into BENCH_noc.json next to
  // micro_perf's keys (CI uploads the combined file).
  const std::string bench_json = cfg.get_string("bench_json", "");
  if (!bench_json.empty()) {
    std::vector<std::pair<std::string, double>> metrics;
    for (const LevelResult& r : results) {
      if (!r.finished) continue;
      const std::string prefix =
          "fig13.level" + std::to_string(r.level);
      metrics.emplace_back(prefix + ".cycles",
                           static_cast<double>(r.cycles));
      metrics.emplace_back(prefix + ".energy_uj", r.energy_j * 1e6);
    }
    if (best_time >= 0)
      metrics.emplace_back(
          "fig13.time_optimal_level",
          results[static_cast<std::size_t>(best_time)].level);
    if (best_energy >= 0)
      metrics.emplace_back(
          "fig13.energy_optimal_level",
          results[static_cast<std::size_t>(best_energy)].level);
    bench::merge_bench_json(bench_json, metrics);
    std::printf("bench metrics merged into %s\n", bench_json.c_str());
  }
  return 0;
}
