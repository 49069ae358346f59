// Figure 14 (extension) — Algorithm 1 sprint-set selection on arbitrary
// topologies.
//
// The paper evaluates NoC-sprinting on a 4x4 mesh only.  With the
// topology-agnostic core (noc::Topology + RoutingPolicy) the same
// powered-closure selection runs on any connected graph: per topology the
// generalized Algorithm 1 grows a connected sprint region by floorplan
// distance, routing is CDOR on the mesh and up*/down* tables elsewhere,
// and every (topology, level) pair must pass the channel-dependency-graph
// deadlock check before a single flit moves.
//
// The sweep compares the mesh against a ring-circulant (sparser, cheaper
// wiring) and a Hamming/rook's graph (denser, richer path diversity) under
// uniform traffic and under a DRAM-bound analogue (hotspot at the master,
// modeling memory-controller pressure), and reports the level Algorithm 1
// would select for time and for energy on each graph.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "noc/topology.hpp"
#include "power/router_power.hpp"
#include "sprint/scenario.hpp"

using namespace nocs;

namespace {

struct RunResult {
  int level = 0;
  std::string traffic;
  double latency = 0.0;
  bool saturated = false;
  double power_w = 0.0;
  double energy_j = 0.0;
  int deadlock_channels = 0;
  int deadlock_deps = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = bench::parse_config(argc, argv);
  const noc::NetworkParams mesh_net = bench::network_params(cfg);
  bench::banner("Figure 14: sprint-set selection across topologies",
                "generalized Algorithm 1 + deadlock-checked routing on "
                "mesh, ring-circulant, and Hamming graphs",
                mesh_net);

  const int n = mesh_net.num_nodes();
  const std::uint64_t seed = cfg.get_int("seed", 7);
  const int ring_skip = static_cast<int>(cfg.get_int("ring_skip", 4));
  sprint::DesignPoint point;
  point.seed = seed;
  point.sim.warmup = 2000;
  point.sim.measure = 8000;
  point.sim.drain_max = 40000;
  point.sim.injection_rate = cfg.get_double("injection_rate", 0.10);

  std::vector<int> levels;
  for (int l : {2, 4, 8, 16})
    if (l <= n) levels.push_back(l);
  const std::vector<std::string> traffics = {"uniform", "hotspot"};

  const power::RouterPowerParams rp =
      power::RouterPowerParams::from_network(mesh_net);

  struct TopoCase {
    std::string label;
    noc::Topology topo;
    noc::NetworkParams params;
  };
  // Non-mesh graphs use a 1 x n NetworkParams: only num_nodes() matters to
  // the topology constructor, and the power model keys off per-node degree.
  noc::NetworkParams flat_net = mesh_net;
  flat_net.width = n;
  flat_net.height = 1;
  std::vector<TopoCase> cases;
  cases.push_back({"mesh", noc::Topology::mesh(mesh_net.width,
                                               mesh_net.height),
                   mesh_net});
  cases.push_back({"ring_circulant",
                   noc::Topology::ring_circulant(n, ring_skip), flat_net});
  cases.push_back({"hamming",
                   noc::Topology::hamming(mesh_net.height, mesh_net.width),
                   flat_net});

  json::Value topo_docs = json::Value::array();
  std::vector<std::pair<std::string, double>> metrics;
  int deadlock_passes = 0, deadlock_total = 0;

  for (const TopoCase& tc : cases) {
    std::printf("\n--- topology: %s (%d nodes, %zu directed links) ---\n",
                tc.label.c_str(), tc.topo.num_nodes(),
                tc.topo.links().size());
    std::vector<RunResult> rows;
    for (int level : levels) {
      for (const std::string& traffic : traffics) {
        sprint::DesignPoint p = point;
        p.params = tc.params;
        p.topology = tc.topo;
        p.level = level;
        p.traffic = traffic;
        const sprint::TaskRun t = sprint::run_point(p);
        ++deadlock_total;
        if (t.deadlock.ok) ++deadlock_passes;
        RunResult row;
        row.level = level;
        row.traffic = traffic;
        row.latency = t.results.avg_packet_latency;
        row.saturated = t.results.saturated;
        row.power_w = t.power.total();
        row.energy_j = row.power_w * static_cast<double>(t.results.cycles) /
                       rp.op.frequency;
        row.deadlock_channels = t.deadlock.channels_used;
        row.deadlock_deps = t.deadlock.dependencies;
        rows.push_back(std::move(row));
      }
    }

    Table t({"level", "traffic", "latency (cyc)", "power (mW)",
             "energy (uJ)", "CDG chans", "CDG deps", "routing"});
    for (const RunResult& r : rows)
      t.add_row({Table::fmt(static_cast<long long>(r.level)), r.traffic,
                 r.saturated ? "sat" : Table::fmt(r.latency, 2),
                 Table::fmt(r.power_w * 1e3, 2),
                 Table::fmt(r.energy_j * 1e6, 2),
                 Table::fmt(static_cast<long long>(r.deadlock_channels)),
                 Table::fmt(static_cast<long long>(r.deadlock_deps)),
                 tc.topo.is_mesh() ? "cdor" : "updown"});
    t.print();

    json::Value topo_doc = json::Value::object();
    topo_doc.set("topology", tc.label);
    topo_doc.set("links", static_cast<std::uint64_t>(tc.topo.links().size()));
    json::Value row_docs = json::Value::array();
    for (const std::string& traffic : traffics) {
      int best_time = -1, best_energy = -1;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const RunResult& r = rows[i];
        if (r.traffic != traffic || r.saturated) continue;
        if (best_time < 0 ||
            r.latency < rows[static_cast<std::size_t>(best_time)].latency)
          best_time = static_cast<int>(i);
        if (best_energy < 0 ||
            r.energy_j <
                rows[static_cast<std::size_t>(best_energy)].energy_j)
          best_energy = static_cast<int>(i);
      }
      if (best_time >= 0) {
        const int lvl = rows[static_cast<std::size_t>(best_time)].level;
        metrics.emplace_back(
            "fig14." + tc.label + "." + traffic + ".time_optimal_level",
            lvl);
        topo_doc.set(traffic + "_time_optimal_level", lvl);
      }
      if (best_energy >= 0) {
        const int lvl = rows[static_cast<std::size_t>(best_energy)].level;
        metrics.emplace_back(
            "fig14." + tc.label + "." + traffic + ".energy_optimal_level",
            lvl);
        topo_doc.set(traffic + "_energy_optimal_level", lvl);
      }
    }
    for (const RunResult& r : rows) {
      json::Value row = json::Value::object();
      row.set("level", r.level);
      row.set("traffic", r.traffic);
      row.set("latency", r.latency);
      row.set("saturated", r.saturated);
      row.set("power_w", r.power_w);
      row.set("energy_j", r.energy_j);
      row.set("cdg_channels", r.deadlock_channels);
      row.set("cdg_dependencies", r.deadlock_deps);
      row_docs.push_back(std::move(row));
      if (!r.saturated)
        metrics.emplace_back("fig14." + tc.label + ".level" +
                                 std::to_string(r.level) + "." + r.traffic +
                                 ".latency",
                             r.latency);
    }
    topo_doc.set("runs", std::move(row_docs));
    topo_docs.push_back(std::move(topo_doc));
  }

  bench::headline(
      "deadlock checks passed (topology x level x traffic)",
      "all (the check gates construction)",
      Table::fmt(static_cast<long long>(deadlock_passes)) + " of " +
          Table::fmt(static_cast<long long>(deadlock_total)));

  json::Value doc = json::Value::object();
  doc.set("figure", "fig14_topology_sprint");
  doc.set("config", bench::to_json(mesh_net));
  doc.set("seed", static_cast<std::uint64_t>(seed));
  doc.set("ring_skip", ring_skip);
  doc.set("injection_rate", point.sim.injection_rate);
  doc.set("topologies", std::move(topo_docs));
  bench::maybe_write_report(cfg, std::move(doc));

  const std::string bench_json = cfg.get_string("bench_json", "");
  if (!bench_json.empty()) {
    bench::merge_bench_json(bench_json, metrics);
    std::printf("bench metrics merged into %s\n", bench_json.c_str());
  }
  return 0;
}
