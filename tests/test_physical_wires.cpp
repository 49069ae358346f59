// Tests for the physical wire model (floorplan link lengths/latencies).
#include <gtest/gtest.h>

#include "noc/simulator.hpp"
#include "sprint/floorplanner.hpp"
#include "sprint/network_builder.hpp"
#include "sprint/physical_wires.hpp"

namespace nocs::sprint {
namespace {

TEST(PhysicalWires, IdentityLinksAreOnePitch) {
  const MeshShape mesh(4, 4);
  WireParams wires;
  const PhysicalWires phys(mesh, identity_floorplan(mesh).positions, wires);
  EXPECT_DOUBLE_EQ(phys.link_length_mm(0, 1), wires.node_pitch_mm);
  EXPECT_DOUBLE_EQ(phys.link_length_mm(5, 9), wires.node_pitch_mm);
  EXPECT_DOUBLE_EQ(phys.average_link_length_mm(), wires.node_pitch_mm);
  EXPECT_EQ(phys.link_latency(0, 1), 1);
}

TEST(PhysicalWires, FloorplanStretchesLinks) {
  const MeshShape mesh(4, 4);
  WireParams wires;
  const auto fp = thermal_aware_floorplan(mesh, 0);
  const PhysicalWires phys(mesh, fp.positions, wires);
  EXPECT_GT(phys.average_link_length_mm(), wires.node_pitch_mm);
  EXPECT_GT(phys.max_link_length_mm(), 2.0 * wires.node_pitch_mm);
  // Logical link 0-1 now spans corner-to-corner (slots 0 and 15).
  EXPECT_NEAR(phys.link_length_mm(0, 1),
              euclidean({0, 0}, {3, 3}) * wires.node_pitch_mm, 1e-9);
}

TEST(PhysicalWires, ConventionalLatencyCeils) {
  const MeshShape mesh(2, 2);
  WireParams wires;
  wires.node_pitch_mm = 3.0;
  wires.mm_per_cycle = 3.5;
  // Swap two nodes so one link spans 2 pitches (6mm -> 2 cycles).
  const PhysicalWires phys(mesh, {0, 3, 2, 1}, wires);
  EXPECT_EQ(phys.link_latency(0, 2), 1);  // logical 0-2: slots 0->2, 1 pitch
  // Logical 0-1: slots 0 -> 3 = sqrt(2) pitches = 4.24mm -> 2 cycles.
  EXPECT_EQ(phys.link_latency(0, 1), 2);
}

TEST(PhysicalWires, SmartCollapsesToOneCycle) {
  const MeshShape mesh(4, 4);
  WireParams smart;
  smart.smart_max_pitches = 8;
  const auto fp = thermal_aware_floorplan(mesh, 0);
  const PhysicalWires phys(mesh, fp.positions, smart);
  for (NodeId id = 0; id < 16; ++id) {
    const Coord c = mesh.coord_of(id);
    for (Port p : {Port::kEast, Port::kSouth}) {
      if (!mesh.contains(step(c, p))) continue;
      EXPECT_EQ(phys.link_latency(id, mesh.id_of(step(c, p))), 1);
    }
  }
}

TEST(PhysicalWires, SmartWithSmallReachStillMultiCycle) {
  const MeshShape mesh(4, 4);
  WireParams smart;
  smart.smart_max_pitches = 2;
  const auto fp = thermal_aware_floorplan(mesh, 0);
  const PhysicalWires phys(mesh, fp.positions, smart);
  // Link 0-1 spans sqrt(18) ~ 4.24 pitches -> ceil(4.24/2) = 3 cycles.
  EXPECT_EQ(phys.link_latency(0, 1), 3);
}

TEST(PhysicalWires, RejectsNonAdjacentQueries) {
  const MeshShape mesh(4, 4);
  const PhysicalWires phys(mesh, identity_floorplan(mesh).positions,
                           WireParams{});
  EXPECT_DEATH(phys.link_length_mm(0, 2), "precondition");
  EXPECT_DEATH(phys.link_length_mm(0, 5), "precondition");
}

TEST(PhysicalWires, RejectsNonPermutationPositions) {
  const MeshShape mesh(2, 2);
  EXPECT_DEATH(PhysicalWires(mesh, {0, 0, 1, 2}, WireParams{}),
               "precondition");
}

/// NoC-sprinting network on the default mesh with link latencies from the
/// floorplan `positions` under `wires`.
NetworkBundle floorplanned(const noc::NetworkParams& params, int level,
                           std::uint64_t seed,
                           const std::vector<int>& positions,
                           const WireParams& wires) {
  const PhysicalWires phys(params.shape(), positions, wires);
  return make_sprinting_network(
      params, noc::Topology::mesh(params.width, params.height),
      NetworkScheme::kNoc, level, "uniform", seed, 0, phys.latency_fn());
}

TEST(FloorplannedNetwork, SlowerWiresSlowerNetwork) {
  noc::NetworkParams params;
  const MeshShape mesh = params.shape();
  const auto fp = thermal_aware_floorplan(mesh, 0);
  noc::SimConfig cfg;
  cfg.warmup = 500;
  cfg.measure = 3000;
  cfg.injection_rate = 0.1;

  WireParams conventional;
  auto slow = floorplanned(params, 4, 3, fp.positions, conventional);
  const double slow_lat =
      run_simulation(*slow.network, cfg).avg_packet_latency;

  WireParams smart;
  smart.smart_max_pitches = 8;
  auto fast = floorplanned(params, 4, 3, fp.positions, smart);
  const double fast_lat =
      run_simulation(*fast.network, cfg).avg_packet_latency;

  EXPECT_GT(slow_lat, fast_lat + 1.0);
}

TEST(FloorplannedNetwork, SmartOnIdentityMatchesPlainNetwork) {
  noc::NetworkParams params;
  const MeshShape mesh = params.shape();
  noc::SimConfig cfg;
  cfg.warmup = 500;
  cfg.measure = 3000;
  cfg.injection_rate = 0.1;

  auto plain = make_noc_sprinting_network(params, 4, "uniform", 9);
  const double plain_lat =
      run_simulation(*plain.network, cfg).avg_packet_latency;

  auto ident =
      floorplanned(params, 4, 9, identity_floorplan(mesh).positions,
                   WireParams{});
  const double ident_lat =
      run_simulation(*ident.network, cfg).avg_packet_latency;

  EXPECT_DOUBLE_EQ(plain_lat, ident_lat);
}

TEST(Network, LinkLatencyAccessor) {
  noc::NetworkParams params;
  noc::XyRouting xy;
  noc::Network net(params, &xy,
                   [](NodeId from, NodeId to) { return from + to > 10 ? 3 : 1; });
  EXPECT_EQ(net.link_latency(0, 1), 1);
  EXPECT_EQ(net.link_latency(14, 15), 3);
  EXPECT_DEATH(net.link_latency(0, 5), "precondition");  // not adjacent
}

}  // namespace
}  // namespace nocs::sprint
