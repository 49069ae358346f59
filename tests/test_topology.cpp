// Tests for Algorithm 1 (topological sprinting), the region predicates,
// and the topology-agnostic core: graph generators, the documented text
// file format, up*/down* table routing, the channel-dependency-graph
// deadlock check, and the sprinting-network builder on non-mesh graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "common/snapshot.hpp"
#include "noc/simulator.hpp"
#include "noc/table_routing.hpp"
#include "noc/topology.hpp"
#include "sprint/cdor.hpp"
#include "sprint/network_builder.hpp"
#include "sprint/topology.hpp"

namespace nocs::sprint {
namespace {

TEST(SprintOrder, PaperFigure5aSequence) {
  // The paper's running example: 4x4 mesh, master at the top-left corner.
  // 8-core sprinting activates {0, 1, 4, 5, 2, 8, 6, 9} in that order
  // (Euclidean distances 0, 1, 1, sqrt2, 2, 2, sqrt5, sqrt5; ties by id).
  const MeshShape mesh(4, 4);
  const std::vector<NodeId> order = sprint_order(mesh, 0);
  const std::vector<NodeId> expect8 = {0, 1, 4, 5, 2, 8, 6, 9};
  ASSERT_GE(order.size(), 8u);
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(order[static_cast<std::size_t>(i)],
              expect8[static_cast<std::size_t>(i)])
        << "position " << i;
}

TEST(SprintOrder, PaperEuclideanVsHamming4Core) {
  // The paper's argument for Euclidean distance: at 4-core sprinting,
  // Euclidean picks node 5 (diagonal) while Hamming ordering (ties by
  // index) picks node 2.
  const MeshShape mesh(4, 4);
  const auto euclid = sprint_order(mesh, 0);
  const auto ham = sprint_order_hamming(mesh, 0);
  const std::set<NodeId> e4(euclid.begin(), euclid.begin() + 4);
  const std::set<NodeId> h4(ham.begin(), ham.begin() + 4);
  EXPECT_TRUE(e4.count(5));
  EXPECT_FALSE(e4.count(2));
  EXPECT_TRUE(h4.count(2));
  EXPECT_FALSE(h4.count(5));
  // And the paper's quality claim holds: the Euclidean set is tighter.
  EXPECT_LT(average_pairwise_distance(mesh, {e4.begin(), e4.end()}),
            average_pairwise_distance(mesh, {h4.begin(), h4.end()}));
}

class OrderSweep
    : public ::testing::TestWithParam<std::tuple<int, int, NodeId>> {};

TEST_P(OrderSweep, IsPermutationStartingAtMaster) {
  const auto [w, h, master_corner] = GetParam();
  const MeshShape mesh(w, h);
  // Translate corner index 0..3 to a node id.
  const NodeId master = std::vector<NodeId>{
      0, w - 1, w * (h - 1), w * h - 1}[static_cast<std::size_t>(
      master_corner)];
  const std::vector<NodeId> order = sprint_order(mesh, master);
  ASSERT_EQ(static_cast<int>(order.size()), mesh.size());
  EXPECT_EQ(order.front(), master);
  std::set<NodeId> unique(order.begin(), order.end());
  EXPECT_EQ(static_cast<int>(unique.size()), mesh.size());
}

TEST_P(OrderSweep, DistancesNonDecreasing) {
  const auto [w, h, master_corner] = GetParam();
  const MeshShape mesh(w, h);
  const NodeId master = std::vector<NodeId>{
      0, w - 1, w * (h - 1), w * h - 1}[static_cast<std::size_t>(
      master_corner)];
  const std::vector<NodeId> order = sprint_order(mesh, master);
  const Coord m = mesh.coord_of(master);
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_GE(euclidean_sq(mesh.coord_of(order[i]), m),
              euclidean_sq(mesh.coord_of(order[i - 1]), m));
}

TEST_P(OrderSweep, EveryPrefixIsConvex) {
  // The paper's claim: "chosen nodes would form a convex set in the
  // Euclidean space".
  const auto [w, h, master_corner] = GetParam();
  const MeshShape mesh(w, h);
  const NodeId master = std::vector<NodeId>{
      0, w - 1, w * (h - 1), w * h - 1}[static_cast<std::size_t>(
      master_corner)];
  const std::vector<NodeId> order = sprint_order(mesh, master);
  for (int k = 1; k <= mesh.size(); ++k) {
    const std::vector<NodeId> prefix(order.begin(), order.begin() + k);
    EXPECT_TRUE(is_convex_region(mesh, prefix))
        << "level " << k << " master " << master;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MeshesAndMasters, OrderSweep,
    ::testing::Combine(::testing::Values(2, 4, 5, 8),
                       ::testing::Values(2, 4, 6),
                       ::testing::Values(0, 1, 2, 3)));

TEST(SprintOrder, CornerMasterPrefixesAreStaircases) {
  // CDOR's structural requirement, checked here for the paper's top-left
  // master (other corners are handled by reflection inside CdorRouting).
  for (int w : {2, 4, 8}) {
    for (int h : {2, 4, 5}) {
      const MeshShape mesh(w, h);
      const std::vector<NodeId> order = sprint_order(mesh, 0);
      for (int k = 1; k <= mesh.size(); ++k) {
        const std::vector<NodeId> prefix(order.begin(), order.begin() + k);
        EXPECT_TRUE(is_staircase_region(mesh, prefix))
            << w << "x" << h << " level " << k;
      }
    }
  }
}

TEST(ActiveSet, PrefixOfOrder) {
  const MeshShape mesh(4, 4);
  const auto order = sprint_order(mesh, 0);
  for (int k = 1; k <= 16; ++k) {
    const auto set = active_set(mesh, k, 0);
    ASSERT_EQ(static_cast<int>(set.size()), k);
    for (int i = 0; i < k; ++i)
      EXPECT_EQ(set[static_cast<std::size_t>(i)],
                order[static_cast<std::size_t>(i)]);
  }
}

TEST(ConvexRegion, DetectsNonConvexSets) {
  const MeshShape mesh(4, 4);
  // Nodes 0 and 2 without node 1 between them: not convex.
  EXPECT_FALSE(is_convex_region(mesh, {0, 2}));
  EXPECT_TRUE(is_convex_region(mesh, {0, 1, 2}));
  // An L-shape missing its inner corner is still convex by the hull test
  // only if no mesh node falls inside; {0,1,4} triangle is convex.
  EXPECT_TRUE(is_convex_region(mesh, {0, 1, 4}));
  // Diagonal without the off-diagonal nodes: hull contains none of the
  // integer interior points... 0=(0,0), 5=(1,1): segment passes no other
  // lattice point, so it is convex; add 10=(2,2) and the hull is a longer
  // diagonal, still missing no lattice point.
  EXPECT_TRUE(is_convex_region(mesh, {0, 5}));
  // A hollow square is not convex (center missing).
  EXPECT_FALSE(is_convex_region(mesh, {0, 2, 8, 10}));
}

TEST(StaircaseRegion, DetectsViolations) {
  const MeshShape mesh(4, 4);
  EXPECT_TRUE(is_staircase_region(mesh, {0}));
  EXPECT_TRUE(is_staircase_region(mesh, {0, 1, 4}));
  EXPECT_TRUE(is_staircase_region(mesh, {0, 1, 2, 3, 4, 5}));
  // Row 0 narrower than row 1: widths increase downward -> not staircase.
  EXPECT_FALSE(is_staircase_region(mesh, {0, 4, 5}));
  // Gap in a row -> not left-aligned.
  EXPECT_FALSE(is_staircase_region(mesh, {0, 2}));
  // Missing the master row entirely.
  EXPECT_FALSE(is_staircase_region(mesh, {4, 5}));
}

TEST(PairwiseDistance, HandComputed) {
  const MeshShape mesh(4, 4);
  // {0,1}: single pair at distance 1.
  EXPECT_DOUBLE_EQ(average_pairwise_distance(mesh, {0, 1}), 1.0);
  // {0,1,4}: pairs (0,1)=1, (0,4)=1, (1,4)=2 -> mean 4/3.
  EXPECT_NEAR(average_pairwise_distance(mesh, {0, 1, 4}), 4.0 / 3.0, 1e-12);
}

TEST(SprintOrderHamming, OrderedByManhattanDistance) {
  const MeshShape mesh(4, 4);
  const auto order = sprint_order_hamming(mesh, 0);
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_GE(manhattan(mesh.coord_of(order[i]), {0, 0}),
              manhattan(mesh.coord_of(order[i - 1]), {0, 0}));
}

// --- topology graph core ----------------------------------------------------

TEST(TopologyGraph, MeshGeneratorMatchesLegacyShape) {
  const noc::Topology t = noc::Topology::mesh(4, 4);
  EXPECT_TRUE(t.is_mesh());
  EXPECT_EQ(t.num_nodes(), 16);
  // 2 * (w*(h-1) + h*(w-1)) directed links = 48 on a 4x4.
  EXPECT_EQ(t.links().size(), 48u);
  const MeshShape shape(4, 4);
  for (NodeId id = 0; id < t.num_nodes(); ++id) {
    // Every mesh node keeps the full five-port complement (local + NESW)
    // so router arbitration loop bounds match the legacy construction.
    EXPECT_EQ(t.num_ports(id), 5);
    EXPECT_EQ(t.coord(id), shape.coord_of(id));
  }
  EXPECT_TRUE(t.connected());
}

TEST(TopologyGraph, GeneratorInvariants) {
  struct Case {
    const char* label;
    noc::Topology topo;
    std::size_t links;
    int degree;  // uniform out-degree (data links, excluding local port)
  };
  const Case cases[] = {
      {"torus4x4", noc::Topology::torus(4, 4), 64u, 4},
      {"ring16s4", noc::Topology::ring_circulant(16, 4), 64u, 4},
      {"hamming4x4", noc::Topology::hamming(4, 4), 96u, 6},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    EXPECT_FALSE(c.topo.is_mesh());
    EXPECT_EQ(c.topo.num_nodes(), 16);
    EXPECT_EQ(c.topo.links().size(), c.links);
    EXPECT_TRUE(c.topo.connected());
    for (NodeId id = 0; id < c.topo.num_nodes(); ++id)
      EXPECT_EQ(c.topo.out_degree(id), c.degree) << "node " << id;
    // Every directed link has its reverse (validate() enforces it, but
    // assert through the public index too).
    for (const noc::TopoLink& l : c.topo.links())
      EXPECT_GE(c.topo.port_to(l.dst, l.src), 0)
          << l.src << "->" << l.dst << " missing reverse";
  }
}

TEST(TopologyGraph, RingCirculantDiameterChordEmittedOnce) {
  // skip == n/2: each chord is its own reverse pair, so 16 ring pairs
  // (32 directed) plus 8 chords (16 directed) = 48 directed links.
  const noc::Topology t = noc::Topology::ring_circulant(16, 8);
  EXPECT_EQ(t.links().size(), 48u);
  for (NodeId id = 0; id < t.num_nodes(); ++id)
    EXPECT_EQ(t.out_degree(id), 3);
  EXPECT_TRUE(t.connected());
}

TEST(TopologyGraph, FingerprintDiscriminates) {
  const noc::Topology a = noc::Topology::mesh(4, 4);
  const noc::Topology b = noc::Topology::mesh(4, 4);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), noc::Topology::torus(4, 4).fingerprint());
  EXPECT_NE(a.fingerprint(), noc::Topology::mesh(8, 2).fingerprint());
}

// --- text file format -------------------------------------------------------

TEST(TopologyFile, ParseAndRoundTrip) {
  const std::string text =
      "# triangle with a slow spur\n"
      "topology demo\n"
      "nodes 4\n"
      "node 0 0 0\n"
      "node 1 1 0\n"
      "node 2 0 1\n"
      "node 3 2 0\n"
      "link 0 1\n"
      "link 1 2\n"
      "link 0 2\n"
      "link 1 3 latency 3 width 2\n";
  const noc::Topology t = noc::Topology::parse(text);
  EXPECT_EQ(t.kind(), "file:demo");
  EXPECT_EQ(t.num_nodes(), 4);
  EXPECT_EQ(t.links().size(), 8u);
  EXPECT_TRUE(t.connected());
  EXPECT_EQ(t.coord(3), (Coord{2, 0}));
  const noc::TopoLink* spur = nullptr;
  for (const noc::TopoLink& l : t.links())
    if (l.src == 1 && l.dst == 3) spur = &l;
  ASSERT_NE(spur, nullptr);
  EXPECT_EQ(spur->latency, 3);
  EXPECT_EQ(spur->width, 2);
  // Round trip: the emitted text re-parses to the same graph.
  const noc::Topology back = noc::Topology::parse(t.to_text());
  EXPECT_EQ(back.fingerprint(), t.fingerprint());
}

TEST(TopologyFile, MalformedInputsRejected) {
  using noc::Topology;
  // Unknown directive.
  EXPECT_THROW(Topology::parse("nodes 2\nnode 0 0 0\nnode 1 1 0\nfoo\n"),
               std::invalid_argument);
  // Link before the nodes directive.
  EXPECT_THROW(Topology::parse("link 0 1\n"), std::invalid_argument);
  // Endpoint out of range.
  EXPECT_THROW(
      Topology::parse("nodes 2\nnode 0 0 0\nnode 1 1 0\nlink 0 5\n"),
      std::invalid_argument);
  // Self link.
  EXPECT_THROW(
      Topology::parse("nodes 2\nnode 0 0 0\nnode 1 1 0\nlink 0 0\n"),
      std::invalid_argument);
  // Duplicate node definition.
  EXPECT_THROW(Topology::parse("nodes 2\nnode 0 0 0\nnode 0 1 0\n"),
               std::invalid_argument);
  // Node never defined.
  EXPECT_THROW(Topology::parse("nodes 2\nnode 0 0 0\nlink 0 1\n"),
               std::invalid_argument);
  // Bad latency value.
  EXPECT_THROW(Topology::parse("nodes 2\nnode 0 0 0\nnode 1 1 0\n"
                               "link 0 1 latency 0\n"),
               std::invalid_argument);
  // A oneway link with no reverse fails validation (wormhole credits need
  // the return channel).
  EXPECT_THROW(Topology::parse("nodes 2\nnode 0 0 0\nnode 1 1 0\n"
                               "link 0 1 oneway\n"),
               std::invalid_argument);
  // Disconnected graph.
  EXPECT_THROW(Topology::parse("nodes 4\nnode 0 0 0\nnode 1 1 0\n"
                               "node 2 2 0\nnode 3 3 0\n"
                               "link 0 1\nlink 2 3\n"),
               std::invalid_argument);
}

// --- generalized sprint order ----------------------------------------------

TEST(SprintOrderTopology, MeshDispatchMatchesLegacyOrder) {
  const MeshShape mesh(4, 4);
  const noc::Topology topo = noc::Topology::mesh(4, 4);
  for (NodeId master : {0, 3, 12, 15})
    EXPECT_EQ(sprint_order(topo, master), sprint_order(mesh, master));
}

TEST(SprintOrderTopology, PrefixesConnectedOnAllBuiltins) {
  const noc::Topology topos[] = {
      noc::Topology::mesh(4, 4), noc::Topology::torus(4, 4),
      noc::Topology::ring_circulant(16, 4), noc::Topology::hamming(4, 4)};
  for (const noc::Topology& t : topos) {
    SCOPED_TRACE(t.kind());
    const std::vector<NodeId> order = sprint_order(t, 0);
    ASSERT_EQ(static_cast<int>(order.size()), t.num_nodes());
    EXPECT_EQ(order.front(), 0);
    const std::set<NodeId> unique(order.begin(), order.end());
    EXPECT_EQ(static_cast<int>(unique.size()), t.num_nodes());
    for (int k = 1; k <= t.num_nodes(); ++k) {
      const std::vector<NodeId> prefix(order.begin(), order.begin() + k);
      EXPECT_TRUE(t.connected_subgraph(prefix)) << "level " << k;
    }
  }
}

// --- deadlock freedom across topologies and sprint levels -------------------

TEST(DeadlockCheck, EveryBuiltinTopologyAtEveryLevel) {
  const noc::Topology topos[] = {
      noc::Topology::mesh(4, 4), noc::Topology::torus(4, 4),
      noc::Topology::ring_circulant(16, 4),
      noc::Topology::ring_circulant(16, 8), noc::Topology::hamming(4, 4)};
  for (const noc::Topology& t : topos) {
    SCOPED_TRACE(t.kind());
    for (int level = 2; level <= t.num_nodes(); ++level) {
      const std::vector<NodeId> active = active_set(t, level, 0);
      std::unique_ptr<noc::RoutingPolicy> policy;
      if (t.is_mesh()) {
        policy = std::make_unique<CdorRouting>(t.mesh_shape(), active, 0);
      } else {
        policy = std::make_unique<noc::TableRouting>(
            noc::TableRouting::up_down(t, active, 0));
      }
      const noc::DeadlockCheckResult res =
          noc::check_deadlock_free(t, *policy, active);
      EXPECT_TRUE(res.ok) << "level " << level << ": " << res.detail;
    }
  }
  // Dimension-order routing on the full mesh (the full-sprinting baseline
  // and its YX ablation).
  const noc::Topology mesh = noc::Topology::mesh(4, 4);
  auto check_full_mesh = [&](const noc::RoutingPolicy& policy) {
    const noc::DeadlockCheckResult res = noc::check_deadlock_free(
        mesh, policy, mesh.mesh_shape().all_nodes());
    EXPECT_TRUE(res.ok) << policy.name() << ": " << res.detail;
  };
  check_full_mesh(noc::XyRouting{});
  check_full_mesh(noc::YxRouting{});
}

TEST(DeadlockCheck, UpDownRejectsDisconnectedActiveSet) {
  const noc::Topology t = noc::Topology::ring_circulant(16, 4);
  // {0, 2} is disconnected in the active subgraph (no direct edge).
  EXPECT_THROW(noc::TableRouting::up_down(t, {0, 2}, 0),
               std::invalid_argument);
}

// --- the sprinting-network builder on non-mesh graphs -----------------------

TEST(TopologyBuilder, NonMeshLevelsSimulateCleanly) {
  noc::NetworkParams params;
  params.width = 16;
  params.height = 1;
  const noc::Topology topo = noc::Topology::ring_circulant(16, 4);
  noc::SimConfig sim;
  sim.warmup = 500;
  sim.measure = 2000;
  sim.injection_rate = 0.1;
  for (int level : {2, 5, 16}) {
    SCOPED_TRACE(level);
    const NetworkBundle b = make_sprinting_network(
        params, topo, NetworkScheme::kNoc, level, "uniform", 7);
    EXPECT_TRUE(require_deadlock_free(b, level).ok);
    const noc::SimResults r = noc::run_simulation(*b.network, sim);
    EXPECT_GT(r.packets_ejected, 0u);
    EXPECT_FALSE(r.saturated);
  }
}

TEST(TopologyBuilder, SnapshotFingerprintGuardsTopologyMismatch) {
  // A checkpoint taken on one topology must refuse to load into a network
  // built over a different graph.
  noc::NetworkParams params;
  params.width = 16;
  params.height = 1;
  const noc::Topology ring = noc::Topology::ring_circulant(16, 4);
  const noc::Topology ham = noc::Topology::hamming(4, 4);
  NetworkBundle a = make_sprinting_network(params, ring, NetworkScheme::kNoc,
                                           16, "uniform", 1);
  NetworkBundle b = make_sprinting_network(params, ham, NetworkScheme::kNoc,
                                           16, "uniform", 1);
  for (int i = 0; i < 100; ++i) a.network->tick();
  snapshot::Writer w;
  a.network->save_state(w);
  snapshot::Reader r(w.bytes());
  EXPECT_THROW(b.network->load_state(r), snapshot::SnapshotError);
}

}  // namespace
}  // namespace nocs::sprint
