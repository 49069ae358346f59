// Tests for Algorithm 2 — CDOR convex dimension-order routing: delivery,
// containment in the active region, minimal-progress bounds, the paper's
// NE-turn example, deadlock freedom via channel-dependency-graph analysis,
// and equivalence with XY-DOR on the full mesh.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "sprint/cdor.hpp"
#include "sprint/topology.hpp"

namespace nocs::sprint {
namespace {

/// The port `rf` picks at `cur` toward `dst` on the mesh `topo`.
Port route(const noc::RoutingPolicy& rf, const noc::Topology& topo, Coord cur,
           Coord dst) {
  const MeshShape mesh = topo.mesh_shape();
  return static_cast<Port>(
      rf.route_port(topo, mesh.id_of(cur), mesh.id_of(dst)));
}

/// Walks a CDOR route, asserting every intermediate node is active and the
/// walk terminates; returns the visited coordinates (including endpoints).
std::vector<Coord> walk(const CdorRouting& rf, const noc::Topology& topo,
                        Coord src, Coord dst) {
  const MeshShape mesh = topo.mesh_shape();
  std::vector<Coord> path = {src};
  Coord cur = src;
  const int budget = 3 * (mesh.width() + mesh.height());
  while (cur != dst) {
    const Port p = route(rf, topo, cur, dst);
    EXPECT_NE(p, Port::kLocal);
    cur = step(cur, p);
    EXPECT_TRUE(mesh.contains(cur));
    EXPECT_TRUE(rf.is_active(mesh.id_of(cur)))
        << "route entered dark node " << to_string(cur);
    path.push_back(cur);
    EXPECT_LE(static_cast<int>(path.size()), budget)
        << "livelock " << to_string(src) << "->" << to_string(dst);
    if (static_cast<int>(path.size()) > budget) return path;
  }
  return path;
}

class CdorSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CdorSweep, DeliversAllActivePairsInsideRegion) {
  const auto [w, h, corner] = GetParam();
  const MeshShape mesh(w, h);
  const noc::Topology topo = noc::Topology::mesh(w, h);
  const NodeId master = std::vector<NodeId>{
      0, w - 1, w * (h - 1), w * h - 1}[static_cast<std::size_t>(corner)];
  const std::vector<NodeId> order = sprint_order(mesh, master);
  for (int level = 1; level <= mesh.size(); ++level) {
    const std::vector<NodeId> active(order.begin(), order.begin() + level);
    const CdorRouting rf(mesh, active, master);
    for (NodeId s : active) {
      for (NodeId d : active) {
        if (s == d) {
          EXPECT_EQ(route(rf, topo, mesh.coord_of(s), mesh.coord_of(d)),
                    Port::kLocal);
          continue;
        }
        const auto path = walk(rf, topo, mesh.coord_of(s), mesh.coord_of(d));
        // The detour is bounded: at most one extra leg up to the master
        // row and back — never more than width+height hops total here.
        EXPECT_LE(static_cast<int>(path.size()) - 1, w + h);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MeshesMastersLevels, CdorSweep,
    ::testing::Combine(::testing::Values(2, 4, 6), ::testing::Values(2, 4, 5),
                       ::testing::Values(0, 1, 2, 3)));

TEST(Cdor, EqualsXyDorOnFullMesh) {
  const MeshShape mesh(4, 4);
  const noc::Topology topo = noc::Topology::mesh(4, 4);
  const CdorRouting cdor(mesh, mesh.all_nodes(), 0);
  const noc::XyRouting xy;
  for (NodeId s = 0; s < mesh.size(); ++s)
    for (NodeId d = 0; d < mesh.size(); ++d)
      EXPECT_EQ(cdor.route_port(topo, s, d), xy.route_port(topo, s, d))
          << s << "->" << d;
}

TEST(Cdor, MinimalWhenEastIsConnected) {
  // Within a full rectangle subset the route length equals Manhattan
  // distance (no detours needed).
  const MeshShape mesh(4, 4);
  const noc::Topology topo = noc::Topology::mesh(4, 4);
  const std::vector<NodeId> block = {0, 1, 4, 5};  // 2x2
  const CdorRouting rf(mesh, block, 0);
  for (NodeId s : block) {
    for (NodeId d : block) {
      if (s != d) {
        EXPECT_EQ(static_cast<int>(
                      walk(rf, topo, mesh.coord_of(s), mesh.coord_of(d))
                          .size()) - 1,
                  manhattan(mesh.coord_of(s), mesh.coord_of(d)));
      }
    }
  }
}

TEST(Cdor, PaperNeTurnExample) {
  // Paper Figure 5a: in the 8-core region {0,1,4,5,2,8,6,9}, routing from
  // node 9 (1,2) eastwards is blocked (node 10 dark), so the packet goes
  // north to node 5 and turns east there — the NE turn.
  const MeshShape mesh(4, 4);
  const noc::Topology topo = noc::Topology::mesh(4, 4);
  const CdorRouting rf(mesh, active_set(mesh, 8, 0), 0);
  EXPECT_FALSE(rf.connectivity_east(9));  // (2,2) is dark
  EXPECT_EQ(route(rf, topo, mesh.coord_of(9), mesh.coord_of(6)),
            Port::kNorth);
  // At node 5 (1,1) east is connected: the NE turn completes.
  EXPECT_TRUE(rf.connectivity_east(5));
  EXPECT_EQ(route(rf, topo, mesh.coord_of(5), mesh.coord_of(6)),
            Port::kEast);
  const auto path = walk(rf, topo, mesh.coord_of(9), mesh.coord_of(6));
  const std::vector<Coord> expect = {{1, 2}, {1, 1}, {2, 1}};
  EXPECT_EQ(path, expect);
}

TEST(Cdor, ConnectivityBits) {
  const MeshShape mesh(4, 4);
  const CdorRouting rf(mesh, active_set(mesh, 8, 0), 0);
  // Region rows: y=0 -> {0,1,2}, y=1 -> {4,5,6}, y=2 -> {8,9}.
  EXPECT_TRUE(rf.connectivity_east(0));
  EXPECT_TRUE(rf.connectivity_east(1));
  EXPECT_FALSE(rf.connectivity_east(2));   // node 3 dark
  EXPECT_TRUE(rf.connectivity_west(1));
  EXPECT_FALSE(rf.connectivity_west(0));   // mesh edge
  EXPECT_TRUE(rf.connectivity_east(8));
  EXPECT_FALSE(rf.connectivity_east(9));   // node 10 dark
  EXPECT_FALSE(rf.connectivity_east(15));  // dark node has no connectivity
}

class CdorDeadlock : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(CdorDeadlock, FreeByChannelDependencyGraph) {
  // Build the channel-dependency graph over directed links: for every
  // active (src,dst) pair, each consecutive link pair on the route adds a
  // dependency edge.  Deadlock freedom (Dally-Seitz) <=> the CDG is
  // acyclic.  Verify at every sprint level.
  const auto [w, h] = GetParam();
  const MeshShape mesh(w, h);
  const noc::Topology topo = noc::Topology::mesh(w, h);
  const std::vector<NodeId> order = sprint_order(mesh, 0);
  for (int level = 2; level <= mesh.size(); ++level) {
    const std::vector<NodeId> active(order.begin(), order.begin() + level);
    const CdorRouting rf(mesh, active, 0);

    using Link = std::pair<NodeId, NodeId>;
    std::map<Link, int> link_ids;
    std::vector<std::vector<int>> deps;
    auto link_id = [&](NodeId a, NodeId b) {
      const auto [it, inserted] =
          link_ids.try_emplace({a, b}, static_cast<int>(link_ids.size()));
      if (inserted) deps.emplace_back();
      return it->second;
    };

    for (NodeId s : active) {
      for (NodeId d : active) {
        if (s == d) continue;
        Coord cur = mesh.coord_of(s);
        const Coord dst = mesh.coord_of(d);
        int prev_link = -1;
        while (cur != dst) {
          const Coord next = step(cur, route(rf, topo, cur, dst));
          const int l = link_id(mesh.id_of(cur), mesh.id_of(next));
          if (prev_link >= 0)
            deps[static_cast<std::size_t>(prev_link)].push_back(l);
          prev_link = l;
          cur = next;
        }
      }
    }

    // DFS cycle detection.
    enum class Mark { kWhite, kGray, kBlack };
    std::vector<Mark> mark(deps.size(), Mark::kWhite);
    bool cyclic = false;
    std::function<void(int)> dfs = [&](int u) {
      mark[static_cast<std::size_t>(u)] = Mark::kGray;
      for (int v : deps[static_cast<std::size_t>(u)]) {
        if (mark[static_cast<std::size_t>(v)] == Mark::kGray) cyclic = true;
        else if (mark[static_cast<std::size_t>(v)] == Mark::kWhite) dfs(v);
        if (cyclic) return;
      }
      mark[static_cast<std::size_t>(u)] = Mark::kBlack;
    };
    for (int u = 0; u < static_cast<int>(deps.size()) && !cyclic; ++u)
      if (mark[static_cast<std::size_t>(u)] == Mark::kWhite) dfs(u);

    EXPECT_FALSE(cyclic) << "CDG cycle at sprint level " << level;
  }
}

INSTANTIATE_TEST_SUITE_P(Meshes, CdorDeadlock,
                         ::testing::Values(std::pair{4, 4}, std::pair{5, 3},
                                           std::pair{6, 6}, std::pair{8, 8}));

TEST(Cdor, ReflectedMastersRouteWithinRegion) {
  // Master at the bottom-right corner: the region grows toward the
  // top-left; routing must stay inside it (reflection correctness).
  const MeshShape mesh(4, 4);
  const noc::Topology topo = noc::Topology::mesh(4, 4);
  const NodeId master = 15;
  const std::vector<NodeId> active = active_set(mesh, 6, master);
  const CdorRouting rf(mesh, active, master);
  for (NodeId s : active)
    for (NodeId d : active)
      if (s != d) walk(rf, topo, mesh.coord_of(s), mesh.coord_of(d));
}

TEST(Cdor, RejectsNonStaircaseRegion) {
  const MeshShape mesh(4, 4);
  // {0, 2}: row gap — not a valid CDOR region.
  EXPECT_DEATH(CdorRouting(mesh, {0, 2}, 0), "precondition");
  // Master missing from the set.
  EXPECT_DEATH(CdorRouting(mesh, {1, 2}, 0), "precondition");
  // Master not a corner.
  EXPECT_DEATH(CdorRouting(mesh, {5, 6}, 5), "precondition");
}

TEST(Cdor, RejectsDarkEndpoints) {
  const MeshShape mesh(4, 4);
  const noc::Topology topo = noc::Topology::mesh(4, 4);
  const CdorRouting rf(mesh, active_set(mesh, 4, 0), 0);
  EXPECT_DEATH(rf.route_port(topo, 15, 0), "precondition");
  EXPECT_DEATH(rf.route_port(topo, 0, 15), "precondition");
}

TEST(Cdor, Name) {
  const MeshShape mesh(4, 4);
  const CdorRouting rf(mesh, active_set(mesh, 4, 0), 0);
  EXPECT_STREQ(rf.name(), "cdor");
}

}  // namespace
}  // namespace nocs::sprint
