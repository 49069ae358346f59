// Property tests for the baseline dimension-order routing policies.
#include <gtest/gtest.h>

#include "noc/routing.hpp"

namespace nocs::noc {
namespace {

/// The port `rf` picks at `cur` toward `dst` on the mesh `topo`.
Port route(const RoutingPolicy& rf, const Topology& topo, Coord cur,
           Coord dst) {
  const MeshShape mesh = topo.mesh_shape();
  return static_cast<Port>(
      rf.route_port(topo, mesh.id_of(cur), mesh.id_of(dst)));
}

/// Walks the route from src to dst, returning the hop count; fails the
/// test if the walk leaves the mesh or exceeds the hop budget.
int walk(const RoutingPolicy& rf, const Topology& topo, Coord src,
         Coord dst) {
  const MeshShape mesh = topo.mesh_shape();
  Coord cur = src;
  int hops = 0;
  const int budget = mesh.width() + mesh.height() + 2;
  while (cur != dst) {
    const Port p = route(rf, topo, cur, dst);
    EXPECT_NE(p, Port::kLocal) << "stalled at " << to_string(cur);
    cur = step(cur, p);
    EXPECT_TRUE(mesh.contains(cur));
    ++hops;
    EXPECT_LE(hops, budget) << "livelock from " << to_string(src) << " to "
                            << to_string(dst);
    if (hops > budget) break;
  }
  return hops;
}

class DorSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(DorSweep, XyDeliversAllPairsMinimally) {
  const auto [w, h] = GetParam();
  const MeshShape mesh(w, h);
  const Topology topo = Topology::mesh(w, h);
  const XyRouting xy;
  for (NodeId s = 0; s < mesh.size(); ++s) {
    for (NodeId d = 0; d < mesh.size(); ++d) {
      const Coord src = mesh.coord_of(s);
      const Coord dst = mesh.coord_of(d);
      if (s == d) {
        EXPECT_EQ(xy.route_port(topo, s, d), static_cast<int>(Port::kLocal));
        continue;
      }
      EXPECT_EQ(walk(xy, topo, src, dst), manhattan(src, dst));
    }
  }
}

TEST_P(DorSweep, YxDeliversAllPairsMinimally) {
  const auto [w, h] = GetParam();
  const MeshShape mesh(w, h);
  const Topology topo = Topology::mesh(w, h);
  const YxRouting yx;
  for (NodeId s = 0; s < mesh.size(); ++s) {
    for (NodeId d = 0; d < mesh.size(); ++d) {
      if (s != d) {
        EXPECT_EQ(walk(yx, topo, mesh.coord_of(s), mesh.coord_of(d)),
                  manhattan(mesh.coord_of(s), mesh.coord_of(d)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Meshes, DorSweep,
                         ::testing::Values(std::pair{2, 2}, std::pair{4, 4},
                                           std::pair{8, 8}, std::pair{3, 5},
                                           std::pair{6, 2}));

TEST(XyRouting, ExhaustsXBeforeY) {
  const Topology topo = Topology::mesh(4, 4);
  const XyRouting xy;
  EXPECT_EQ(route(xy, topo, {0, 0}, {2, 2}), Port::kEast);
  EXPECT_EQ(route(xy, topo, {2, 0}, {2, 2}), Port::kSouth);
  EXPECT_EQ(route(xy, topo, {3, 3}, {1, 1}), Port::kWest);
  EXPECT_EQ(route(xy, topo, {1, 3}, {1, 1}), Port::kNorth);
}

TEST(XyRouting, OnlyLegalTurns) {
  // XY-DOR never turns from a Y move back to an X move: once the route
  // leaves the X dimension it must stay in Y.  Verify on every 4x4 pair.
  const MeshShape mesh(4, 4);
  const Topology topo = Topology::mesh(4, 4);
  const XyRouting xy;
  for (NodeId s = 0; s < mesh.size(); ++s) {
    for (NodeId d = 0; d < mesh.size(); ++d) {
      if (s == d) continue;
      Coord cur = mesh.coord_of(s);
      const Coord dst = mesh.coord_of(d);
      bool seen_y = false;
      while (cur != dst) {
        const Port p = route(xy, topo, cur, dst);
        const bool is_y = p == Port::kNorth || p == Port::kSouth;
        if (seen_y) {
          EXPECT_TRUE(is_y);
        }
        seen_y = seen_y || is_y;
        cur = step(cur, p);
      }
    }
  }
}

TEST(RoutingPolicy, Names) {
  EXPECT_STREQ(XyRouting{}.name(), "xy-dor");
  EXPECT_STREQ(YxRouting{}.name(), "yx-dor");
}

}  // namespace
}  // namespace nocs::noc
