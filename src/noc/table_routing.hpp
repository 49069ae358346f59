// Table-driven deadlock-free routing for arbitrary topologies, plus the
// startup channel-dependency-graph check every policy must pass.
//
// Up*/down* (Autonet): orient every link "up" toward a root by BFS rank
// (depth, then node id); a legal route climbs zero or more up links, then
// descends zero or more down links.  No route ever turns down-then-up, so
// every channel-dependency cycle would need an up link depended on by a
// down link — impossible — and the network is deadlock-free on any
// connected graph, including the powered subgraph at any sprint level.
//
// The table is built per (topology, active set): routes are confined to
// active nodes, so a dark router is never on any path (the generalization
// of CDOR's guarantee that gated mesh regions see no traffic).
#pragma once

#include <string>
#include <vector>

#include "noc/routing.hpp"
#include "noc/topology.hpp"

namespace nocs::noc {

/// Precomputed next-hop table over a topology's active subgraph.
class TableRouting final : public RoutingPolicy {
 public:
  /// Builds the up*/down* table for the induced subgraph over `active`
  /// rooted at `root` (must be active).  The subgraph must be connected;
  /// throws std::invalid_argument otherwise.
  ///
  /// Next-hop construction guarantees the up*-then-down* shape per route:
  /// for destination d, D(x) = shortest all-down distance x -> d (infinite
  /// when x is not above d); while D is infinite the route climbs the up
  /// neighbor with the smallest cost-to-go A(x) = 1 + min over up
  /// neighbors A(y) (ties to the smallest port), and once D is finite it
  /// descends the down neighbor with D(y) = D(x) - 1.  D finite is closed
  /// under that descent, so no route turns upward again.
  static TableRouting up_down(const Topology& topo,
                              const std::vector<NodeId>& active, NodeId root);

  int route_port(const Topology& topo, NodeId cur,
                 NodeId dst) const override;
  const char* name() const override { return name_.c_str(); }

  /// BFS depth of an active node from the root (-1 for dark nodes).
  int depth(NodeId id) const { return depth_[static_cast<std::size_t>(id)]; }

 private:
  TableRouting() = default;

  int num_nodes_ = 0;
  std::string name_;
  std::vector<int> table_;  ///< [cur * num_nodes + dst] -> port, -1 = no route
  std::vector<int> depth_;
};

/// Verdict of the channel-dependency-graph deadlock check.
struct DeadlockCheckResult {
  bool ok = false;
  std::string detail;  ///< human-readable failure description when !ok
  int channels_used = 0;
  int dependencies = 0;
};

/// Startup deadlock-freedom check: walks the route of every ordered pair
/// of active nodes under `policy`, verifying that each route terminates
/// within num_nodes hops, never leaves the active set, and that the
/// channel-dependency graph (link -> next link along some route) is
/// acyclic — the classic Dally/Seitz sufficient condition for wormhole
/// deadlock freedom.  Works for any RoutingPolicy (XY/YX, CDOR,
/// up*/down*), so every topology x sprint-level combination can be
/// certified before the network is built.
DeadlockCheckResult check_deadlock_free(const Topology& topo,
                                        const RoutingPolicy& policy,
                                        const std::vector<NodeId>& active);

}  // namespace nocs::noc
