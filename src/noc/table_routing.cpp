#include "noc/table_routing.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace nocs::noc {
namespace {

constexpr int kInf = std::numeric_limits<int>::max() / 2;

/// Strict ordering that orients links: x -> y is an "up" link when y
/// outranks x (closer to the root, ties to the smaller id).
bool outranks(int depth_a, NodeId a, int depth_b, NodeId b) {
  return depth_a < depth_b || (depth_a == depth_b && a < b);
}

}  // namespace

TableRouting TableRouting::up_down(const Topology& topo,
                                   const std::vector<NodeId>& active,
                                   NodeId root) {
  const int n = topo.num_nodes();
  std::vector<bool> in_set(static_cast<std::size_t>(n), false);
  for (NodeId id : active) {
    NOCS_EXPECTS(topo.valid(id));
    in_set[static_cast<std::size_t>(id)] = true;
  }
  if (!topo.valid(root) || !in_set[static_cast<std::size_t>(root)])
    throw std::invalid_argument("up_down: root is not in the active set");

  TableRouting rt;
  rt.num_nodes_ = n;
  rt.name_ = "updown@" + std::to_string(root);
  rt.depth_.assign(static_cast<std::size_t>(n), -1);
  rt.table_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                   -1);

  // BFS rank from the root over the active subgraph.
  std::deque<NodeId> frontier{root};
  rt.depth_[static_cast<std::size_t>(root)] = 0;
  std::size_t reached = 1;
  while (!frontier.empty()) {
    const NodeId cur = frontier.front();
    frontier.pop_front();
    for (int p : topo.connected_ports(cur)) {
      const NodeId nb = topo.neighbor(cur, p);
      const auto i = static_cast<std::size_t>(nb);
      if (!in_set[i] || rt.depth_[i] >= 0) continue;
      rt.depth_[i] = rt.depth_[static_cast<std::size_t>(cur)] + 1;
      ++reached;
      frontier.push_back(nb);
    }
  }
  if (reached != active.size())
    throw std::invalid_argument(
        "up_down: active subgraph is not connected from the root");

  // Active nodes sorted by rank: processing order for the cost-to-go DP
  // (every node's up neighbors precede it).
  std::vector<NodeId> by_rank(active.begin(), active.end());
  std::sort(by_rank.begin(), by_rank.end(), [&](NodeId a, NodeId b) {
    return outranks(rt.depth_[static_cast<std::size_t>(a)], a,
                    rt.depth_[static_cast<std::size_t>(b)], b);
  });

  auto rank_up = [&](NodeId from, NodeId to) {
    return outranks(rt.depth_[static_cast<std::size_t>(to)], to,
                    rt.depth_[static_cast<std::size_t>(from)], from);
  };

  // One destination at a time: D = all-down distance to d (reverse BFS
  // climbing up links from d), then A = total cost-to-go filled in rank
  // order, recording the chosen port.
  std::vector<int> dist_down(static_cast<std::size_t>(n));
  std::vector<int> cost(static_cast<std::size_t>(n));
  for (NodeId d : by_rank) {
    std::fill(dist_down.begin(), dist_down.end(), kInf);
    std::fill(cost.begin(), cost.end(), kInf);
    dist_down[static_cast<std::size_t>(d)] = 0;
    std::deque<NodeId> q{d};
    while (!q.empty()) {
      const NodeId cur = q.front();
      q.pop_front();
      for (int p : topo.connected_ports(cur)) {
        const NodeId nb = topo.neighbor(cur, p);
        const auto i = static_cast<std::size_t>(nb);
        // Climbing cur -> nb in reverse walks the down link nb -> cur.
        if (!in_set[i] || !rank_up(cur, nb) || dist_down[i] < kInf) continue;
        dist_down[i] = dist_down[static_cast<std::size_t>(cur)] + 1;
        q.push_back(nb);
      }
    }
    for (NodeId x : by_rank) {
      const auto xi = static_cast<std::size_t>(x);
      if (x == d) {
        cost[xi] = 0;
        rt.table_[xi * static_cast<std::size_t>(n) +
                  static_cast<std::size_t>(d)] = 0;  // local port
        continue;
      }
      int best_port = -1;
      int best_cost = kInf;
      if (dist_down[xi] < kInf) {
        // Descend: pick the down neighbor one step closer to d.
        for (int p : topo.connected_ports(x)) {
          const NodeId nb = topo.neighbor(x, p);
          const auto i = static_cast<std::size_t>(nb);
          if (!in_set[i] || rank_up(x, nb)) continue;
          if (dist_down[i] == dist_down[xi] - 1) {
            best_port = p;
            best_cost = dist_down[xi];
            break;  // ascending port scan: smallest port wins ties
          }
        }
      } else {
        // Climb: up neighbors outrank x, so their costs are final.
        for (int p : topo.connected_ports(x)) {
          const NodeId nb = topo.neighbor(x, p);
          const auto i = static_cast<std::size_t>(nb);
          if (!in_set[i] || !rank_up(x, nb)) continue;
          if (cost[i] < kInf && cost[i] + 1 < best_cost) {
            best_port = p;
            best_cost = cost[i] + 1;
          }
        }
      }
      NOCS_ENSURES(best_port >= 0);  // connected subgraph: a hop must exist
      cost[xi] = best_cost;
      rt.table_[xi * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(d)] = best_port;
    }
  }
  return rt;
}

int TableRouting::route_port(const Topology& /*topo*/, NodeId cur,
                             NodeId dst) const {
  NOCS_EXPECTS(cur >= 0 && cur < num_nodes_ && dst >= 0 && dst < num_nodes_);
  const int port = table_[static_cast<std::size_t>(cur) *
                              static_cast<std::size_t>(num_nodes_) +
                          static_cast<std::size_t>(dst)];
  NOCS_EXPECTS(port >= 0);  // routed pairs only (both endpoints active)
  return port;
}

DeadlockCheckResult check_deadlock_free(const Topology& topo,
                                        const RoutingPolicy& policy,
                                        const std::vector<NodeId>& active) {
  DeadlockCheckResult res;
  const int n = topo.num_nodes();
  std::vector<bool> in_set(static_cast<std::size_t>(n), false);
  for (NodeId id : active) in_set[static_cast<std::size_t>(id)] = true;

  const int num_links = static_cast<int>(topo.links().size());
  // dep[a] = set of links some route enters immediately after link a.
  std::vector<std::vector<int>> dep(static_cast<std::size_t>(num_links));
  std::vector<bool> used(static_cast<std::size_t>(num_links), false);

  auto fail = [&res](std::string msg) {
    res.ok = false;
    res.detail = std::move(msg);
    return res;
  };

  for (NodeId src : active) {
    for (NodeId dst : active) {
      if (src == dst) continue;
      NodeId cur = src;
      int prev_link = -1;
      int hops = 0;
      while (cur != dst) {
        if (++hops > n) {
          return fail("route " + std::to_string(src) + " -> " +
                      std::to_string(dst) + " does not terminate");
        }
        const int port = policy.route_port(topo, cur, dst);
        if (port == 0) {
          return fail("route " + std::to_string(src) + " -> " +
                      std::to_string(dst) + " ejects early at node " +
                      std::to_string(cur));
        }
        const int link = topo.link_out(cur, port);
        if (link < 0) {
          return fail("route " + std::to_string(src) + " -> " +
                      std::to_string(dst) + " uses disconnected port " +
                      std::to_string(port) + " at node " +
                      std::to_string(cur));
        }
        const NodeId next = topo.links()[static_cast<std::size_t>(link)].dst;
        if (!in_set[static_cast<std::size_t>(next)]) {
          return fail("route " + std::to_string(src) + " -> " +
                      std::to_string(dst) + " enters dark node " +
                      std::to_string(next));
        }
        used[static_cast<std::size_t>(link)] = true;
        if (prev_link >= 0) {
          auto& out = dep[static_cast<std::size_t>(prev_link)];
          if (std::find(out.begin(), out.end(), link) == out.end())
            out.push_back(link);
        }
        prev_link = link;
        cur = next;
      }
    }
  }

  for (int l = 0; l < num_links; ++l) {
    if (used[static_cast<std::size_t>(l)]) ++res.channels_used;
    res.dependencies += static_cast<int>(dep[static_cast<std::size_t>(l)].size());
  }

  // Iterative three-color DFS over the channel-dependency graph.
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(static_cast<std::size_t>(num_links),
                                  kWhite);
  std::vector<std::pair<int, std::size_t>> stack;
  for (int start = 0; start < num_links; ++start) {
    if (color[static_cast<std::size_t>(start)] != kWhite) continue;
    stack.emplace_back(start, 0);
    color[static_cast<std::size_t>(start)] = kGray;
    while (!stack.empty()) {
      auto& [node, edge] = stack.back();
      const auto& out = dep[static_cast<std::size_t>(node)];
      if (edge < out.size()) {
        const int next = out[edge++];
        if (color[static_cast<std::size_t>(next)] == kGray) {
          const TopoLink& a = topo.links()[static_cast<std::size_t>(node)];
          const TopoLink& b = topo.links()[static_cast<std::size_t>(next)];
          std::ostringstream os;
          os << "channel-dependency cycle through links " << a.src << "->"
             << a.dst << " and " << b.src << "->" << b.dst;
          return fail(os.str());
        }
        if (color[static_cast<std::size_t>(next)] == kWhite) {
          color[static_cast<std::size_t>(next)] = kGray;
          stack.emplace_back(next, 0);
        }
      } else {
        color[static_cast<std::size_t>(node)] = kBlack;
        stack.pop_back();
      }
    }
  }

  res.ok = true;
  return res;
}

}  // namespace nocs::noc
