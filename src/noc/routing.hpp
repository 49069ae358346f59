// Routing interface and the baseline dimension-order policies.
//
// Every router routes through RoutingPolicy: node ids in, output port
// index out.  XY/YX dimension-order routing live here; the paper's
// contribution — CDOR, convex dimension-order routing with two
// connectivity bits per switch — implements the same interface in
// src/sprint/cdor.hpp, and TableRouting (table_routing.hpp) implements it
// for arbitrary topologies with precomputed up*/down* next-hop tables.
// The network core is routing-agnostic.
#pragma once

#include "common/geometry.hpp"
#include "noc/topology.hpp"

namespace nocs::noc {

/// Computes the output port index a head flit takes at router `cur`
/// towards `dst`.  Deterministic single-path routing: one port per
/// (cur,dst) pair, matching DOR, CDOR and up*/down* alike.  Port 0 is
/// always the local (NI) port.
///
/// `topo` is the graph the network was wired from.  Stateless policies
/// (XY/YX) read node coordinates from it; policies built for one graph
/// (CDOR, TableRouting) carry their own view and may ignore it.
class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;

  /// Returns the output port index; 0 (local) when cur == dst.
  /// Precondition: `dst` must be reachable from `cur` under this policy.
  virtual int route_port(const Topology& topo, NodeId cur,
                         NodeId dst) const = 0;

  /// Fault fallback: the link behind `blocked` (the port route_port()
  /// returned) is down — return an alternative output port, or `blocked`
  /// itself when no detour is safe (the packet then rides the faulty link
  /// and end-to-end retransmission recovers any corruption).  The default
  /// declines to detour; CDOR overrides it with its deadlock-free convex
  /// detour (the same NE turn its staircase argument already admits).
  virtual int reroute_port(const Topology& topo, NodeId cur, NodeId dst,
                           int blocked) const {
    (void)topo;
    (void)cur;
    (void)dst;
    return blocked;
  }

  /// Human-readable name for logs/tables.
  virtual const char* name() const = 0;
};

/// Classic X-Y dimension-order routing on a full 2-D mesh: exhaust the X
/// offset, then the Y offset.  Deadlock-free because only EN/ES/WN/WS turns
/// occur (no NE/NW/SE/SW), which breaks both abstract cycles.  Requires a
/// topology with directional port indices (Topology::mesh).
class XyRouting final : public RoutingPolicy {
 public:
  int route_port(const Topology& topo, NodeId cur,
                 NodeId dst) const override {
    const Coord c = topo.coord(cur);
    const Coord d = topo.coord(dst);
    if (d.x > c.x) return static_cast<int>(Port::kEast);
    if (d.x < c.x) return static_cast<int>(Port::kWest);
    if (d.y > c.y) return static_cast<int>(Port::kSouth);
    if (d.y < c.y) return static_cast<int>(Port::kNorth);
    return static_cast<int>(Port::kLocal);
  }

  const char* name() const override { return "xy-dor"; }
};

/// Y-X dimension-order routing (exhaust Y first); used in routing tests and
/// as an ablation baseline.  Same topology requirement as XyRouting.
class YxRouting final : public RoutingPolicy {
 public:
  int route_port(const Topology& topo, NodeId cur,
                 NodeId dst) const override {
    const Coord c = topo.coord(cur);
    const Coord d = topo.coord(dst);
    if (d.y > c.y) return static_cast<int>(Port::kSouth);
    if (d.y < c.y) return static_cast<int>(Port::kNorth);
    if (d.x > c.x) return static_cast<int>(Port::kEast);
    if (d.x < c.x) return static_cast<int>(Port::kWest);
    return static_cast<int>(Port::kLocal);
  }

  const char* name() const override { return "yx-dor"; }
};

}  // namespace nocs::noc
