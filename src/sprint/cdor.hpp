// Algorithm 2 — CDOR: convex dimension-order routing.
//
// X-Y dimension-order routing extended for the irregular convex (staircase)
// regions Algorithm 1 produces, using two connectivity bits per switch
// (C_w, C_e) exactly as the paper describes.  When the eastward move a DOR
// router would take is not connected (the region is narrower at this row),
// the packet detours north toward the master row, where the region is
// wider; the NE turn this introduces is deadlock-free because the region's
// staircase shape makes the conflicting WN turn impossible at the same
// cycle (Section 3.2's argument).  Routes never touch the dark region, so
// gated routers are never woken for forwarding.
//
// The master node may sit at any corner of the mesh; coordinates are
// internally reflected so the region is always a top-left staircase.
// CDOR is built for one mesh and one active set, so it routes from its
// own MeshShape and ignores the topology argument of the RoutingPolicy
// interface (the network's mesh topology has the same ids and ports).
#pragma once

#include <vector>

#include "common/geometry.hpp"
#include "noc/routing.hpp"

namespace nocs::sprint {

class CdorRouting final : public noc::RoutingPolicy {
 public:
  /// `active` is the sprint region (must contain `master` and form a
  /// staircase anchored at `master`'s corner).  `master` must be a corner
  /// node of the mesh.
  CdorRouting(const MeshShape& mesh, std::vector<NodeId> active,
              NodeId master = 0);

  /// Preconditions: both nodes are active.
  int route_port(const noc::Topology& topo, NodeId cur,
                 NodeId dst) const override;

  /// Fault fallback: when the planned hop's link is down, returns a safe
  /// detour or `blocked` unchanged if none exists.  Only the eastward
  /// X-phase hop is detoured — one row canonical-north, the same NE turn
  /// class the staircase argument already proves deadlock-free — so the
  /// detour can never introduce a new turn cycle or leave the active
  /// region.
  int reroute_port(const noc::Topology& topo, NodeId cur, NodeId dst,
                   int blocked) const override;

  const char* name() const override { return "cdor"; }

  /// The paper's per-switch connectivity bits (in physical orientation).
  bool connectivity_east(NodeId id) const;
  bool connectivity_west(NodeId id) const;

  bool is_active(NodeId id) const {
    return active_mask_[static_cast<std::size_t>(id)];
  }
  const std::vector<NodeId>& active_nodes() const { return active_; }
  NodeId master() const { return master_; }

 private:
  Coord reflect(Coord c) const;  ///< physical -> canonical (master at 0,0)
  int unreflect(Port p) const;   ///< canonical port -> physical port index
  bool active_canonical(Coord c) const;

  MeshShape mesh_;
  std::vector<NodeId> active_;
  std::vector<bool> active_mask_;
  NodeId master_;
  bool flip_x_ = false;
  bool flip_y_ = false;
};

}  // namespace nocs::sprint
