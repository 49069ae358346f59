#include "sprint/cdor.hpp"

#include "common/assert.hpp"
#include "sprint/topology.hpp"

namespace nocs::sprint {

CdorRouting::CdorRouting(const MeshShape& mesh, std::vector<NodeId> active,
                         NodeId master)
    : mesh_(mesh),
      active_(std::move(active)),
      active_mask_(static_cast<std::size_t>(mesh.size()), false),
      master_(master) {
  NOCS_EXPECTS(!active_.empty());
  NOCS_EXPECTS(mesh_.valid(master_));
  const Coord m = mesh_.coord_of(master_);
  NOCS_EXPECTS((m.x == 0 || m.x == mesh_.width() - 1) &&
               (m.y == 0 || m.y == mesh_.height() - 1));
  flip_x_ = m.x != 0;
  flip_y_ = m.y != 0;

  bool master_in_set = false;
  for (NodeId id : active_) {
    NOCS_EXPECTS(mesh_.valid(id));
    NOCS_EXPECTS(!active_mask_[static_cast<std::size_t>(id)]);
    active_mask_[static_cast<std::size_t>(id)] = true;
    master_in_set = master_in_set || id == master_;
  }
  NOCS_EXPECTS(master_in_set);

  // Verify the staircase property in canonical orientation — the invariant
  // CDOR's connectivity-bit logic relies on.
  std::vector<NodeId> canonical;
  canonical.reserve(active_.size());
  for (NodeId id : active_)
    canonical.push_back(mesh_.id_of(reflect(mesh_.coord_of(id))));
  NOCS_EXPECTS(is_staircase_region(mesh_, canonical));
}

Coord CdorRouting::reflect(Coord c) const {
  return Coord{flip_x_ ? mesh_.width() - 1 - c.x : c.x,
               flip_y_ ? mesh_.height() - 1 - c.y : c.y};
}

int CdorRouting::unreflect(Port p) const {
  if (flip_x_ && (p == Port::kEast || p == Port::kWest))
    p = p == Port::kEast ? Port::kWest : Port::kEast;
  else if (flip_y_ && (p == Port::kNorth || p == Port::kSouth))
    p = p == Port::kNorth ? Port::kSouth : Port::kNorth;
  return static_cast<int>(p);
}

bool CdorRouting::active_canonical(Coord c) const {
  if (!mesh_.contains(c)) return false;
  // reflect() is an involution: canonical -> physical uses the same map.
  return active_mask_[static_cast<std::size_t>(mesh_.id_of(reflect(c)))];
}

bool CdorRouting::connectivity_east(NodeId id) const {
  NOCS_EXPECTS(mesh_.valid(id));
  const Coord e = step(mesh_.coord_of(id), Port::kEast);
  return mesh_.contains(e) && is_active(id) &&
         active_mask_[static_cast<std::size_t>(mesh_.id_of(e))];
}

bool CdorRouting::connectivity_west(NodeId id) const {
  NOCS_EXPECTS(mesh_.valid(id));
  const Coord w = step(mesh_.coord_of(id), Port::kWest);
  return mesh_.contains(w) && is_active(id) &&
         active_mask_[static_cast<std::size_t>(mesh_.id_of(w))];
}

int CdorRouting::route_port(const noc::Topology& /*topo*/, NodeId cur,
                            NodeId dst) const {
  NOCS_EXPECTS(mesh_.valid(cur) && mesh_.valid(dst));
  NOCS_EXPECTS(is_active(cur));
  NOCS_EXPECTS(is_active(dst));

  const Coord c = reflect(mesh_.coord_of(cur));
  const Coord d = reflect(mesh_.coord_of(dst));

  if (c == d) return static_cast<int>(Port::kLocal);
  if (d.x < c.x) {
    // Westward toward the master column: always connected inside a
    // left-anchored staircase (C_w holds whenever x > 0).
    return unreflect(Port::kWest);
  }
  if (d.x > c.x) {
    // Eastward if the connectivity bit allows; otherwise detour north
    // (canonical north, toward the master row) where the region is wider.
    // This is the NE-turn case of the paper's Figure 5a.
    const bool c_e = active_canonical(Coord{c.x + 1, c.y});
    if (c_e) return unreflect(Port::kEast);
    NOCS_ENSURES(c.y > 0);  // dst east of us => a wider row exists above
    return unreflect(Port::kNorth);
  }
  // Same column: plain Y routing; intermediate rows are guaranteed active
  // by the staircase property.
  return unreflect(d.y > c.y ? Port::kSouth : Port::kNorth);
}

int CdorRouting::reroute_port(const noc::Topology& /*topo*/, NodeId cur,
                              NodeId dst, int blocked) const {
  if (!mesh_.valid(cur) || !mesh_.valid(dst)) return blocked;
  if (!is_active(cur) || !is_active(dst)) return blocked;
  const Coord c = reflect(mesh_.coord_of(cur));
  const Coord d = reflect(mesh_.coord_of(dst));
  // Only an eastward X-phase hop can be detoured: going canonical-north
  // instead is the NE turn Figure 5a already uses when a row narrows, and
  // the row above a staircase cell is always at least as wide, so the
  // detour stays inside the active region.  Westward/Y-phase hops have no
  // turn-safe alternative; the caller keeps the planned port and recovery
  // falls to end-to-end retransmission.
  if (blocked != unreflect(Port::kEast) || d.x <= c.x) return blocked;
  if (c.y == 0) return blocked;  // master row: no row above to detour into
  if (!active_canonical(Coord{c.x, c.y - 1})) return blocked;
  return unreflect(Port::kNorth);
}

}  // namespace nocs::sprint
