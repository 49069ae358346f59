#include "mem/mem_params.hpp"

#include <stdexcept>

#include "common/assert.hpp"
#include "noc/flit.hpp"

namespace nocs::mem {

MemPlacement placement_from_string(const std::string& s) {
  if (s == "interleave") return MemPlacement::kInterleave;
  if (s == "nearest") return MemPlacement::kNearest;
  if (s == "edges") return MemPlacement::kEdges;
  throw std::invalid_argument("unknown mem_placement: " + s);
}

const char* to_string(MemPlacement p) {
  switch (p) {
    case MemPlacement::kInterleave: return "interleave";
    case MemPlacement::kNearest: return "nearest";
    case MemPlacement::kEdges: return "edges";
  }
  NOCS_UNREACHABLE("to_string: bad MemPlacement");
}

MemParams MemParams::from_config(const Config& cfg) {
  MemParams p;
  p.ctrls = cfg.get_int("mem_ctrls", p.ctrls);
  p.placement =
      placement_from_string(cfg.get_string("mem_placement", to_string(p.placement)));
  p.bandwidth = cfg.get_int("mem_bandwidth", p.bandwidth);
  p.access_latency = cfg.get_int("mem_latency", p.access_latency);
  p.reply_length = cfg.get_int("mem_reply", p.reply_length);
  p.queue_capacity = cfg.get_int("mem_queue", p.queue_capacity);
  p.validate();
  return p;
}

void MemParams::validate() const {
  NOCS_EXPECTS(ctrls >= 0);
  NOCS_EXPECTS(bandwidth >= 1);
  NOCS_EXPECTS(access_latency >= 0);
  NOCS_EXPECTS(reply_length >= 1 && reply_length <= noc::kMaxPacketLength);
  NOCS_EXPECTS(queue_capacity >= 0);
}

namespace {

// The mesh perimeter, clockwise from the top-left corner.  Every node
// appears exactly once even on degenerate 1-wide / 1-tall meshes.
std::vector<NodeId> perimeter_nodes(const MeshShape& shape) {
  const int w = shape.width();
  const int h = shape.height();
  std::vector<NodeId> ring;
  ring.reserve(static_cast<std::size_t>(2 * (w + h)));
  for (int x = 0; x < w; ++x) ring.push_back(shape.id_of({x, 0}));
  for (int y = 1; y < h; ++y) ring.push_back(shape.id_of({w - 1, y}));
  if (h > 1)
    for (int x = w - 2; x >= 0; --x) ring.push_back(shape.id_of({x, h - 1}));
  if (w > 1)
    for (int y = h - 2; y >= 1; --y) ring.push_back(shape.id_of({0, y}));
  return ring;
}

}  // namespace

std::vector<NodeId> controller_sites(const MeshShape& shape, int n,
                                     MemPlacement placement) {
  const std::vector<NodeId> ring = perimeter_nodes(shape);
  const int ring_size = static_cast<int>(ring.size());
  NOCS_EXPECTS(n >= 1 && n <= ring_size);
  std::vector<NodeId> sites;
  sites.reserve(static_cast<std::size_t>(n));
  if (placement == MemPlacement::kEdges) {
    for (int i = 0; i < n; ++i) sites.push_back(ring[static_cast<std::size_t>(i)]);
  } else {
    // Evenly spaced: site i at perimeter index floor(i * ring / n).  The
    // stride is >= 1 because n <= ring, so the sites are distinct.
    for (int i = 0; i < n; ++i)
      sites.push_back(ring[static_cast<std::size_t>(i * ring_size / n)]);
  }
  return sites;
}

std::vector<NodeId> xy_path_nodes(const MeshShape& shape, NodeId a, NodeId b) {
  NOCS_EXPECTS(shape.valid(a) && shape.valid(b));
  std::vector<NodeId> path;
  Coord c = shape.coord_of(a);
  const Coord dst = shape.coord_of(b);
  path.push_back(a);
  while (c.x != dst.x) {
    c.x += c.x < dst.x ? 1 : -1;
    path.push_back(shape.id_of(c));
  }
  while (c.y != dst.y) {
    c.y += c.y < dst.y ? 1 : -1;
    path.push_back(shape.id_of(c));
  }
  return path;
}

std::vector<NodeId> powered_closure(const MeshShape& shape,
                                    const std::vector<NodeId>& active,
                                    const std::vector<NodeId>& sites) {
  std::vector<bool> on(static_cast<std::size_t>(shape.size()), false);
  std::vector<NodeId> all = active;
  all.insert(all.end(), sites.begin(), sites.end());
  for (NodeId a : all)
    for (NodeId b : all)
      for (NodeId n : xy_path_nodes(shape, a, b))
        on[static_cast<std::size_t>(n)] = true;
  std::vector<NodeId> powered;
  for (NodeId n = 0; n < shape.size(); ++n)
    if (on[static_cast<std::size_t>(n)]) powered.push_back(n);
  return powered;
}

}  // namespace nocs::mem
