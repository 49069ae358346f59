// Configuration of the memory-traffic subsystem: how many edge DRAM
// controllers exist, where they sit on the mesh boundary, how tiles are
// assigned to them, and the bandwidth/latency of each DRAM channel.
//
// This is the cycle-accurate analogue of the SET-ISCA2023 cost model's
// DRAM ports: controllers are NoC endpoints on boundary nodes, reads are
// 1-flit class-0 requests answered with multi-flit class-1 data replies,
// writes are multi-flit class-0 data packets answered with 1-flit class-1
// acks, and each controller serializes requests behind a bounded-bandwidth
// DRAM channel with a fixed access latency.
#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/geometry.hpp"
#include "common/types.hpp"

namespace nocs::mem {

/// Where controllers sit and how tiles pick one.
///  - kInterleave: controllers spread evenly around the mesh perimeter;
///    requests round-robin across all controllers (address interleaving).
///  - kNearest: same perimeter spread; every tile always uses its
///    nearest controller (minimum hop distance, ties to the lowest id).
///  - kEdges: controllers packed clockwise from the top-left corner
///    (the SET exemplar's edge DRAM ports); requests interleave.
enum class MemPlacement { kInterleave, kNearest, kEdges };

/// Parses "interleave" / "nearest" / "edges"; throws std::invalid_argument
/// otherwise.
MemPlacement placement_from_string(const std::string& s);
const char* to_string(MemPlacement p);

struct MemParams {
  int ctrls = 0;  ///< number of controllers (0 = subsystem disabled)
  MemPlacement placement = MemPlacement::kInterleave;
  int bandwidth = 2;       ///< DRAM channel bandwidth (flits/cycle)
  int access_latency = 60; ///< fixed DRAM access latency (cycles)
  int reply_length = 8;    ///< data flits returned per read request
  int queue_capacity = 0;  ///< request-queue bound (0 = unbounded)

  /// Reads the `mem_*` config keys (mem_ctrls, mem_placement,
  /// mem_bandwidth, mem_latency, mem_reply, mem_queue) over the defaults
  /// above.
  static MemParams from_config(const Config& cfg);

  void validate() const;
};

/// The `n` boundary nodes hosting the controllers under `placement`:
/// evenly spaced around the perimeter (interleave/nearest) or packed
/// clockwise from the top-left corner (edges).  Deterministic, duplicate-
/// free; requires 1 <= n <= perimeter size.
std::vector<NodeId> controller_sites(const MeshShape& shape, int n,
                                     MemPlacement placement);

/// Every node on the dimension-ordered (X then Y) route from `a` to `b`,
/// inclusive of both.  Used to compute the powered closure a sprint level
/// needs so DRAM traffic never hits a gated router.
std::vector<NodeId> xy_path_nodes(const MeshShape& shape, NodeId a, NodeId b);

/// The powered closure of a sprint level with edge DRAM: every node on an
/// XY route between any two of `active` and `sites`, ascending.  Gating
/// everything else keeps DRAM traffic off dark routers.
std::vector<NodeId> powered_closure(const MeshShape& shape,
                                    const std::vector<NodeId>& active,
                                    const std::vector<NodeId>& sites);

}  // namespace nocs::mem
