// The one builder wiring a noc::Network for the sprinting schemes the
// paper compares:
//
//  * NoC-sprinting: active set = Algorithm 1 prefix (generalized to
//    connected growth on any topology), dark region statically gated,
//    endpoints = the active nodes.  Routing: the paper's CDOR on a mesh,
//    up*/down* tables rooted at the master on any other graph.
//  * Full-sprinting (mesh only): every router powered, XY-DOR routing;
//    the k traffic endpoints are mapped randomly over the whole mesh (the
//    paper averages ten such samples in Figure 11).
//
// The routing policy's lifetime is bound to the returned bundle.  The
// builder does not run the channel-dependency deadlock check (it walks
// every active pair, too slow for large all-active meshes); callers that
// accept arbitrary graphs call require_deadlock_free before the first
// tick.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "noc/network.hpp"
#include "noc/params.hpp"
#include "noc/routing.hpp"
#include "noc/table_routing.hpp"
#include "noc/topology.hpp"

namespace nocs::sprint {

/// Which of the paper's network configurations to build.
enum class NetworkScheme { kNoc, kFull };

/// A network plus the routing policy it borrows.
struct NetworkBundle {
  std::unique_ptr<noc::RoutingPolicy> policy;
  std::unique_ptr<noc::Network> network;
  /// Traffic endpoints; under NetworkScheme::kNoc also the powered set.
  std::vector<NodeId> endpoints;
};

/// Sprinting network at `level` active cores over `topo` (see the file
/// comment for the two schemes).  params.num_nodes() must equal
/// topo.num_nodes(); kFull requires a mesh.  `link_latency`, when given,
/// sets the latency of every link the topology leaves at 0 (physical
/// floorplans: PhysicalWires::latency_fn()).
NetworkBundle make_sprinting_network(const noc::NetworkParams& params,
                                     noc::Topology topo, NetworkScheme scheme,
                                     int level, const std::string& traffic,
                                     std::uint64_t seed, NodeId master = 0,
                                     noc::LinkLatencyFn link_latency = nullptr);

/// Certifies a NetworkScheme::kNoc bundle: noc::check_deadlock_free over
/// its network's topology, its policy, and its powered set
/// (bundle.endpoints).  Returns the passing verdict; throws
/// std::runtime_error naming `level` on failure.
noc::DeadlockCheckResult require_deadlock_free(const NetworkBundle& bundle,
                                               int level);

/// NoC-sprinting on the params.width x params.height mesh.
inline NetworkBundle make_noc_sprinting_network(
    const noc::NetworkParams& params, int level, const std::string& traffic,
    std::uint64_t seed, NodeId master = 0) {
  return make_sprinting_network(
      params, noc::Topology::mesh(params.width, params.height),
      NetworkScheme::kNoc, level, traffic, seed, master);
}

/// Full-sprinting on the params.width x params.height mesh.
inline NetworkBundle make_full_sprinting_network(
    const noc::NetworkParams& params, int level, const std::string& traffic,
    std::uint64_t seed, NodeId master = 0) {
  return make_sprinting_network(
      params, noc::Topology::mesh(params.width, params.height),
      NetworkScheme::kFull, level, traffic, seed, master);
}

}  // namespace nocs::sprint
