#include "sprint/network_builder.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"
#include "sprint/cdor.hpp"
#include "sprint/topology.hpp"

namespace nocs::sprint {

NetworkBundle make_sprinting_network(const noc::NetworkParams& params,
                                     noc::Topology topo, NetworkScheme scheme,
                                     int level, const std::string& traffic,
                                     std::uint64_t seed, NodeId master,
                                     noc::LinkLatencyFn link_latency) {
  NOCS_EXPECTS(level >= 2 && level <= topo.num_nodes());
  NOCS_EXPECTS(topo.num_nodes() == params.num_nodes());
  NOCS_EXPECTS(topo.valid(master));
  NetworkBundle b;
  const bool noc = scheme == NetworkScheme::kNoc;
  if (noc) {
    b.endpoints = active_set(topo, level, master);
    if (topo.is_mesh())
      b.policy = std::make_unique<CdorRouting>(topo.mesh_shape(), b.endpoints,
                                               master);
    else
      b.policy = std::make_unique<noc::TableRouting>(
          noc::TableRouting::up_down(topo, b.endpoints, master));
  } else {
    NOCS_EXPECTS(topo.is_mesh());
    // Random endpoint mapping over the full mesh, master always included.
    Rng rng(seed ^ 0xf00dfeedbeefULL);
    std::vector<NodeId> pool;
    for (NodeId id = 0; id < topo.num_nodes(); ++id)
      if (id != master) pool.push_back(id);
    // Fisher-Yates partial shuffle for the first level-1 picks.
    for (std::size_t i = 0; i < static_cast<std::size_t>(level - 1); ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(rng.uniform_int(pool.size() - i));
      std::swap(pool[i], pool[j]);
    }
    b.endpoints.push_back(master);
    b.endpoints.insert(b.endpoints.end(), pool.begin(),
                       pool.begin() + (level - 1));
    b.policy = std::make_unique<noc::XyRouting>();
  }
  b.network = std::make_unique<noc::Network>(
      params, std::move(topo), b.policy.get(), std::move(link_latency));
  b.network->set_endpoints(b.endpoints, noc::make_traffic(traffic, level));
  if (noc) b.network->gate_dark_region(b.endpoints);
  b.network->set_seed(seed);
  return b;
}

noc::DeadlockCheckResult require_deadlock_free(const NetworkBundle& bundle,
                                               int level) {
  noc::DeadlockCheckResult res = noc::check_deadlock_free(
      bundle.network->topology(), *bundle.policy, bundle.endpoints);
  if (!res.ok)
    throw std::runtime_error("topology sprint level " + std::to_string(level) +
                             " fails the deadlock check: " + res.detail);
  return res;
}

}  // namespace nocs::sprint
