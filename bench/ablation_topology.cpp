// Ablation — Euclidean vs Hamming activation ordering (Algorithm 1's
// design choice).
//
// The paper argues Euclidean ordering yields tighter regions: at 4-core
// sprinting, Hamming ordering may pick node 2 where Euclidean picks node 5
// (shorter inter-node communication).  We quantify with the average
// pairwise Manhattan distance of the active set and with simulated
// latency at a fixed load.
//
// The simulated path is the shared design-point run (sprint::run_point):
// the network comes from make_sprinting_network, which on a mesh routes
// with the paper's CDOR.
#include <cstdio>

#include "bench_util.hpp"
#include "noc/topology.hpp"
#include "sprint/scenario.hpp"
#include "sprint/topology.hpp"

using namespace nocs;
using namespace nocs::sprint;

namespace {

// Hamming-ordered prefixes are not guaranteed to satisfy CDOR's staircase
// property, so the latency comparison uses plain region geometry: zero-load
// latency is dominated by hop distance.
double sim_latency_euclidean(const noc::NetworkParams& params, int level) {
  DesignPoint point;
  point.params = params;
  point.level = level;
  point.seed = 3;
  point.sim.injection_rate = 0.1;
  return run_point(point).results.avg_packet_latency;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = bench::parse_config(argc, argv);
  const noc::NetworkParams net = bench::network_params(cfg);
  bench::banner("Ablation: Euclidean vs Hamming activation ordering",
                "Algorithm 1 design choice — region compactness and "
                "simulated latency",
                net);

  const MeshShape mesh = net.shape();
  const noc::Topology topo = noc::Topology::mesh(net.width, net.height);
  const auto euclid = sprint_order(topo, 0);
  const auto hamming = sprint_order_hamming(mesh, 0);

  std::printf("euclidean order:");
  for (NodeId id : euclid) std::printf(" %d", id);
  std::printf("\nhamming order:  ");
  for (NodeId id : hamming) std::printf(" %d", id);
  std::printf("\n\n");

  Table t({"level", "euclid avg pair dist", "hamming avg pair dist",
           "euclid better?", "sim latency (euclid, cyc)"});
  int wins = 0, ties = 0;
  for (int k = 3; k <= mesh.size(); ++k) {
    std::vector<NodeId> se(euclid.begin(), euclid.begin() + k);
    std::vector<NodeId> sh(hamming.begin(), hamming.begin() + k);
    const double de = average_pairwise_distance(mesh, se);
    const double dh = average_pairwise_distance(mesh, sh);
    if (de < dh - 1e-9) ++wins;
    if (std::abs(de - dh) <= 1e-9) ++ties;
    t.add_row({Table::fmt(static_cast<long long>(k)), Table::fmt(de, 3),
               Table::fmt(dh, 3),
               de < dh - 1e-9 ? "yes" : (de > dh + 1e-9 ? "no" : "tie"),
               Table::fmt(sim_latency_euclidean(net, k), 2)});
  }
  t.print();

  bench::headline(
      "levels where Euclidean ordering is at least as compact",
      "always (paper's 4-core example)",
      Table::fmt(static_cast<long long>(wins + ties)) + " of " +
          Table::fmt(static_cast<long long>(mesh.size() - 2)));
  return 0;
}
