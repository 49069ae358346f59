#include "power/noc_power.hpp"

namespace nocs::power {

NocPowerEstimate estimate_noc_power(const noc::Network& net,
                                    const RouterPowerModel& router_model,
                                    const LinkPowerModel& link_model,
                                    Cycle window_cycles) {
  NOCS_EXPECTS(window_cycles > 0);
  NocPowerEstimate est;

  const double window_s = static_cast<double>(window_cycles) /
                          router_model.params().op.frequency;

  std::uint64_t total_link_flits = 0;
  std::uint64_t total_mc_flits = 0;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    const noc::Router& r = net.router(id);
    est.routers += router_model.from_counters(r.counters(), window_cycles);
    total_link_flits += r.counters().link_flits;
    total_mc_flits += r.counters().mc_flits;

    // Link leakage: each powered-on cycle of the driving router leaks its
    // outgoing links (out-degree of the node in the topology graph — on a
    // mesh, exactly the old N/E/S/W neighbor count).
    const int degree = net.topology().out_degree(id);
    const double on_fraction =
        static_cast<double>(r.counters().active_cycles +
                            r.counters().waking_cycles) /
        static_cast<double>(window_cycles);
    est.link_leakage += degree * link_model.leakage_power() * on_fraction;
  }

  est.link_dynamic = static_cast<double>(total_link_flits) *
                     link_model.traversal_energy() / window_s;

  // Multicast replication attribution: each relay-re-injected flit costs
  // one buffer write + read + crossbar traversal at the relay's router
  // plus one link traversal.  Expressed through the same event-energy
  // models, so the share is consistent with the terms it is carved from.
  if (total_mc_flits > 0) {
    noc::RouterCounters repl;
    repl.buffer_writes = total_mc_flits;
    repl.buffer_reads = total_mc_flits;
    repl.xbar_traversals = total_mc_flits;
    est.mcast_replication =
        router_model.from_counters(repl, window_cycles).dynamic() +
        static_cast<double>(total_mc_flits) * link_model.traversal_energy() /
            window_s;
  }
  return est;
}

NocPowerEstimate estimate_noc_power(const noc::Network& net,
                                    Cycle window_cycles) {
  const RouterPowerParams rp = RouterPowerParams::from_network(net.params());
  return estimate_noc_power(
      net, RouterPowerModel(rp),
      LinkPowerModel(rp.flit_bits, kLinkLengthMm, rp.tech, rp.op),
      window_cycles);
}

}  // namespace nocs::power
