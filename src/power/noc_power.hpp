// Bridges the cycle-accurate simulator and the DSENT-style power models:
// converts a finished simulation's router counters plus the network's
// gating state into a full NoC power estimate (routers + links).
#pragma once

#include "common/metrics.hpp"
#include "noc/network.hpp"
#include "power/router_power.hpp"

namespace nocs::power {

/// Link length (mm) of one mesh hop in the paper's 16-core floorplan, the
/// length every network-level power estimate assumes.
inline constexpr double kLinkLengthMm = 2.5;

/// NoC-wide power split.
struct NocPowerEstimate {
  RouterPowerBreakdown routers;  ///< summed over all routers
  Watts link_dynamic = 0.0;
  Watts link_leakage = 0.0;
  /// Dynamic power attributable to multicast tree replication: the
  /// buffer/crossbar work of every relay-re-injected copy (from the
  /// mc_flits counters) plus its first link traversal.  Replicated
  /// copies flow through the ordinary router counters, so this share is
  /// ALREADY included in the terms above — it is an attribution, not an
  /// additional term, and total() deliberately excludes it.  Zero on any
  /// run without tree multicast.
  Watts mcast_replication = 0.0;

  Watts total() const {
    return routers.total() + link_dynamic + link_leakage;
  }

  /// Registers the estimate as "power.noc.*" gauges (watts).
  void export_metrics(MetricsRegistry& reg) const {
    reg.gauge("power.noc.total_w").set(total());
    reg.gauge("power.noc.router_dynamic_w").set(routers.dynamic());
    reg.gauge("power.noc.router_leakage_w").set(routers.leakage);
    reg.gauge("power.noc.link_dynamic_w").set(link_dynamic);
    reg.gauge("power.noc.link_leakage_w").set(link_leakage);
    reg.gauge("power.noc.mcast_replication_w").set(mcast_replication);
  }
};

/// Estimates average NoC power over `window_cycles` from the network's
/// accumulated counters.  Router leakage follows each router's powered-on
/// cycles (gated routers leak ~nothing); a link leaks while its driving
/// router is powered on.
NocPowerEstimate estimate_noc_power(const noc::Network& net,
                                    const RouterPowerModel& router_model,
                                    const LinkPowerModel& link_model,
                                    Cycle window_cycles);

/// As above with both models derived from `net.params()`: the router
/// model from the network's VC/buffer/flit geometry and a kLinkLengthMm
/// link at the same technology and operating point.
NocPowerEstimate estimate_noc_power(const noc::Network& net,
                                    Cycle window_cycles);

}  // namespace nocs::power
