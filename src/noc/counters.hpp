// Event counters harvested from routers/links and fed to the power models.
// DSENT-style power estimation is event-based: each buffer write/read,
// crossbar traversal, allocation, and link flit has an energy cost, and
// leakage accrues per powered-on cycle.
#pragma once

#include <cstdint>
#include <string>

#include "common/metrics.hpp"

namespace nocs::noc {

/// One field of a struct of uint64 counters and its name.  Each counter
/// struct lists its fields once, in declaration order, as a table of
/// these; metric names, report JSON keys and checkpoint order all follow
/// that table.
template <class Counters>
struct CounterField {
  const char* name;
  std::uint64_t Counters::*member;
};

/// Activity of one router over a measurement window.
struct RouterCounters {
  std::uint64_t buffer_writes = 0;     ///< flits written into input VCs
  std::uint64_t buffer_reads = 0;      ///< flits read out of input VCs
  std::uint64_t xbar_traversals = 0;   ///< flits through the crossbar
  std::uint64_t vc_allocs = 0;         ///< successful VC allocations
  std::uint64_t sa_arbitrations = 0;   ///< switch-allocator grant events
  std::uint64_t link_flits = 0;        ///< flits sent on non-local out links
  std::uint64_t active_cycles = 0;     ///< cycles powered on
  std::uint64_t gated_cycles = 0;      ///< cycles power-gated
  std::uint64_t waking_cycles = 0;     ///< cycles spent in wake-up transition
  std::uint64_t wake_events = 0;       ///< number of wake-ups
  std::uint64_t idle_active_cycles = 0;  ///< powered on but no flit movement

  // Fault-injection activity (zero on a fault-free run).
  std::uint64_t flits_corrupted = 0;  ///< flits hit by a link fault here
  std::uint64_t reroutes = 0;         ///< packets detoured off a faulty link
  std::uint64_t wake_failures = 0;    ///< failed power-gate wake attempts

  // Multicast replication activity at this node's NI (zero unless tree
  // multicast is in use).  A relay that forwards a multicast segment to
  // its subranges re-injects copies through this router, so the copies'
  // buffer/crossbar/link traffic is already in the counters above; these
  // two attribute that replicated share explicitly.
  std::uint64_t mc_replications = 0;  ///< packets re-injected by the relay
  std::uint64_t mc_flits = 0;         ///< flits of those replicated packets

  RouterCounters& operator+=(const RouterCounters& o);

  /// Registers every counter under "<prefix>.<field>" (default "router").
  void export_metrics(MetricsRegistry& reg,
                      const std::string& prefix = "router") const;
};

inline constexpr CounterField<RouterCounters> kRouterCounterFields[] = {
    {"buffer_writes", &RouterCounters::buffer_writes},
    {"buffer_reads", &RouterCounters::buffer_reads},
    {"xbar_traversals", &RouterCounters::xbar_traversals},
    {"vc_allocs", &RouterCounters::vc_allocs},
    {"sa_arbitrations", &RouterCounters::sa_arbitrations},
    {"link_flits", &RouterCounters::link_flits},
    {"active_cycles", &RouterCounters::active_cycles},
    {"gated_cycles", &RouterCounters::gated_cycles},
    {"waking_cycles", &RouterCounters::waking_cycles},
    {"wake_events", &RouterCounters::wake_events},
    {"idle_active_cycles", &RouterCounters::idle_active_cycles},
    {"flits_corrupted", &RouterCounters::flits_corrupted},
    {"reroutes", &RouterCounters::reroutes},
    {"wake_failures", &RouterCounters::wake_failures},
    {"mc_replications", &RouterCounters::mc_replications},
    {"mc_flits", &RouterCounters::mc_flits},
};

inline RouterCounters& RouterCounters::operator+=(const RouterCounters& o) {
  for (const auto& f : kRouterCounterFields) this->*f.member += o.*f.member;
  return *this;
}

inline void RouterCounters::export_metrics(MetricsRegistry& reg,
                                           const std::string& prefix) const {
  for (const auto& f : kRouterCounterFields)
    reg.counter(prefix + "." + f.name).set(this->*f.member);
}

}  // namespace nocs::noc
