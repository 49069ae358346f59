// Node-local agent hook: lets a subsystem (e.g. a memory controller from
// src/mem) attach endpoint behavior to a NetworkInterface without the NoC
// layer depending on it — the same inversion fault_hooks.hpp uses for the
// fault injector.
//
// The NI drives the agent entirely from its own tick, so an agent is
// automatically shard-local under the parallel tick (an NI and its agent
// belong to one node) and needs no locking.  Call order within one NI
// tick: ejected tails are delivered through on_packet() first, then
// tick() runs, then the NI injects — so a reply enqueued by either hook
// can enter the network in the same cycle.
#pragma once

#include "common/types.hpp"
#include "noc/flit.hpp"

namespace nocs::noc {

class LocalAgent {
 public:
  virtual ~LocalAgent() = default;

  /// Delivery of one complete packet: called with the tail flit and the
  /// record of every packet this NI ejects (data and multicast alike;
  /// ACK/NACK control packets are not delivered).  The record is released
  /// when the call returns.  The agent filters by msg_class/kind.
  virtual void on_packet(Cycle now, const Flit& tail,
                         const PacketRecord& packet) = 0;

  /// Advances the agent one cycle (service queues, emit replies).
  virtual void tick(Cycle now) = 0;

  /// True while the agent needs ticking next cycle (pending work keeps
  /// the owning NI hot under the active-node fast path).
  virtual bool busy_next_cycle() const = 0;

  /// True when the agent holds no queued or in-service work.  Folded into
  /// NetworkInterface::idle(), so Network::drained() waits for agents.
  virtual bool idle() const = 0;
};

}  // namespace nocs::noc
