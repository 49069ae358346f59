// One edge DRAM controller, attached to a boundary node's network
// interface as a LocalAgent.
//
// The controller consumes class-0 data tails ejected at its node: a
// 1-flit packet is a read command (answered with a reply_length-flit
// class-1 data reply), a multi-flit packet is a write burst (absorbed and
// answered with a 1-flit class-1 ack).  Requests queue FIFO behind a
// single DRAM channel that serves one request at a time in
// access_latency + ceil(data_flits / bandwidth) cycles.  Class-1 and
// multicast traffic ejected at the same node passes through untouched, so
// a controller can share its node with an ordinary compute tile.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "common/metrics.hpp"
#include "common/snapshot.hpp"
#include "mem/mem_params.hpp"
#include "noc/local_agent.hpp"
#include "noc/network_interface.hpp"

namespace nocs::mem {

/// Message class of read/write requests entering a controller.
inline constexpr int kMemRequestClass = 0;
/// Message class of data replies and write acks leaving a controller.
inline constexpr int kMemReplyClass = 1;

struct MemCounters {
  std::uint64_t reads = 0;        ///< read commands accepted
  std::uint64_t writes = 0;       ///< write bursts accepted
  std::uint64_t read_flits = 0;   ///< data flits returned by reads
  std::uint64_t write_flits = 0;  ///< data flits absorbed by writes
  std::uint64_t replies = 0;      ///< reply/ack packets sent (or local)
  std::uint64_t rejected = 0;     ///< requests dropped by a full queue
  std::uint64_t busy_cycles = 0;  ///< cycles the DRAM channel was serving
  std::uint64_t queue_cycles = 0; ///< sum of occupancy (incl. in service)
  std::uint64_t queue_peak = 0;   ///< max occupancy observed

  MemCounters& operator+=(const MemCounters& o);

  /// Registers "<prefix>.reads" etc. on the registry.
  void export_metrics(MetricsRegistry& reg, const std::string& prefix) const;
};

class MemController final : public noc::LocalAgent {
 public:
  /// `ni` must be the interface of `node`; the caller (MemSubsystem) also
  /// attaches this agent to it.
  MemController(NodeId node, const MemParams& params,
                noc::NetworkInterface* ni);

  // --- LocalAgent -----------------------------------------------------------
  void on_packet(Cycle now, const noc::Flit& tail,
                 const noc::PacketRecord& packet) override;
  void tick(Cycle now) override;
  bool busy_next_cycle() const override {
    return serving_ || !queue_.empty();
  }
  bool idle() const override { return !serving_ && queue_.empty(); }

  // --------------------------------------------------------------------------

  NodeId node() const { return node_; }
  const MemCounters& counters() const { return counters_; }

  /// Requests queued plus the one in service.
  std::size_t occupancy() const {
    return queue_.size() + (serving_ ? 1u : 0u);
  }

  /// Enqueues a request from this controller's own node without touching
  /// the network (a tile issuing to its co-located controller; the NoC
  /// asserts on self-addressed packets, and a local access genuinely
  /// bypasses the mesh).  The reply is likewise delivered locally.
  void enqueue_local(Cycle now, bool write, int data_flits);

  // Dynamic state only (queue, in-service request, counters); placement
  // and timing parameters are configuration.
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r);

 private:
  struct Request {
    NodeId src = kInvalidNode;
    bool write = false;
    int data_flits = 0;   ///< write burst size, or read reply size
    Cycle arrived = 0;
  };

  void accept(Cycle now, const Request& req);
  int service_cycles(const Request& req) const;
  void complete(Cycle now);

  NodeId node_;
  MemParams params_;
  noc::NetworkInterface* ni_;

  std::deque<Request> queue_;
  bool serving_ = false;
  Request current_{};
  Cycle started_ = 0;  ///< cycle service of current_ began
  Cycle finish_ = 0;   ///< cycle current_ completes

  MemCounters counters_;
};

}  // namespace nocs::mem
