// Replays a TileSchedule over tile groups as real NoC traffic: the
// closed-loop workload behind fig13_membound.
//
// Per layer, four phases run to quiescence in order:
//
//   fetch      each group leader issues DRAM read commands (class 0) to
//              the controllers; the data comes back as class-1 replies.
//   weights    each group leader multicasts the weight volume to the rest
//              of its group (tree multicast, or serial unicast when
//              multicast is off).
//   acts       every tile unicasts its activation volume to the
//              same-position tile of the next group (class 1).
//   writeback  each group leader streams write bursts (class 0) to the
//              controllers and collects the 1-flit acks.
//
// The driver runs from the network's serial pre-tick hook, so its
// decisions depend only on the drained state at each cycle boundary —
// bit-identical for any sim_threads.  A phase's packets are all enqueued
// on its first cycle (NI source queues are unbounded; the network applies
// the backpressure), and the next phase starts on the first cycle the
// network reports drained.
#pragma once

#include <cstdint>
#include <vector>

#include "common/snapshot.hpp"
#include "mem/mem_subsystem.hpp"
#include "mem/tile_schedule.hpp"
#include "noc/network.hpp"

namespace nocs::mem {

struct TileDriverOptions {
  bool multicast = true;  ///< tree multicast for weights (false: fallback)
  int chunk_flits = 0;    ///< packet size for transfers (0: packet_length)
};

struct TileDriverCounters {
  std::uint64_t dram_reads = 0;
  std::uint64_t dram_writes = 0;
  std::uint64_t weight_mcasts = 0;  ///< multicast sends (chunks)
  std::uint64_t act_packets = 0;
  std::uint64_t local_accesses = 0; ///< requests to a co-located controller
  std::uint64_t compute_cycles = 0; ///< barrier cycles spent computing
  std::uint64_t layers_done = 0;
};

/// Contiguous near-equal partition of `active` into `groups` tile groups
/// (the first active.size() % groups get one extra member), in order.
std::vector<std::vector<NodeId>> partition_groups(
    const std::vector<NodeId>& active, int groups);

class TileTransferDriver final : public snapshot::Serializable {
 public:
  /// `groups` lists the member tiles of each group; member 0 is the group
  /// leader (DRAM interface and weight source).  Registers one multicast
  /// group per tile group on `net` and applies opts.multicast.  Schedule
  /// volumes are layer totals: fetch/weight/writeback split evenly across
  /// groups, activations across all tiles — the work is fixed and the
  /// sprint level decides how many workers share it.
  TileTransferDriver(noc::Network& net, MemSubsystem& mem, TileSchedule sched,
                     std::vector<std::vector<NodeId>> groups,
                     TileDriverOptions opts = {});

  TileTransferDriver(const TileTransferDriver&) = delete;
  TileTransferDriver& operator=(const TileTransferDriver&) = delete;

  /// Installs the phase machine as the network's pre-tick hook.  The hook
  /// stays installed (but inert) after the driver finishes; uninstall (or
  /// destroy the network) before destroying the driver.
  void install();
  void uninstall();

  bool done() const { return phase_ == Phase::kDone; }
  /// Cycle the last phase drained (valid once done()).
  Cycle finished_at() const { return finish_cycle_; }

  int current_layer() const { return layer_; }
  const TileDriverCounters& counters() const { return counters_; }

  // Dynamic state only (phase pointer, sequence counter, counters);
  // groups/schedule/options are configuration and must match at restore.
  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r) override;

 private:
  enum class Phase : std::uint8_t {
    kFetch = 0,
    kWeights = 1,
    kCompute = 2,  ///< tiles crunch their share; NoC idle, routers leak
    kActs = 3,
    kWriteback = 4,
    kDone = 5,
  };

  void on_pre_tick(Cycle now);
  /// Moves (layer_, phase_) forward until a phase with nonzero volume (or
  /// kDone).  `step` first leaves the current phase.
  void advance(bool step);
  int phase_volume(Phase p, const TileLayer& l) const;
  void issue(Cycle now);
  void issue_fetch(Cycle now, const TileLayer& l);
  void issue_weights(Cycle now, const TileLayer& l);
  void issue_compute(Cycle now, const TileLayer& l);
  void issue_acts(Cycle now, const TileLayer& l);
  void issue_writeback(Cycle now, const TileLayer& l);
  /// Routes one DRAM request from `tile`, going local when the interleave
  /// lands on the tile's own controller.
  void dram_request(Cycle now, NodeId tile, bool write, int flits);
  int chunk() const;
  /// Even split of a layer's total volume across `ways` workers,
  /// rounded up so no flits are dropped.
  static int split(int total, int ways);

  noc::Network* net_;
  MemSubsystem* mem_;
  TileSchedule sched_;
  std::vector<std::vector<NodeId>> groups_;
  TileDriverOptions opts_;
  std::vector<int> group_ids_;  ///< network multicast group per tile group

  int layer_ = 0;
  Phase phase_ = Phase::kFetch;
  bool issued_ = false;
  Cycle finish_cycle_ = 0;
  Cycle compute_until_ = 0;  ///< end of the current compute phase
  std::uint64_t dram_seq_ = 0;  ///< interleaving sequence across requests

  TileDriverCounters counters_;
};

}  // namespace nocs::mem
