// Network over a topology graph: owns routers, network interfaces, and all
// connecting channels; exposes sprint-region configuration (active
// endpoints + gated dark region) used by the NoC-sprinting controller.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "noc/network_interface.hpp"
#include "noc/packet_record.hpp"
#include "noc/params.hpp"
#include "noc/router.hpp"
#include "noc/routing.hpp"
#include "noc/stats_collector.hpp"
#include "noc/topology.hpp"
#include "noc/traffic.hpp"

namespace nocs::noc {

/// Cycle latency of the directed link from one router to an adjacent one.
/// Lets physical floorplans assign longer latencies to stretched links
/// (or SMART repeated wires collapse them back to one cycle).
using LinkLatencyFn = std::function<int(NodeId from, NodeId to)>;

class Network {
 public:
  /// Builds the network over an arbitrary topology graph (the network
  /// keeps its own copy; params.num_nodes() must equal topo.num_nodes()).
  /// `policy` must outlive the network.  Per-link latencies > 0 override
  /// params.link_latency, and `link_latency`, when provided, fills the
  /// rest (must return >= 1; called once per link in topo.links() order).
  /// State is laid out node-major (see node_blocks_).
  Network(const NetworkParams& params, Topology topo,
          const RoutingPolicy* policy, LinkLatencyFn link_latency = nullptr);

  /// The params.width x params.height mesh: Topology::mesh over the
  /// topology constructor.
  Network(const NetworkParams& params, const RoutingPolicy* policy,
          LinkLatencyFn link_latency = nullptr)
      : Network(params, Topology::mesh(params.width, params.height), policy,
                std::move(link_latency)) {}

  // Channel sinks and wake callbacks capture `this`.
  Network(const Network&) = delete;
  ~Network();
  Network& operator=(const Network&) = delete;

  /// Latency of the directed link between adjacent nodes (cycles).
  int link_latency(NodeId from, NodeId to) const;

  /// The interconnect graph this network was wired from.
  const Topology& topology() const { return topo_; }

  /// The routing policy every router consults.
  const RoutingPolicy& routing_policy() const { return *policy_; }

  const NetworkParams& params() const { return params_; }
  Cycle now() const { return now_; }
  int num_nodes() const { return params_.num_nodes(); }

  /// Configures the set of active traffic endpoints (logical id i maps to
  /// physical node endpoints[i]) and the traffic pattern among them.  All
  /// other NIs stop generating.
  void set_endpoints(std::vector<NodeId> endpoints,
                     std::unique_ptr<TrafficPattern> traffic);

  /// Statically power-gates every router whose node is not in the active
  /// set, leaving the active sub-network on (NoC-sprinting's scheme).
  /// Requires a drained network.
  void gate_dark_region(const std::vector<NodeId>& active);

  /// Ungates every router.
  void ungate_all();

  /// Enables conventional dynamic power gating (idle-timeout + wake-on-
  /// arrival) on every router.
  void set_dynamic_gating(bool enabled);

  /// Sets the same offered load on every active endpoint (flits/cycle).
  void set_injection_rate(double flits_per_cycle_per_node);

  /// Switches every NI to request-reply protocol mode (short class-0
  /// requests, `reply_length`-flit class-1 data replies).  Requires
  /// params.num_classes >= 2.
  void set_request_reply(int request_length, int reply_length);

  /// Reseeds all NI RNGs deterministically from one master seed.
  void set_seed(std::uint64_t seed);

  // --- multicast ------------------------------------------------------------

  /// Registers a multicast destination set and returns its group id for
  /// NetworkInterface::send_multicast.  Members are sorted and
  /// deduplicated; the sorted order defines the deterministic tree shape.
  /// Groups are configuration (like endpoints), not dynamic state: a
  /// restored network must re-register the same groups before load_state.
  int add_multicast_group(std::vector<NodeId> members);

  /// Number of registered groups.
  int num_multicast_groups() const {
    return static_cast<int>(mcast_groups_.size());
  }

  /// Sorted members of group `g`.
  const std::vector<NodeId>& multicast_group(int g) const {
    return mcast_groups_.at(static_cast<std::size_t>(g));
  }

  /// Switches every NI between tree multicast (true) and the
  /// serial-unicast fallback (false, the default — `multicast=off` keeps
  /// runs without multicast senders bit-identical to older builds).
  void set_multicast(bool enabled);

  // --- per-cycle hook -------------------------------------------------------

  /// Installs a hook run serially at the top of every tick(), before the
  /// (possibly parallel) simulation phases — the injection point for
  /// closed-loop workload drivers (mem::TileTransferDriver).  Runs on the
  /// calling thread regardless of sim_threads, so anything it does is
  /// bit-identical for any thread count.  Pass nullptr to remove.
  void set_pre_tick_hook(std::function<void(Cycle)> hook) {
    pre_tick_ = std::move(hook);
  }

  // --- fault resilience -----------------------------------------------------

  /// Attaches `oracle` to every router and NI and, when `prot` is non-null,
  /// turns on end-to-end protection (checksum + ACK/NACK retransmission +
  /// duplicate filtering) at every NI.  Pass a null oracle to detach; the
  /// fault-free path is bit-identical when nothing is attached.
  void enable_resilience(FaultOracle* oracle,
                         const ProtectionParams* prot = nullptr);

  /// Flit-movement signature consumed by livelock/deadlock watchdogs: the
  /// value changes whenever any flit moves anywhere (buffer write, crossbar
  /// traversal, NI inject/eject) and stays put while the network is wedged.
  /// Pure cycle counters are excluded so an idle-but-alive network does not
  /// mask a stall.
  std::uint64_t progress_signature() const;

  /// Multi-line per-router diagnostic dump (power state, buffered flits,
  /// output credits, NI queue/unacked depth) for watchdog reports.  Only
  /// non-quiescent nodes are listed.
  std::string debug_snapshot() const;

  /// Advances the whole network by one cycle.
  void tick();

  /// Runs `n` cycles.
  void run(Cycle n);

  // --- intra-simulation parallelism -----------------------------------------

  /// Shards tick() spatially across `n` threads (contiguous node-id
  /// ranges, one barrier-synchronized phase pair per cycle).  n <= 0
  /// selects default_sim_thread_count() (the NOCS_SIM_THREADS environment
  /// variable off thread-pool workers, else 1 = serial); the value is
  /// clamped to the node count so every shard owns at least one node.
  /// Results are bit-identical for every thread count — see
  /// docs/ARCHITECTURE.md for the argument.
  /// Resets the fast-path scheduler conservatively (all nodes hot), which
  /// is also bit-identical, so the call is legal at any cycle boundary —
  /// including right after load_state with a different thread count than
  /// the checkpoint was written under.
  void set_sim_threads(int n);

  /// Shard count the tick loop actually uses (>= 1; after clamping).
  int sim_threads() const { return static_cast<int>(shards_.size()); }

  // Router accessors flush the lazily-synced leakage counters first so
  // callers always observe the same counts as if every cycle were ticked.
  Router& router(NodeId id) {
    Router& r = *routers_.at(static_cast<std::size_t>(id));
    r.sync_counters(now_);
    return r;
  }
  const Router& router(NodeId id) const {
    const Router& r = *routers_.at(static_cast<std::size_t>(id));
    r.sync_counters(now_);
    return r;
  }
  NetworkInterface& ni(NodeId id) {
    return *nis_.at(static_cast<std::size_t>(id));
  }

  /// Bytes of node `id`'s state block (see node_blocks_).
  std::size_t node_block_bytes(NodeId id) const;

  /// Number of routers scheduled to tick next cycle (fast-path
  /// instrumentation): a popcount of the shards' hot-router bitsets.
  int hot_routers() const {
    int n = 0;
    for (const Shard& sh : shards_)
      for (const std::uint64_t word : sh.hot_routers) n += std::popcount(word);
    return n;
  }

  /// True when router `id`'s hot bit is set (it ticks next cycle).
  bool router_hot(NodeId id) const {
    const Shard& sh = shards_[shard_of_.at(static_cast<std::size_t>(id))];
    const auto bit = static_cast<std::size_t>(id - sh.begin);
    return ((sh.hot_routers[bit >> 6] >> (bit & 63)) & 1u) != 0;
  }

  StatsCollector& stats() { return stats_; }
  const StatsCollector& stats() const { return stats_; }

  /// True when no flit is anywhere in the network (buffers, links, NIs).
  /// Exact and cheap: O(shards) while any flit is in flight (the flit
  /// balance is nonzero), otherwise one idle() check per NI up to the
  /// first busy one.  Every true answer is re-verified against
  /// drained_reference() under NOCS_ASSERT.
  bool drained() const;

  /// The reference O(nodes * VCs + pipes) drain scan drained() must agree
  /// with: every NI idle, every router drained, every arrival log and
  /// ejection pipe empty.
  bool drained_reference() const;

  /// The input-bit invariant, checked by brute force between ticks: every
  /// non-empty router input log has a wake for that input waiting in its
  /// owner's wheel at the head's ready time, unless its bit is set and the
  /// head is due by the next cycle.
  /// O(pipes * wake entries per bucket); for tests.
  bool input_wakes_armed() const;

  /// Credit conservation law, checked between ticks: for every link and
  /// VC, the sender's credits plus that VC's arrivals on the link's log
  /// plus the receiver's input-VC occupancy equal vc_depth, and the
  /// sender's tail index names the slot after the VC's last pending flit;
  /// the same for the NI -> router injection pair, and the credit law for
  /// the router -> NI ejection pair (the NI buffers nothing).  Aborts on a
  /// violation.  O(links * VCs + flits in flight).
  void check_credit_conservation() const;

  /// Flits between NI injection and NI ejection: the shards' signed flit
  /// balances plus the network-level base.  O(shards).
  std::int64_t flits_in_flight() const;

  /// Flit conservation law: aborts unless flits_in_flight() equals the
  /// flits counted in router input buffers plus the arrivals logged on
  /// router inputs (each one pending flit in a reserved slot) plus the
  /// ejection pipes' flits.
  void check_flit_conservation() const;

  /// Packet record conservation law: aborts unless the live records are
  /// exactly the packets with a flit buffered, pending or ejecting plus
  /// those an NI is mid-way through injecting, with no record released
  /// twice.  O(records + flits).
  void check_packet_records() const;

  /// Sum of all router counters (for power estimation).
  RouterCounters total_counters() const;

  /// Per-router counters indexed by node id.
  std::vector<RouterCounters> per_router_counters() const;

  /// Clears all router counters.
  void reset_counters();

  const std::vector<NodeId>& endpoints() const { return endpoints_; }

  // --- checkpoint/restore ---------------------------------------------------
  //
  // save_state captures the complete dynamic state (current cycle, every
  // router/NI, every in-flight flit and credit, statistics) plus a
  // topology fingerprint.  load_state requires a network constructed and
  // configured (endpoints, seed, gating, rates) exactly as the saved one;
  // it verifies the fingerprint, restores the dynamic state, and resets
  // the fast-path scheduling so the resumed simulation is bit-identical
  // to one that never stopped.
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r);

 private:
  // --- active-node fast path + spatial sharding ----------------------------
  //
  // tick() only visits routers/NIs whose hot bit is set.  A node stays hot
  // while it self-reports work (busy_next_cycle()).  Every push into an
  // empty arrival log or ejection pipe schedules a wake for the consumer
  // via the channel's NodeSink, which names the consumer and, for a
  // router, the input port of that log; the wake waits in a calendar
  // wheel indexed by its ready time masked to the wheel's power-of-two
  // size.  When it fires it sets the router's input bit and the hot bit.
  // A router reads only the inputs whose bit is set and keeps a bit only
  // while its log's head is due by the next cycle: it clears the bit of
  // an empty log and re-arms a later head's wake (Pipe::rearm).  So the
  // invariant is: every non-empty router input log has a wheel or outbox
  // wake pending at its head's ready time, unless its bit is set and the
  // head is due by the next cycle.  A router cooling with no bit set
  // therefore needs no re-arm, and is ticked on the cycles a wake-driven
  // schedule would tick it.  An NI going cold re-arms at the head of its
  // ejection pipe.  Hot nodes are ticked in
  // ascending node id order, preserving the exact stats/counter
  // accumulation order of the tick-everything loop; a shard with no hot
  // bit skips both phases' walks.
  //
  // All of that mutable scheduling state lives per *shard* — a contiguous
  // range of node ids (on a row-major mesh, a band of rows whenever the
  // shard count divides the height).  Serial operation is simply the
  // 1-shard case of the same code path.  With S > 1 shards each cycle runs
  // as two barrier-synchronized phases on a BarrierTeam:
  //
  //   phase 1 (tick):       each shard processes its own wheel bucket and
  //                         ticks its hot NIs then hot routers, ascending
  //                         id.  A flit sent to a neighbor-shard router
  //                         goes into that router's reserved ring slot,
  //                         and the push onto its arrival log notifies the
  //                         consumer via schedule(), which appends the
  //                         wake to the *producer* shard's outbox instead
  //                         of touching foreign wheels.
  //   phase 2 (cool/re-arm): each shard imports wakes addressed to it from
  //                         every outbox (fixed shard order), returns the
  //                         credits its hot NIs and routers freed in phase
  //                         1, re-checks the router inputs fed from another
  //                         shard that phase 1 found empty (a push racing
  //                         that pop is visible only behind the barrier),
  //                         then cools its own quiescent nodes.  Only owner
  //                         shards ever write their hot bits, input bits,
  //                         wheels and flit balances.
  //
  // Packet records follow the same ownership: an NI acquires and releases
  // them only through its shard's pool, and after phase 2 the caller
  // thread refills every pool (PacketRecords::refill), serially and also
  // when serial, so no phase sees record storage grow.
  //
  // Credit return rule.  Credits travel in no pipe: in phase 2 a router
  // adds one credit per buffer slot its switch traversal freed to the
  // sender's counter (the upstream router's output credits for that link
  // and VC, or the NI's credits for the local port), and an NI adds the
  // credits of the flits it ejected to its router's local output credits.
  // The counter may belong to another shard's node.  That is race-free:
  // each (router, output port, VC) counter and each NI counter has exactly
  // one writer in phase 2, the node downstream of it, and nothing else
  // reads or writes credits in phase 2; phase 1 reads and spends only a
  // node's own credits, and the barriers order the two.  A credit freed at
  // t is first read by the sender's allocation at t+1, as one sent through
  // a 1-cycle pipe was, and its arrival needs no wake: ticking a node with
  // nothing but a credit to read was a no-op beyond leakage accounting.
  //
  // After the second barrier the caller thread drains every shard's
  // deferred statistics into the master collector in ascending shard
  // order, which replays ejection events in exactly the serial ascending-
  // node-id order — bit-identical floating-point accumulation for any
  // thread count (pipes guarantee a ≥1-cycle latency, so shards never
  // observe same-cycle neighbor state; see docs/ARCHITECTURE.md).
  //
  // Reserved-slot rule.  A sender writes a flit into the receiver's
  // input-VC ring in phase 1, at the slot its own tail index names, and
  // only then pushes the VC onto the arrival log, whose release store
  // publishes the slot.  The receiver reads a slot only after popping its
  // arrival (an acquire), and the sender writes a slot only with a credit
  // for it: the credit returns in phase 2, after the receiver's switch
  // traversal emptied the slot in phase 1.  So the sender's writes and the
  // receiver's reads of a slot never overlap, each tail index has one
  // writer (the sender) and each head and count one (the receiver).

  /// Wake encoding: node id << kInputBits | input, where input is a
  /// router input port (< kMaxPorts) or kNiInput.
  static constexpr int kInputBits = 6;
  static constexpr std::uint32_t kNiInput = kMaxPorts;
  static std::uint32_t wake_code(NodeId id, std::uint32_t input) {
    return (static_cast<std::uint32_t>(id) << kInputBits) | input;
  }

  /// Per-channel wake hook: routes Pipe push notifications to schedule().
  struct NodeSink final : WakeSink {
    Network* net = nullptr;
    std::uint32_t enc = 0;  ///< wake_code of the consumer
    void on_push(Cycle ready_at) override;
  };

  /// A wake request produced for a node owned by another shard.
  struct WakeEvent {
    std::uint32_t enc;
    Cycle at;
  };

  /// All per-cycle mutable scheduling state of one id range, cache-line
  /// aligned so neighbor shards' writes never false-share.
  struct alignas(64) Shard {
    NodeId begin = 0;  ///< first owned node id
    NodeId end = 0;    ///< one past the last owned node id
    /// Hot bitsets, bit (id - begin): the router / NI ticks next cycle.
    std::vector<std::uint64_t> hot_routers;
    std::vector<std::uint64_t> hot_nis;
    /// Calendar wheel of pending wake-ups, bucket = cycle & wheel_mask().
    std::vector<std::vector<std::uint32_t>> wheel;
    /// Wakes this shard produced for other shards' nodes this cycle.
    std::vector<WakeEvent> outbox;
    /// Deferring collector fed by this shard's NIs (S > 1 only).
    StatsCollector stats;
    std::uint64_t active = 0;       ///< set hot bits (live entities)
    /// Flits this shard's NIs injected minus flits they ejected since the
    /// last rebuild_shards (signed: a flit may leave on another shard).
    std::int64_t flit_balance = 0;
  };

  void schedule(std::uint32_t enc, Cycle ready_at);
  void schedule_local(Shard& sh, std::uint32_t enc, Cycle ready_at);
  /// Fires a due wake: sets the router input bit it names, if any, and
  /// the consumer's hot bit.
  void wake(std::uint32_t enc) {
    const auto id = static_cast<NodeId>(enc >> kInputBits);
    const std::uint32_t input = enc & ((1u << kInputBits) - 1);
    if (input != kNiInput)
      routers_[static_cast<std::size_t>(id)]->note_input(
          static_cast<int>(input));
    mark_hot(id, input == kNiInput);
  }
  void mark_hot(NodeId id, bool ni) {
    Shard& sh = shards_[shard_of_[static_cast<std::size_t>(id)]];
    const auto bit =
        static_cast<std::size_t>(id) - static_cast<std::size_t>(sh.begin);
    std::uint64_t& word = (ni ? sh.hot_nis : sh.hot_routers)[bit >> 6];
    const std::uint64_t m = std::uint64_t{1} << (bit & 63);
    if ((word & m) == 0) {
      word |= m;
      ++sh.active;
    }
  }
  /// A new wake hook naming `enc` (sinks_ is reserved up front, so the
  /// returned pointer stays valid).
  WakeSink* new_sink(std::uint32_t enc) {
    NOCS_EXPECTS(sinks_.size() < sinks_.capacity());
    sinks_.push_back(NodeSink{});
    sinks_.back().net = this;
    sinks_.back().enc = enc;
    return &sinks_.back();
  }

  /// Rebuilds the shard partition for sim_threads_ shards with the
  /// conservative scheduler reset (everything hot, wheels empty), folding
  /// the old shards' flit balances into flit_base_.
  void rebuild_shards();
  void tick_phase1(int s);
  void tick_phase2(int s);
  /// Flits counted where they sit: router input buffers, arrivals on
  /// router inputs, and ejection pipes.
  std::int64_t counted_flits() const;

  /// Input log `k`'s reader (see input_logs_) and the port it reads on.
  std::pair<Router*, int> log_reader(std::size_t k) const;
  /// The tail indices of input log `k`'s sender, one per VC.
  std::int16_t* log_writer_tails(std::size_t k) const;
  /// Returns a walk over input log `k`'s pending flits: called with each
  /// logged VC in arrival order, it returns that arrival's flit (the
  /// reader's next pending slot on the VC).
  auto pending_walk(std::size_t k) const {
    const auto [reader, port] = log_reader(k);
    return [reader, port,
            seen = std::vector<int>(static_cast<std::size_t>(
                params_.num_vcs))](VcId vc) mutable -> const Flit& {
      return reader->input_buffer(port, vc).pending(
          seen[static_cast<std::size_t>(vc)]++);
    };
  }
  /// Bytes of node `id`'s block when link l into it has latency
  /// `latency(l)`.
  template <typename LinkLatency>
  std::size_t block_bytes(NodeId id, const LinkLatency& latency) const;
  /// Sections one per input log and ejection pipe (the checkpoint's flit
  /// channels, and its credit channels one for one).
  std::size_t num_channels() const {
    return input_logs_.size() + eject_pipes_.size();
  }

  NetworkParams params_;
  Topology topo_;
  const RoutingPolicy* policy_ = nullptr;
  Cycle now_ = 0;

  /// Node-major state: one cache-line-aligned block per node, allocated
  /// in ascending id order, holding the node's router and the router's
  /// state block (its input-VC rings among it), its NI, and every channel
  /// the node consumes (router input arrival logs by port, then the NI's
  /// ejection pipe), each with its ring inline.  The
  /// vectors below point into the blocks, and ~Network ends those
  /// objects' lifetimes before the blocks are freed.  (A block is a few
  /// KiB, so the allocator reuses freed ones for the next network; one
  /// network-sized block would cross malloc's mmap threshold, raise it
  /// when freed, and leave the next network's block fragmenting the heap.)
  std::vector<LineBlock> node_blocks_;
  std::vector<Router*> routers_;
  std::vector<NetworkInterface*> nis_;
  /// Router input logs: one per topology link in links() order, then per
  /// node the injection log (NI -> router).
  std::vector<ArrivalLog*> input_logs_;
  /// Per node, the ejection pipe (router -> NI).
  std::vector<Pipe<Flit>*> eject_pipes_;
  // Checkpoints write a flit channel per link in links() order, then per
  // node its injection log and ejection pipe; that order does not depend
  // on where the channels sit in memory.

  std::vector<NodeId> endpoints_;
  std::unique_ptr<TrafficPattern> traffic_;
  std::vector<std::vector<NodeId>> mcast_groups_;
  std::function<void(Cycle)> pre_tick_;

  std::vector<NodeSink> sinks_;  // one per channel
  int sim_threads_ = 1;
  int wheel_slots_ = 0;  // per-shard wheel size: bit_ceil(max latency + 2)
  Cycle wheel_mask() const { return static_cast<Cycle>(wheel_slots_ - 1); }
  std::vector<Shard> shards_;
  std::vector<std::uint32_t> shard_of_;  // node id -> owning shard
  std::unique_ptr<BarrierTeam> team_;    // S-1 workers when S > 1
  /// Flits in flight not accounted in any shard's balance: folded in when
  /// the shards are rebuilt, re-derived from the buffers on load_state.
  std::int64_t flit_base_ = 0;
  /// Every flit's packet bookkeeping, one pool per shard.
  PacketRecords records_;

  StatsCollector stats_;
};

}  // namespace nocs::noc
