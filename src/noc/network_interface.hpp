// Network interface (NI): packetizes traffic into flits, injects them into
// the local router port under credit flow control, and ejects/records
// arriving packets.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "noc/channel.hpp"
#include "noc/counters.hpp"
#include "noc/fault_hooks.hpp"
#include "noc/flit.hpp"
#include "noc/local_agent.hpp"
#include "noc/packet_record.hpp"
#include "noc/params.hpp"
#include "noc/stats_collector.hpp"
#include "noc/traffic.hpp"

namespace nocs::noc {

class NetworkInterface {
 public:
  NetworkInterface(NodeId id, const NetworkParams& params,
                   StatsCollector* stats);

  NodeId id() const { return id_; }

  /// Repoints the statistics collector (the sharded tick gives every NI
  /// its shard's deferring collector; serial mode points back at the
  /// master).  Safe between ticks only.
  void set_stats(StatsCollector* stats) {
    NOCS_EXPECTS(stats != nullptr);
    stats_ = stats;
  }

  /// Points the NI at the signed flit counter it adds one to per injected
  /// flit and subtracts one from per ejected flit (the network gives every
  /// NI its shard's balance before the first tick).  Safe between ticks
  /// only.
  void set_flit_balance(std::int64_t* balance) {
    NOCS_EXPECTS(balance != nullptr);
    flit_balance_ = balance;
  }

  /// Points the NI at the network's record store and its shard's pool:
  /// it acquires a record from the pool when it starts injecting a packet
  /// and releases each ejected packet's record into it after the tail.
  /// Safe between ticks only.
  void set_records(PacketRecords* records, PacketRecords::Pool* pool) {
    NOCS_EXPECTS(records != nullptr && pool != nullptr);
    records_ = records;
    pool_ = pool;
  }

  /// The record of the packet this NI is mid-way through injecting.
  std::optional<RecordRef> injecting_record() const {
    return sending_ ? std::optional<RecordRef>(current_ref_) : std::nullopt;
  }

  /// After load_state and the network's flits: reattaches a mid-packet
  /// injection to its record, rebuilding it from the packet when none of
  /// its flits is still in the network.
  void restore_record(RecordRestore& restore);

  /// Wires the two local channels between this NI and its router, and
  /// `router_credits`, the router's per-VC credit counters for its local
  /// output, which ejected flits return their credits to.
  void connect(Pipe<Flit>* to_router, Pipe<Flit>* from_router,
               std::int16_t* router_credits);

  /// Per-VC credits for the router's local input port: the router returns
  /// here the credit of each slot an injected flit frees.
  std::int16_t* credits() { return credits_.data(); }
  int credits(VcId vc) const { return credits_[static_cast<std::size_t>(vc)]; }

  /// Returns the credits of the flits this cycle's tick ejected to the
  /// router's counters.  Called behind the phase barrier, like
  /// Router::return_credits.
  void return_credits() {
    for (const VcId vc : ejected_vcs_) {
      std::int16_t& c = router_credits_[vc];
      ++c;
      NOCS_ENSURES(c <= params_.vc_depth);
    }
    ejected_vcs_.clear();
  }

  /// Marks this NI as an active traffic endpoint with the given logical id
  /// and endpoint table (logical id -> physical node).  Inactive NIs only
  /// eject (they never generate packets).
  void set_endpoint(int logical_id, const std::vector<NodeId>* endpoints,
                    const TrafficPattern* traffic);
  void clear_endpoint();
  bool is_active_endpoint() const { return traffic_ != nullptr; }

  /// Offered load in flits/cycle for this node.
  void set_injection_rate(double flits_per_cycle) {
    NOCS_EXPECTS(flits_per_cycle >= 0.0);
    injection_rate_ = flits_per_cycle;
    if (wake_cb_) wake_cb_();
  }

  void set_seed(std::uint64_t seed) { rng_.reseed(seed); }

  /// Enables request-reply protocol mode: generated packets become
  /// `request_length`-flit requests on class 0, and every request this NI
  /// ejects triggers a `reply_length`-flit reply on class 1 back to the
  /// requester (the shape of cache request/data traffic).  Requires
  /// params.num_classes >= 2.
  void set_request_reply(int request_length, int reply_length);

  // --- end-to-end protection (fault resilience) -----------------------------

  /// Turns on per-packet checksum verification, ACK/NACK-driven
  /// retransmission with capped exponential backoff, and duplicate
  /// filtering.  Off by default; fault-free runs are bit-identical.
  void enable_protection(const ProtectionParams& prot);

  /// Oracle consulted for injection-time packet drops (may be null).
  void set_fault_oracle(FaultOracle* oracle) { oracle_ = oracle; }

  // --- node-local agent (memory controllers etc.) ---------------------------

  /// Attaches a node-local agent: every ejected data/multicast tail is
  /// delivered with its packet's record through agent->on_packet(), the
  /// agent is ticked between ejection and injection each cycle, and its
  /// pending work keeps this NI hot and un-drained.  Pass nullptr to detach.  Incompatible with
  /// end-to-end protection mode (the agent would observe retransmitted
  /// duplicates).
  void set_agent(LocalAgent* agent) {
    NOCS_EXPECTS(agent == nullptr || !protection_);
    agent_ = agent;
    if (agent != nullptr && wake_cb_) wake_cb_();
  }
  LocalAgent* agent() const { return agent_; }

  // --- multicast ------------------------------------------------------------

  /// Points this NI at the network's shared multicast group table
  /// (required before send_multicast; relays also resolve member
  /// subranges through it).
  void set_multicast_table(const std::vector<std::vector<NodeId>>* groups) {
    mcast_groups_ = groups;
  }

  /// Selects tree multicast (true) or the serial-unicast fallback (false,
  /// the `multicast=off` bit-identity reference).
  void set_multicast_enabled(bool enabled) { multicast_ = enabled; }

  /// Router counters charged for multicast replications at this node
  /// (wired by Network to the co-located router).
  void set_mc_counters(RouterCounters* counters) { mc_counters_ = counters; }

  /// Sends one `length`-flit payload to every member of multicast group
  /// `group` except this node.  With multicast enabled the packet travels
  /// a deterministic source-rooted tree: the source addresses the median
  /// member of the sorted member list, and each receiver re-injects
  /// copies toward the medians of the two remaining subranges (descriptor
  /// packed into Flit::ack_for), so every member receives exactly one
  /// copy and replication work is spread over the tree instead of the
  /// source link.  With multicast disabled the same delivery set is
  /// produced by serial unicasts in ascending member order.  Returns the
  /// id of the first packet enqueued (0 when the group contains no other
  /// members).  Incompatible with protection mode.
  PacketId send_multicast(Cycle now, int group, int msg_class = 0,
                          int length = 0);

  /// Data packets sent but not yet acknowledged (protection mode only).
  std::size_t unacked_count() const { return unacked_.size(); }

  /// Advances one cycle: eject, generate, inject.
  void tick(Cycle now);

  /// Directly enqueues one packet to `dst` (used by tests and the CMP
  /// trace-driven mode); returns its packet id.  `msg_class` selects the
  /// virtual network; `length` <= 0 means params.packet_length.
  PacketId send_packet(Cycle now, NodeId dst, int msg_class = 0,
                       int length = 0);

  /// Number of packets waiting in the source queue (saturation signal).
  std::size_t source_queue_depth() const { return source_queue_.size(); }

  /// True when nothing is queued, mid-injection, awaiting an ACK, or
  /// pending inside the attached agent.
  bool idle() const {
    return source_queue_.empty() && !sending_ && unacked_.empty() &&
           (agent_ == nullptr || agent_->idle());
  }

  // --- active-node fast path (see Router's invariant) ----------------------

  /// True when the NI must be ticked next cycle regardless of channel
  /// arrivals: it may generate traffic stochastically, or it holds queued /
  /// in-flight packets.  NIs keep no per-cycle counters, so skipped cycles
  /// need no lazy accounting.
  bool busy_next_cycle() const {
    if (traffic_ != nullptr && injection_rate_ > 0.0) return true;
    // An agent mid-service must keep ticking even while the NI itself has
    // nothing queued (its completion will enqueue a reply later).
    if (agent_ != nullptr && agent_->busy_next_cycle()) return true;
    // Unacked packets keep the NI ticking so retransmission timers fire.
    return !idle();
  }

  /// Ready time of the earliest pending flit from the router, or
  /// kNoPendingEvent.
  Cycle next_input_event() const {
    return from_router_ != nullptr ? from_router_->next_ready_time()
                                   : kNoPendingEvent;
  }

  /// Callback invoked when new work appears outside tick() (direct
  /// send_packet, endpoint/rate configuration).
  void set_wake_callback(std::function<void()> cb) { wake_cb_ = std::move(cb); }

  /// Re-arms the active-node fast path after work appeared out of band —
  /// required whenever the attached agent receives work not routed through
  /// this NI (a local DRAM access, a restored in-service request), since a
  /// cold node with a busy agent would otherwise never tick again.
  void wake() {
    if (wake_cb_) wake_cb_();
  }

  std::uint64_t total_generated() const { return total_generated_; }
  std::uint64_t total_ejected_flits() const { return total_ejected_flits_; }

  // --- checkpoint/restore ---------------------------------------------------
  //
  // Dynamic state only: RNG position, source queue, in-flight injection,
  // credits, and protection bookkeeping.  Endpoint/traffic/protection
  // configuration is re-applied by the caller before load_state.
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r);

 private:
  struct PendingPacket {
    PacketId id;
    NodeId dst;
    Cycle created;
    bool measured;
    int msg_class;
    int length;
    PacketKind kind = PacketKind::kData;
    PacketId ack_for = 0;
  };

  /// Sender-side retransmission record for one unacknowledged data packet.
  struct Unacked {
    PendingPacket pkt;
    Cycle deadline = 0;  ///< when the next timeout retransmission fires
    int retries = 0;
  };

  /// Receiver-side state of one packet mid-ejection (protection mode).
  struct RxPacket {
    bool corrupted = false;
    int measured_flits = 0;
  };

  static void save_pending(snapshot::Writer& w, const PendingPacket& p);
  /// Rejects a kind, class, length or destination this network cannot hold.
  PendingPacket load_pending(snapshot::Reader& r, int min_length) const;

  /// Packs/unpacks the multicast tree descriptor carried in Flit::ack_for:
  /// group id (24 bits) | subrange lo (20 bits) | subrange hi (20 bits).
  static PacketId pack_mcast(int group, int lo, int hi);
  static void unpack_mcast(PacketId d, int* group, int* lo, int* hi);

  /// Enqueues the tree segments covering members[lo..hi] of `group`
  /// (inclusive), skipping this node itself.  `relay` marks re-injected
  /// copies (charged to mc_counters_).
  void send_mcast_range(Cycle now, int group, int lo, int hi, Cycle created,
                        bool measured, int msg_class, int length, bool relay);
  void handle_mcast(Cycle now, const Flit& f, const PacketRecord& rec);

  void eject(Cycle now);
  void eject_plain(Cycle now, const Flit& f, const PacketRecord& rec);
  void eject_protected(Cycle now, const Flit& f, const PacketRecord& rec);
  void generate(Cycle now);
  void inject(Cycle now);
  void check_timeouts(Cycle now);
  void queue_retransmit(Cycle now, Unacked& u);
  void send_control(Cycle now, NodeId dst, PacketKind kind, PacketId ack_for,
                    int msg_class);
  Cycle backoff(int retries) const;

  NodeId id_;
  NetworkParams params_;
  StatsCollector* stats_;
  std::int64_t* flit_balance_ = nullptr;
  PacketRecords* records_ = nullptr;
  PacketRecords::Pool* pool_ = nullptr;

  Pipe<Flit>* to_router_ = nullptr;
  Pipe<Flit>* from_router_ = nullptr;
  std::int16_t* router_credits_ = nullptr;

  int logical_id_ = -1;
  const std::vector<NodeId>* endpoints_ = nullptr;
  const TrafficPattern* traffic_ = nullptr;
  double injection_rate_ = 0.0;
  Rng rng_;

  std::deque<PendingPacket> source_queue_;
  std::vector<std::int16_t> credits_;  // per-VC, the router's local port
  /// VCs of the flits this tick ejected, owed to router_credits_ (room for
  /// an ejection pipe's worth, so pushes never reallocate).
  std::vector<VcId> ejected_vcs_;

  bool sending_ = false;
  PendingPacket current_{};
  RecordRef current_ref_ = 0;  ///< current_'s record while sending_
  int flits_sent_ = 0;
  VcId current_vc_ = -1;
  Cycle head_injected_ = 0;
  int vc_rr_ = 0;

  bool request_reply_ = false;
  int request_length_ = 1;
  int reply_length_ = 5;

  LocalAgent* agent_ = nullptr;
  const std::vector<std::vector<NodeId>>* mcast_groups_ = nullptr;
  bool multicast_ = false;
  RouterCounters* mc_counters_ = nullptr;

  // End-to-end protection state (all empty/inert unless enabled).
  // std::map keeps timeout-scan iteration order deterministic.
  bool protection_ = false;
  ProtectionParams prot_;
  FaultOracle* oracle_ = nullptr;
  std::map<PacketId, Unacked> unacked_;
  Cycle next_deadline_ = kNoPendingEvent;  ///< earliest unacked deadline
  std::map<PacketId, RxPacket> rx_state_;  ///< packets mid-ejection
  std::unordered_set<PacketId> delivered_; ///< duplicate filter

  std::function<void()> wake_cb_;

  std::uint64_t total_generated_ = 0;
  std::uint64_t total_ejected_flits_ = 0;
  PacketId next_packet_id_ = 1;
};

}  // namespace nocs::noc
