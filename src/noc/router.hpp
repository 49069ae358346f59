// Cycle-accurate wormhole router with virtual channels, credit-based flow
// control, a classic five-stage pipeline, and a power-gating state machine.
//
// Pipeline (Table 1: "classic five-stage"): a flit written into an input
// buffer at cycle t (BW) has its route computed at t+1 (RC, head only),
// wins a virtual channel at t+2 (VA), arbitrates for the switch at t+3
// (SA), and traverses the crossbar at t+4 (ST), reaching the next router
// after one further link cycle (LT).  The stages are evaluated in reverse
// order inside tick() so each flit advances at most one stage per cycle.
//
// Credit flow control: a router sends a flit only on an output VC holding
// a credit of the downstream buffer.  A credit stands for one slot of the
// downstream input-VC ring, so switch traversal writes the flit straight
// into that slot — the one the output VC's tail index names, kept next
// to its credit counter — and pushes only the VC id into the link's
// ArrivalLog.  The receiver buffers the flit (BW) when the log says it
// has arrived, with no copy.  When switch traversal frees an input buffer
// slot, the credit goes straight back into the sender's counter, not
// through a channel: the network applies it behind its phase barrier
// (return_credits), so the sender spends it the next cycle.
//
// Power gating: a router can be statically gated (NoC-sprinting's dark
// region — no traffic may ever arrive, enforced by assertion) or
// dynamically gated (gate after `gate_idle_threshold` idle cycles, wake on
// arrival after `wakeup_latency` cycles), which models the conventional
// power-gating schemes the paper compares against.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>

#include "common/geometry.hpp"
#include "noc/buffer.hpp"
#include "noc/channel.hpp"
#include "noc/counters.hpp"
#include "noc/fault_hooks.hpp"
#include "noc/flit.hpp"
#include "noc/params.hpp"
#include "noc/routing.hpp"
#include "noc/topology.hpp"

namespace nocs::noc {

/// Power state of a router.
enum class PowerState { kActive, kGated, kWaking };

class Router {
 public:
  /// One port slot per topology port of node `id`, routed by `policy`.
  /// Both `topo` and `policy` must outlive the router.  Every per-port and
  /// per-VC array lives in one state block at `storage`: at least
  /// storage_bytes(params, topo.num_ports(id)) bytes, cache-line aligned
  /// and outliving the router (the network carves it out of the node's
  /// block).
  Router(NodeId id, const NetworkParams& params, const Topology& topo,
         const RoutingPolicy* policy, std::byte* storage);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Bytes of the state block of a router with `nports` ports.
  static std::size_t storage_bytes(const NetworkParams& params, int nports) {
    return layout(params, nports).bytes;
  }

  NodeId id() const { return id_; }
  int num_ports() const { return nports_; }

  /// Wires one input direction: the sender writes each flit into the
  /// port's VC rings (input_slots) and logs its arrival on `arrivals`, and
  /// the credit for each buffer slot a flit frees on VC v goes to
  /// `credit_out[v]`, the upstream sender's per-VC credit counters for
  /// this link (see return_credits).  Null pointers mark a disconnected
  /// port (mesh edge).
  void connect_input(int port, ArrivalLog* arrivals, std::int16_t* credit_out);
  void connect_input(Port p, ArrivalLog* arrivals, std::int16_t* credit_out) {
    connect_input(static_cast<int>(p), arrivals, credit_out);
  }

  /// Wires one output toward another router: flits go into `slots`, the
  /// receiving port's input_slots(), and their arrivals onto `arrivals`.
  void connect_output(int port, ArrivalLog* arrivals, Flit* slots);
  void connect_output(Port p, ArrivalLog* arrivals, Flit* slots) {
    connect_output(static_cast<int>(p), arrivals, slots);
  }

  /// Wires the local output: ejected flits leave on `eject`.
  void connect_ejection(Pipe<Flit>* eject) { eject_ = eject; }

  /// Input `port`'s VC rings, num_vcs runs of vc_depth slots (VC v's ring
  /// starts at v * vc_depth): the sender writes each flit into the slot
  /// its credit reserves.
  Flit* input_slots(int port) {
    return in_vc(port, 0).buf.storage();
  }

  /// Input VC (port, vc)'s ring: its buffered flits, then the flits its
  /// sender has written but whose arrival is still on the link.
  const VcBuffer& input_buffer(int port, int vc) const {
    return in_vc(port, vc).buf;
  }
  VcBuffer& input_buffer(int port, int vc) { return in_vc(port, vc).buf; }

  /// Output `port`'s credit counters, one per VC: the downstream receiver
  /// of that output returns its credits here.
  std::int16_t* output_credits(int port) {
    return credits_ + port * params_.num_vcs;
  }
  int output_credits(int port, int vc) const {
    return credits_[port * params_.num_vcs + vc];
  }

  /// Output `port`'s tail indices, one per VC: the ring index in the
  /// downstream input VC that the next flit sent on that VC goes to.
  /// Only this router writes them (switch traversal); Network::load_state
  /// re-derives them.
  std::int16_t* output_tails(int port) {
    return tails_ + port * params_.num_vcs;
  }

  /// Input VC (port, vc)'s buffered flits.
  int buffered_flits(int port, int vc) const {
    return in_vc(port, vc).buf.size();
  }

  /// Advances the router by one cycle.
  void tick(Cycle now);

  /// Returns the credits of the buffer slots this cycle's switch
  /// traversal freed: one per slot to the upstream counter connect_input
  /// named.  The network calls it behind the phase barrier (phase 2 of
  /// the cycle the router ticked), so a credit freed at cycle t first
  /// counts in the upstream's switch allocation at t+1, as a credit sent
  /// through a 1-cycle pipe would.
  void return_credits() {
    for (const Grant& g : std::span(freed_, num_freed_)) {
      std::int16_t& c = ports_[g.in_port].credit_out[g.in_vc];
      ++c;
      NOCS_ENSURES(c <= params_.vc_depth);
    }
    num_freed_ = 0;
  }

  // --- power gating -------------------------------------------------------

  /// Statically gates/ungates the router (configuration time; buffers must
  /// be empty).  A statically gated router asserts if a flit arrives unless
  /// wake-on-arrival is allowed.
  void set_gated(bool gated);

  /// Enables wake-on-arrival plus idle-timeout gating (the conventional
  /// dynamic scheme).  Off by default.
  void set_dynamic_gating(bool enabled) {
    dynamic_gating_ = enabled;
    if (wake_cb_) wake_cb_();
  }

  /// Allows a statically gated router to wake on arrival rather than
  /// asserting (used by the dynamic scheme and fault-injection tests).
  void set_allow_wakeup(bool allowed) { allow_wakeup_ = allowed; }

  PowerState power_state() const { return state_; }

  // --- fault injection ------------------------------------------------------

  /// Attaches the fault oracle (null detaches).  With an oracle the router
  /// corrupts flits on faulty links, detours new packets off down links via
  /// RoutingPolicy::reroute_port, retries failed power-gate wake-ups, and can
  /// freeze entirely while the oracle reports it stuck.
  void set_fault_oracle(FaultOracle* oracle) {
    oracle_ = oracle;
    if (wake_cb_) wake_cb_();
  }

  // --- active-router fast path ---------------------------------------------
  //
  // The network skips a router's tick() while the router self-reports no
  // work.  Invariant: a router must report busy_next_cycle() whenever it
  // holds flits, owns an output VC, has switch grants in flight, is mid
  // wake-up, runs the dynamic-gating idle counter, or has an input bit
  // set.  Skipped cycles are pure no-ops except leakage accounting, which
  // sync_counters() credits lazily so counters stay bit-identical to
  // ticking every cycle.  A tick of a router with none of that work (a
  // frozen one included) counts the same leakage cycle, so ticking any
  // quiescent router equals skipping it.  Returned credits need no tick:
  // the downstream writes them straight into the counters.
  //
  // Input bits: tick() reads only the input arrival logs whose bit is
  // set, in ascending port order; bit p is input port p's log.  The owner
  // of the router keeps the invariant that every non-empty input log has
  // a wake pending at its head's ready time, unless its bit is set and the
  // head is receivable by the next cycle; note_input() delivers the wake,
  // and the log's WakeSink reports the push that makes it non-empty.
  // After reading a log the router keeps its bit only while the head is
  // receivable next cycle: it clears the bit of an empty log and hands a
  // later head back to the log's WakeSink (Pipe::rearm).  A set bit thus
  // never holds the router hot for a value more than a cycle away, so the
  // router is ticked exactly when a wake-driven schedule would tick it.

  /// True when the router must be ticked next cycle regardless of channel
  /// arrivals (arrivals re-activate a skipped router via WakeSink).
  bool busy_next_cycle() const {
    if (state_ == PowerState::kWaking) return true;
    if (dynamic_gating_ && state_ != PowerState::kGated) return true;
    return active_packets_ > 0 || num_grants_ != 0 || pending_inputs_ != 0;
  }

  /// Sets input port `port`'s bit: its log holds an arrival due by the
  /// next cycle, so tick() reads it.
  void note_input(int port) { pending_inputs_ |= std::uint32_t{1} << port; }

  /// True when input port `port`'s bit is set.
  bool input_pending(int port) const {
    return ((pending_inputs_ >> port) & 1u) != 0;
  }

  /// Clears every input bit, declares the inputs in `remote` fed by a
  /// producer that ticks on another shard, and re-reports the head of
  /// every non-empty input to its WakeSink (no wake survives a restore or
  /// re-shard).  A push into a remote input can race the pop that empties
  /// it in the same phase, so such an input, once found empty, is
  /// re-checked by recheck_remote_inputs() behind the phase barrier.
  void reset_inputs(std::uint32_t remote);

  /// Phase-2 re-check of the remote inputs found empty in cycle `now`:
  /// each is flagged again and kept only if a producer pushed into it
  /// meanwhile with the head due next cycle (a later head gets its wake
  /// re-armed).  Every phase-1 push is visible here, so a pipe still empty
  /// stays empty until a push into it reports through its WakeSink.
  void recheck_remote_inputs(Cycle now) {
    if (emptied_remote_ == 0) return;
    for (std::uint32_t bits = emptied_remote_; bits != 0; bits &= bits - 1) {
      const int p = std::countr_zero(bits);
      note_input(p);
      keep_input_if_due(p, now);
    }
    emptied_remote_ = 0;
  }

  /// Credits the leakage counters for cycles [counted_until, now) during
  /// which tick() was skipped: gated cycles while gated, idle active
  /// cycles while powered on.  Called by the network before counters are
  /// read and at the head of tick().
  void sync_counters(Cycle now) const;

  /// Callback invoked when a configuration change (gating mode) may
  /// require the network to re-activate this router.
  void set_wake_callback(std::function<void()> cb) { wake_cb_ = std::move(cb); }

  /// True when no flit is buffered and no output VC is held.
  bool drained() const;

  // --- instrumentation -----------------------------------------------------

  const RouterCounters& counters() const { return counters_; }
  void reset_counters() { counters_ = RouterCounters{}; }

  /// Mutable counters for the co-located NI's multicast replication
  /// attribution (mc_replications/mc_flits).  NI and router of one node
  /// always live on the same shard, so these writes never race the
  /// router's own counter updates.
  RouterCounters& raw_counters() { return counters_; }

  /// Total flits currently buffered (used by drain checks and tests).
  int buffered_flits() const;

  /// Sum of downstream credits across all output VCs (after a full drain
  /// it equals ports * vcs * vc_depth again).
  int total_output_credits() const;

  // --- checkpoint/restore ---------------------------------------------------
  //
  // Dynamic state only: buffered flits, pipeline stages, VC allocations,
  // in-flight switch grants, arbitration pointers, power-gating FSM, and
  // counters.  Configuration (id, params, routing, wiring, gating mode) is
  // reconstructed by the caller before load_state.
  // Buffered flits are written with their packets' records and rebuilt
  // through `restore` on load.
  void save_state(snapshot::Writer& w, const PacketRecords& records) const;
  void load_state(snapshot::Reader& r, RecordRestore& restore);

  /// Calls visit(flit) for every buffered flit (not the pending ones,
  /// which Network walks with their links).
  template <typename Visit>
  void for_each_buffered(Visit&& visit) const {
    for (int s = 0; s < num_slots(); ++s) input_vcs_[s].buf.for_each(visit);
  }

 private:
  // Compact per-VC and per-port state (the static_asserts pin the sizes).
  // Narrow fields are safe because NetworkParams::validate and Topology
  // bound what they hold, and load_state rejects a checkpoint value that
  // would not fit.
  struct InputVc {
    InputVc(Flit* storage, int depth, int port_, int slot_)
        : buf(storage, depth), port(static_cast<std::int8_t>(port_)),
          slot(static_cast<std::int16_t>(slot_)) {}
    VcBuffer buf;
    enum class Stage : std::uint8_t { kIdle, kRouting, kVcAlloc, kActive };
    Stage stage = Stage::kIdle;
    std::int8_t port;           ///< owning input port (fixed)
    std::int16_t slot;          ///< port * num_vcs + vc (fixed)
    std::int8_t out_port = 0;   ///< output port index (0 = local)
    std::int8_t out_vc = -1;
    std::int8_t msg_class = 0;  ///< class of the packet currently in flight
  };

  /// An output VC's allocation; its downstream credits are credits_.
  struct OutputVc {
    bool allocated = false;
    std::int8_t owner_port = -1;  ///< input port holding this output VC
    std::int8_t owner_vc = -1;    ///< input VC holding this output VC
  };
  static_assert(sizeof(InputVc) <= 32);
  static_assert(sizeof(OutputVc) <= 4);
  // The state block is released without running destructors.
  static_assert(std::is_trivially_destructible_v<InputVc>);

  /// Everything the router keeps per port: the input side's arrival log
  /// and upstream credit counters, the output side's arrival log,
  /// downstream VC rings and neighbor, and the three round-robin pointers.
  struct PortState {
    ArrivalLog* flit_in = nullptr;        ///< input: arrivals
    std::int16_t* credit_out = nullptr;   ///< input: upstream's credits
    ArrivalLog* flit_out = nullptr;       ///< output: downstream arrivals
    Flit* slots_out = nullptr;            ///< output: downstream VC rings
    /// Node behind the output (kInvalidNode when disconnected or local),
    /// cached off topo_ for the per-flit paths.
    NodeId neighbor = kInvalidNode;
    std::int16_t va_rr = 0;        ///< output: VA pointer over requester slots
    std::int8_t sa_input_rr = 0;   ///< input: SA pointer over its VCs
    std::int8_t sa_output_rr = 0;  ///< output: SA pointer over inputs
  };

  struct Grant {
    std::int8_t in_port;
    std::int8_t in_vc;
  };

  /// Byte offsets of the arrays in the state block, in the order they are
  /// laid out (hot bookkeeping first, the flit rings last).
  struct Layout {
    std::size_t ports, input_vcs, output_vcs, credits, tails, masks, grants,
        freed, flits, bytes;
  };
  static Layout layout(const NetworkParams& params, int nports);

  void receive_flits(Cycle now);
  /// After reading input port `port`'s log (its bit set) at `now`: keeps
  /// the bit while the head is receivable next cycle; clears it when the
  /// log is empty (a remote input is then re-checked in phase 2);
  /// otherwise clears it and hands the head back to the log's WakeSink.
  void keep_input_if_due(int port, Cycle now) {
    const ArrivalLog& log = *ports_[port].flit_in;
    const Cycle t = log.next_ready_time();
    if (t <= now + 1) return;
    const std::uint32_t m = std::uint32_t{1} << port;
    pending_inputs_ &= ~m;
    if (t == kNoPendingEvent)
      emptied_remote_ |= remote_inputs_ & m;
    else
      log.rearm();
  }
  void begin_packet(InputVc& ivc, const Flit& head, Cycle now);
  /// Applies the link-fault detour: when the preferred output's link is
  /// down, asks the routing policy for a safe alternative.
  int fault_aware_port(int preferred, NodeId dst, Cycle now);
  void set_stage(InputVc& ivc, InputVc::Stage next);
  void stage_switch_traversal(Cycle now);
  void stage_switch_allocation(Cycle now);
  void stage_vc_allocation(Cycle now);
  void stage_route_compute(Cycle now);
  /// True when a flit is receivable on some input (a gated router's
  /// wake test); keep_input_if_due on every flagged input it reads.
  bool flit_waiting(Cycle now);
  void update_dynamic_gating();

  int num_slots() const { return nports_ * params_.num_vcs; }
  InputVc& in_vc(int port, int vc) {
    return input_vcs_[port * params_.num_vcs + vc];
  }
  const InputVc& in_vc(int port, int vc) const {
    return input_vcs_[port * params_.num_vcs + vc];
  }
  OutputVc& out_vc(int port, int vc) {
    return output_vcs_[port * params_.num_vcs + vc];
  }
  std::int16_t& credits(int port, int vc) {
    return credits_[port * params_.num_vcs + vc];
  }

  // Slot masks: blocks of mask_words_ words in masks_, one bit per input
  // VC slot (nports * num_vcs bits), laid out as
  //   [stage kRouting | kVcAlloc | kActive | class 0..C-1 | VA port 0..P-1].
  std::uint64_t* mask_block(int b) {
    return masks_ + static_cast<std::size_t>(b) * mask_words_;
  }
  std::uint64_t* stage_mask(InputVc::Stage st) {
    return mask_block(static_cast<int>(st) - 1);
  }
  std::uint64_t* class_slots(int cls) { return mask_block(3 + cls); }
  std::uint64_t* va_requests(int op) {
    return mask_block(3 + params_.num_classes + op);
  }

  // Hot scalars first: a tick reads these before any array.

  // Input bits, one per input port: pending, fed from another shard, and
  // remote inputs found empty this cycle.
  std::uint32_t pending_inputs_ = 0;
  std::uint32_t remote_inputs_ = 0;
  std::uint32_t emptied_remote_ = 0;

  // The state block's arrays (see Layout).
  PortState* ports_;
  InputVc* input_vcs_;     // [port][vc] flattened
  OutputVc* output_vcs_;   // [port][vc] flattened
  std::int16_t* credits_;  // [port][vc]: downstream buffer credits
  std::int16_t* tails_;    // [port][vc]: downstream ring slot of the next flit
  std::uint64_t* masks_;
  Grant* grants_;          // SA winners, executed next cycle (<= 1 per port)
  int num_grants_ = 0;
  // Input slots this cycle's ST freed (<= 1 per input port), returned
  // upstream by return_credits().
  Grant* freed_;
  int num_freed_ = 0;

  // Work tracking for the skip fast path and the pipeline stages.
  // set_stage keeps, for every input VC slot s (= port * num_vcs + vc):
  //   bit s of stage_mask(kRouting)  <=> slot s is in kRouting
  //   bit s of stage_mask(kVcAlloc)  <=> slot s is in kVcAlloc
  //   bit s of stage_mask(kActive)   <=> slot s is in kActive (port p's
  //                                      active VCs are bits
  //                                      [p * num_vcs, (p + 1) * num_vcs))
  //   active_packets_ == number of slots not in kIdle
  // RC, VA and SA visit only the set bits; load_state rebuilds all four
  // from the restored stages.  Besides the stage masks:
  //   bit s of class_slots(c)   <=> slot s's VC belongs to class c (static)
  //   va_requests(op)           VA scratch, zero between calls: the kVcAlloc
  //                             slots that request output op this cycle
  int active_packets_ = 0;
  int mask_words_ = 0;  // words per slot mask
  int nports_;
  Pipe<Flit>* eject_ = nullptr;  // the local output

  PowerState state_ = PowerState::kActive;
  bool dynamic_gating_ = false;
  bool allow_wakeup_ = false;
  FaultOracle* oracle_ = nullptr;
  NodeId id_;
  NetworkParams params_;

  // Lazily synced so skipped cycles can be credited on demand from const
  // accessors (counter reads happen through const Network paths).
  mutable RouterCounters counters_;
  mutable Cycle counted_until_ = 0;  // first cycle not yet in counters_

  const Topology* topo_;
  const RoutingPolicy* policy_;
  int wake_remaining_ = 0;
  int wake_attempts_ = 0;  ///< attempts of the wake-up currently in flight
  Cycle idle_streak_ = 0;
  std::function<void()> wake_cb_;
};

}  // namespace nocs::noc
