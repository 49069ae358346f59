#include "noc/router.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <new>
#include <span>
#include <string>

#include "common/log.hpp"

namespace nocs::noc {

namespace {

// Port sets are one 32-bit word (bit p = port p).
static_assert(kMaxPorts <= 32);

void set_bit(std::uint64_t* words, int s) {
  words[s >> 6] |= std::uint64_t{1} << (s & 63);
}

void clear_bit(std::uint64_t* words, int s) {
  words[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
}

// First set bit in [from, end) of the bit array whose word w is
// word_at(w), or -1 when there is none.
template <typename WordAt>
int next_set_bit(const WordAt& word_at, int from, int end) {
  if (from >= end) return -1;
  int w = from >> 6;
  std::uint64_t bits = word_at(w) & (~std::uint64_t{0} << (from & 63));
  const int last = (end - 1) >> 6;
  while (bits == 0) {
    if (++w > last) return -1;
    bits = word_at(w);
  }
  const int s = (w << 6) + std::countr_zero(bits);
  return s < end ? s : -1;
}

// Round-robin pick over [lo, hi): the first set bit after `after`,
// wrapping round to lo, so `after` itself comes last; -1 when none is set.
template <typename WordAt>
int next_set_bit_after(const WordAt& word_at, int lo, int hi, int after) {
  const int s = next_set_bit(word_at, after + 1, hi);
  return s >= 0 ? s : next_set_bit(word_at, lo, after + 1);
}

// Round-robin pick over a non-empty port set: the first port after
// `after`, wrapping, so `after` itself comes last.
int next_port_after(std::uint32_t ports, int after) {
  const std::uint32_t later =
      after >= 31 ? 0u : ports & (~std::uint32_t{0} << (after + 1));
  return std::countr_zero(later != 0 ? later : ports);
}

}  // namespace

Router::Layout Router::layout(const NetworkParams& params, int nports) {
  const auto slots = static_cast<std::size_t>(nports * params.num_vcs);
  const auto ports = static_cast<std::size_t>(nports);
  const std::size_t mask_words = (slots + 63) / 64;
  Layout l{};
  std::size_t at = 0;
  const auto place = [&at](std::size_t& offset, std::size_t bytes,
                           std::size_t align) {
    offset = align_up(at, align);
    at = offset + bytes;
  };
  place(l.ports, ports * sizeof(PortState), alignof(PortState));
  place(l.input_vcs, slots * sizeof(InputVc), alignof(InputVc));
  place(l.output_vcs, slots * sizeof(OutputVc), alignof(OutputVc));
  place(l.credits, slots * sizeof(std::int16_t), alignof(std::int16_t));
  place(l.masks,
        (3 + static_cast<std::size_t>(params.num_classes) + ports) *
            mask_words * sizeof(std::uint64_t),
        alignof(std::uint64_t));
  place(l.grants, ports * sizeof(Grant), alignof(Grant));
  place(l.freed, ports * sizeof(Grant), alignof(Grant));
  place(l.flits,
        slots * static_cast<std::size_t>(params.vc_depth) * sizeof(Flit),
        kCacheLine);
  l.bytes = align_up(at, kCacheLine);
  return l;
}

Router::Router(NodeId id, const NetworkParams& params, const Topology& topo,
               const RoutingPolicy* policy, std::byte* storage)
    : nports_(topo.num_ports(id)),
      id_(id),
      params_(params),
      topo_(&topo),
      policy_(policy) {
  NOCS_EXPECTS(policy != nullptr);
  params_.validate();
  const Layout l = layout(params_, nports_);
  NOCS_EXPECTS(storage != nullptr &&
               reinterpret_cast<std::uintptr_t>(storage) % kCacheLine == 0);
  const int slots = num_slots();
  mask_words_ = (slots + 63) / 64;
  ports_ = reinterpret_cast<PortState*>(storage + l.ports);
  std::uninitialized_value_construct_n(ports_, nports_);
  for (int p = 1; p < nports_; ++p) ports_[p].neighbor = topo.neighbor(id, p);
  masks_ = reinterpret_cast<std::uint64_t*>(storage + l.masks);
  std::fill_n(masks_,
              static_cast<std::size_t>(3 + params_.num_classes + nports_) *
                  static_cast<std::size_t>(mask_words_),
              std::uint64_t{0});
  for (int s = 0; s < slots; ++s)
    set_bit(class_slots(params_.class_of_vc(s % params_.num_vcs)), s);
  grants_ = reinterpret_cast<Grant*>(storage + l.grants);
  freed_ = reinterpret_cast<Grant*>(storage + l.freed);
  auto* flits = reinterpret_cast<Flit*>(storage + l.flits);
  std::uninitialized_value_construct_n(
      flits, static_cast<std::size_t>(slots) *
                 static_cast<std::size_t>(params_.vc_depth));
  input_vcs_ = reinterpret_cast<InputVc*>(storage + l.input_vcs);
  for (int s = 0; s < slots; ++s)
    ::new (&input_vcs_[s]) InputVc(flits + s * params_.vc_depth,
                                   params_.vc_depth, s / params_.num_vcs, s);
  output_vcs_ = reinterpret_cast<OutputVc*>(storage + l.output_vcs);
  std::uninitialized_value_construct_n(output_vcs_, slots);
  credits_ = reinterpret_cast<std::int16_t*>(storage + l.credits);
  std::fill_n(credits_, slots, static_cast<std::int16_t>(params_.vc_depth));
}

void Router::connect_input(int port, Pipe<Flit>* flit_in,
                           std::int16_t* credit_out) {
  ports_[port].flit_in = flit_in;
  ports_[port].credit_out = credit_out;
}

void Router::connect_output(int port, Pipe<Flit>* flit_out) {
  ports_[port].flit_out = flit_out;
}

void Router::set_gated(bool gated) {
  if (gated) {
    NOCS_EXPECTS(drained());
    state_ = PowerState::kGated;
  } else {
    state_ = PowerState::kActive;
    idle_streak_ = 0;
  }
  if (wake_cb_) wake_cb_();
}

void Router::sync_counters(Cycle now) const {
  if (counted_until_ >= now) return;
  const std::uint64_t gap = now - counted_until_;
  counted_until_ = now;
  // Only quiescent routers are ever skipped: each skipped cycle is a pure
  // leakage cycle in the state the router was left in.
  if (state_ == PowerState::kGated) {
    counters_.gated_cycles += gap;
  } else {
    counters_.active_cycles += gap;
    counters_.idle_active_cycles += gap;
  }
}

void Router::reset_inputs(std::uint32_t remote) {
  pending_inputs_ = 0;
  remote_inputs_ = remote;
  emptied_remote_ = 0;
  for (int p = 0; p < nports_; ++p)
    if (const auto* pipe = ports_[p].flit_in) pipe->rearm();
}

void Router::set_stage(InputVc& ivc, InputVc::Stage next) {
  if (ivc.stage == next) return;
  if (ivc.stage == InputVc::Stage::kIdle)
    ++active_packets_;
  else
    clear_bit(stage_mask(ivc.stage), ivc.slot);
  if (next == InputVc::Stage::kIdle)
    --active_packets_;
  else
    set_bit(stage_mask(next), ivc.slot);
  ivc.stage = next;
}

bool Router::drained() const {
  for (int s = 0; s < num_slots(); ++s) {
    const InputVc& ivc = input_vcs_[s];
    if (!ivc.buf.empty() || ivc.stage != InputVc::Stage::kIdle ||
        output_vcs_[s].allocated)
      return false;
  }
  return num_grants_ == 0;
}

int Router::buffered_flits() const {
  int n = 0;
  for (int s = 0; s < num_slots(); ++s) n += input_vcs_[s].buf.size();
  return n;
}

int Router::total_output_credits() const {
  int n = 0;
  for (int s = 0; s < num_slots(); ++s) n += credits_[s];
  return n;
}

bool Router::flit_waiting(Cycle now) {
  for (std::uint32_t ports = pending_inputs_; ports != 0; ports &= ports - 1) {
    const int p = std::countr_zero(ports);
    if (ports_[p].flit_in->ready(now)) return true;
    keep_input_if_due(p, now);
  }
  return false;
}

void Router::tick(Cycle now) {
  // Credit leakage cycles skipped since the last tick, then claim this one.
  sync_counters(now);
  counted_until_ = now + 1;

  if (oracle_ != nullptr && oracle_->router_stuck(id_, now)) {
    // Fail-stop freeze: nothing is consumed or forwarded, so no buffer
    // slot frees and no credit goes upstream (credits returned to this
    // router still land in its counters).  Upstream back-pressure wedges;
    // the watchdog detects it and the sprint controller degrades around
    // the node — there is no in-network cure.
    // The cycle counts as a leakage cycle in the frozen power state, just
    // as sync_counters credits a skipped one, so ticking a frozen router
    // equals skipping it.
    if (state_ == PowerState::kGated) {
      ++counters_.gated_cycles;
    } else {
      ++counters_.active_cycles;
      ++counters_.idle_active_cycles;
    }
    // Nothing is read, but every flagged input is checked as if it had
    // been: a frozen router with no value due next cycle cools, and is
    // ticked again only when a wake says an input has one.
    for (std::uint32_t bits = pending_inputs_; bits != 0; bits &= bits - 1)
      keep_input_if_due(std::countr_zero(bits), now);
    return;
  }

  if (state_ == PowerState::kGated) {
    ++counters_.gated_cycles;
    if (flit_waiting(now)) {
      // A flit knocked on a dark router.  Under NoC-sprinting's CDOR this
      // never happens (the routing function avoids the dark region), so the
      // arrival is a protocol violation unless wake-on-arrival is enabled.
      NOCS_EXPECTS(allow_wakeup_ || dynamic_gating_);
      ++counters_.wake_events;
      state_ = PowerState::kWaking;
      wake_remaining_ = params_.wakeup_latency;
      wake_attempts_ = 0;
      if (wake_remaining_ == 0) {
        if (oracle_ != nullptr) {
          // Even a zero-latency wake takes one cycle so the attempt can be
          // judged (and fail) in the kWaking branch below.
          wake_remaining_ = 1;
        } else {
          state_ = PowerState::kActive;
          idle_streak_ = 0;
        }
      }
    }
    return;
  }

  if (state_ == PowerState::kWaking) {
    ++counters_.waking_cycles;
    if (--wake_remaining_ <= 0) {
      ++wake_attempts_;
      if (oracle_ != nullptr &&
          oracle_->wake_fails(id_, wake_attempts_, now)) {
        // The rail failed to charge; retry after the oracle's penalty.
        ++counters_.wake_failures;
        wake_remaining_ = std::max(1, oracle_->wake_retry_latency());
      } else {
        state_ = PowerState::kActive;
        idle_streak_ = 0;
        wake_attempts_ = 0;
      }
    }
    return;
  }

  ++counters_.active_cycles;
  const std::uint64_t moves_before =
      counters_.xbar_traversals + counters_.buffer_writes;

  if (params_.pipeline_stages == 5) {
    // Reverse-order stage evaluation: one stage per flit per cycle.
    stage_switch_traversal(now);
    stage_switch_allocation(now);
    stage_vc_allocation(now);
    stage_route_compute(now);
    receive_flits(now);  // BW happens last so RC runs the following cycle
  } else {
    // Three-stage pipeline: RC is computed inline at buffer write
    // (lookahead routing), and VA runs *before* SA within the cycle so a
    // VC can win both back to back (speculative allocation):
    //   BW+RC at t, VA+SA at t+1, ST at t+2.
    stage_switch_traversal(now);
    stage_vc_allocation(now);
    stage_switch_allocation(now);
    receive_flits(now);
  }

  const bool moved =
      (counters_.xbar_traversals + counters_.buffer_writes) != moves_before;
  if (!moved) ++counters_.idle_active_cycles;

  if (dynamic_gating_) update_dynamic_gating();
}

void Router::update_dynamic_gating() {
  // receive_flits has just taken every receivable flit, so no input is
  // pending and an empty router is idle.
  const bool idle = drained();
  idle_streak_ = idle ? idle_streak_ + 1 : 0;
  if (idle_streak_ >= static_cast<Cycle>(params_.gate_idle_threshold)) {
    state_ = PowerState::kGated;
    idle_streak_ = 0;
  }
}

void Router::receive_flits(Cycle now) {
  for (std::uint32_t ports = pending_inputs_; ports != 0; ports &= ports - 1) {
    const int p = std::countr_zero(ports);
    auto* pipe = ports_[p].flit_in;
    while (pipe->ready(now)) {
      Flit f = pipe->pop(now);
      NOCS_EXPECTS(f.vc >= 0 && f.vc < params_.num_vcs);
      auto& ivc = in_vc(p, f.vc);
      NOCS_ENSURES(!ivc.buf.full());  // credit flow control guarantees space
      if (ivc.stage == InputVc::Stage::kIdle) {
        NOCS_EXPECTS(f.is_head);
        // Flits must arrive on a VC of their own class (partition
        // discipline upheld by the upstream allocator / NI).
        NOCS_EXPECTS(params_.class_of_vc(f.vc) == f.msg_class);
        begin_packet(ivc, f, now);
      }
      ivc.buf.push(f);
      ++counters_.buffer_writes;
    }
    keep_input_if_due(p, now);
  }
}

void Router::begin_packet(InputVc& ivc, const Flit& head, Cycle now) {
  ivc.msg_class = head.msg_class;
  if (params_.pipeline_stages == 3) {
    // Lookahead: route compute folded into buffer write.
    ivc.out_port = static_cast<std::int8_t>(fault_aware_port(
        policy_->route_port(*topo_, id_, head.dst), head.dst, now));
    set_stage(ivc, InputVc::Stage::kVcAlloc);
  } else {
    set_stage(ivc, InputVc::Stage::kRouting);
  }
}

int Router::fault_aware_port(int preferred, NodeId dst, Cycle now) {
  if (oracle_ == nullptr || preferred == 0) return preferred;
  // Routing never points off a disconnected port, so the neighbor exists.
  const NodeId nbr = ports_[preferred].neighbor;
  if (!oracle_->link_down(id_, nbr, now)) return preferred;
  const int alt = policy_->reroute_port(*topo_, id_, dst, preferred);
  if (alt == preferred) return preferred;  // no safe detour: ride it out
  const NodeId alt_nbr = ports_[alt].neighbor;
  if (oracle_->link_down(id_, alt_nbr, now)) return preferred;
  ++counters_.reroutes;
  return alt;
}

void Router::stage_route_compute(Cycle now) {
  // Ascending slot order, the order of a full (port, vc) scan, so the fault
  // oracle sees the same call sequence.  Routing a slot clears only its own
  // bit, which the walk has already passed.
  const std::uint64_t* routing = stage_mask(InputVc::Stage::kRouting);
  const auto word = [routing](int w) { return routing[w]; };
  const int slots = num_slots();
  for (int s = next_set_bit(word, 0, slots); s >= 0;
       s = next_set_bit(word, s + 1, slots)) {
    auto& ivc = input_vcs_[s];
    NOCS_EXPECTS(!ivc.buf.empty() && ivc.buf.front().is_head);
    const NodeId dst = ivc.buf.front().dst;
    const int port = policy_->route_port(*topo_, id_, dst);
    // The routing policy may only select the local port or a connected
    // output (cur == dst must map to port 0).
    NOCS_ENSURES(port >= 0 && port < nports_);
    NOCS_ENSURES(port == 0 || ports_[port].neighbor != kInvalidNode);
    ivc.out_port = static_cast<std::int8_t>(fault_aware_port(port, dst, now));
    set_stage(ivc, InputVc::Stage::kVcAlloc);
  }
}

void Router::stage_vc_allocation(Cycle) {
  // Separable output-side allocation: for each output port, hand free VCs
  // to requesting input VCs in round-robin order over (port, vc) requester
  // slots.  Each input VC holds at most one request, so no input-side
  // conflict resolution is needed.
  const int nv = params_.num_vcs;
  const int slots = nports_ * nv;
  const int vcs_per_class = params_.vcs_per_class();

  // One pass over the requesting slots sorts them by output port.
  const std::uint64_t* vca = stage_mask(InputVc::Stage::kVcAlloc);
  std::uint32_t req_ports = 0;
  for (int w = 0; w < mask_words_; ++w) {
    for (std::uint64_t bits = vca[w]; bits != 0; bits &= bits - 1) {
      const int s = (w << 6) + std::countr_zero(bits);
      const int op = input_vcs_[s].out_port;
      set_bit(va_requests(op), s);
      req_ports |= 1u << op;
    }
  }

  for (std::uint32_t ops = req_ports; ops != 0; ops &= ops - 1) {
    const int op = std::countr_zero(ops);
    std::uint64_t* req = va_requests(op);
    std::int16_t& rr = ports_[op].va_rr;
    // VC partitioning: an output VC may only go to a requester of the same
    // message class (protocol-deadlock avoidance).  A VC's class is fixed,
    // and flits arrive on VCs of their own class, so the requesters of
    // class c are the request bits inside class c's static slot mask.
    for (int cls = 0; cls < params_.num_classes; ++cls) {
      const std::uint64_t* cls_slots = class_slots(cls);
      const auto word = [req, cls_slots](int w) {
        return req[w] & cls_slots[w];
      };
      const VcId first = cls * vcs_per_class;  // params_.first_vc_of(cls)
      for (VcId ov = first; ov < first + vcs_per_class; ++ov) {
        auto& target = out_vc(op, ov);
        if (target.allocated) continue;
        // Round-robin over requester slots starting after the last grant.
        const int s = next_set_bit_after(word, 0, slots, rr);
        if (s < 0) break;  // no requesters of this class left
        rr = static_cast<std::int16_t>(s);
        auto& ivc = input_vcs_[s];
        NOCS_ENSURES(ivc.msg_class == cls);
        target.allocated = true;
        target.owner_port = ivc.port;
        target.owner_vc = static_cast<std::int8_t>(s - ivc.port * nv);
        ivc.out_vc = static_cast<std::int8_t>(ov);
        clear_bit(req, s);
        set_stage(ivc, InputVc::Stage::kActive);
        ++counters_.vc_allocs;
      }
    }
    std::fill_n(req, mask_words_, std::uint64_t{0});  // zero between calls
  }
}

void Router::stage_switch_allocation(Cycle) {
  const int nv = params_.num_vcs;
  const int slots = nports_ * nv;
  const std::uint64_t* active = stage_mask(InputVc::Stage::kActive);
  const auto word = [active](int w) { return active[w]; };

  // Stage 1 (input arbitration): each input port with an active VC
  // nominates one that has a buffered flit and a downstream credit, in
  // round-robin order from the VC after its last nominee.  Ports with no
  // active VC are skipped outright — the round-robin pointer only moves on
  // a nomination, so skipping them cannot change any arbitration outcome.
  // nominee[p] is read only for ports p that some requesters word names.
  std::array<int, kMaxPorts> nominee;               // per input port
  std::array<std::uint32_t, kMaxPorts> requesters;  // per output port
  std::fill_n(requesters.begin(), nports_, 0u);
  std::uint32_t out_mask = 0;  // output ports some nominee targets
  const auto eligible = [&](int lo, int hi) {
    for (int s = next_set_bit(word, lo, hi); s >= 0;
         s = next_set_bit(word, s + 1, hi)) {
      const auto& ivc = input_vcs_[s];
      if (!ivc.buf.empty() && credits(ivc.out_port, ivc.out_vc) > 0)
        return s;
    }
    return -1;
  };
  for (int s = next_set_bit(word, 0, slots); s >= 0;) {
    const int p = input_vcs_[s].port;
    const int base = p * nv;
    std::int8_t& rr = ports_[p].sa_input_rr;
    int pick = eligible(base + rr + 1, base + nv);
    if (pick < 0) pick = eligible(base, base + rr + 1);
    if (pick >= 0) {
      const int op = input_vcs_[pick].out_port;
      out_mask |= 1u << op;
      requesters[static_cast<std::size_t>(op)] |= 1u << p;
      nominee[static_cast<std::size_t>(p)] = pick - base;
      rr = static_cast<std::int8_t>(pick - base);
    }
    s = next_set_bit(word, base + nv, slots);
  }

  // Stage 2 (output arbitration): each targeted output port grants the
  // first nominating input after its last grant.  An input nominates one
  // VC and so targets one output: grants never collide on the input side.
  for (std::uint32_t ops = out_mask; ops != 0; ops &= ops - 1) {
    const int op = std::countr_zero(ops);
    std::int8_t& rr = ports_[op].sa_output_rr;
    const int p =
        next_port_after(requesters[static_cast<std::size_t>(op)], rr);
    grants_[num_grants_++] =
        Grant{static_cast<std::int8_t>(p),
              static_cast<std::int8_t>(nominee[static_cast<std::size_t>(p)])};
    ++counters_.sa_arbitrations;
    rr = static_cast<std::int8_t>(p);
  }
}

void Router::stage_switch_traversal(Cycle now) {
  for (const Grant& g : std::span(grants_, num_grants_)) {
    auto& ivc = in_vc(g.in_port, g.in_vc);
    NOCS_EXPECTS(ivc.stage == InputVc::Stage::kActive && !ivc.buf.empty());
    Flit f = ivc.buf.pop();
    ++counters_.buffer_reads;
    ++counters_.xbar_traversals;

    const int op = ivc.out_port;
    auto& ovc = out_vc(op, ivc.out_vc);
    NOCS_EXPECTS(ovc.allocated && ovc.owner_port == g.in_port &&
                 ovc.owner_vc == g.in_vc);
    std::int16_t& credit = credits(op, ivc.out_vc);
    NOCS_EXPECTS(credit > 0);
    --credit;

    // The buffer slot just freed owes the upstream a credit, returned
    // behind the phase barrier (return_credits).
    if (ports_[g.in_port].credit_out != nullptr) freed_[num_freed_++] = g;

    f.vc = static_cast<std::int8_t>(ivc.out_vc);
    if (op != 0) {
      NOCS_ENSURES(f.hops < kMaxHops);
      ++f.hops;
      ++counters_.link_flits;
      if (oracle_ != nullptr) {
        const NodeId nbr = ports_[op].neighbor;
        if (oracle_->corrupt_link_flit(id_, nbr, now)) {
          f.corrupted = true;
          ++counters_.flits_corrupted;
        }
      }
    }
    auto* out_pipe = ports_[op].flit_out;
    NOCS_EXPECTS(out_pipe != nullptr);
    out_pipe->push(now, f);

    if (f.is_tail) {
      ovc.allocated = false;
      ovc.owner_port = -1;
      ovc.owner_vc = -1;
      ivc.out_vc = -1;
      if (ivc.buf.empty()) {
        set_stage(ivc, InputVc::Stage::kIdle);
      } else {
        // The next packet's head is already buffered behind the tail.
        NOCS_EXPECTS(ivc.buf.front().is_head);
        begin_packet(ivc, ivc.buf.front(), now);
      }
    }
  }
  num_grants_ = 0;
}

namespace {

void save_counters(snapshot::Writer& w, const RouterCounters& c) {
  w.u64(c.buffer_writes);
  w.u64(c.buffer_reads);
  w.u64(c.xbar_traversals);
  w.u64(c.vc_allocs);
  w.u64(c.sa_arbitrations);
  w.u64(c.link_flits);
  w.u64(c.active_cycles);
  w.u64(c.gated_cycles);
  w.u64(c.waking_cycles);
  w.u64(c.wake_events);
  w.u64(c.idle_active_cycles);
  w.u64(c.flits_corrupted);
  w.u64(c.reroutes);
  w.u64(c.wake_failures);
  w.u64(c.mc_replications);
  w.u64(c.mc_flits);
}

void load_counters(snapshot::Reader& r, RouterCounters& c) {
  c.buffer_writes = r.u64();
  c.buffer_reads = r.u64();
  c.xbar_traversals = r.u64();
  c.vc_allocs = r.u64();
  c.sa_arbitrations = r.u64();
  c.link_flits = r.u64();
  c.active_cycles = r.u64();
  c.gated_cycles = r.u64();
  c.waking_cycles = r.u64();
  c.wake_events = r.u64();
  c.idle_active_cycles = r.u64();
  c.flits_corrupted = r.u64();
  c.reroutes = r.u64();
  c.wake_failures = r.u64();
  c.mc_replications = r.u64();
  c.mc_flits = r.u64();
}

}  // namespace

void Router::save_state(snapshot::Writer& w,
                        const PacketRecords& records) const {
  // Credits are returned in the cycle their slots free, so none is owed
  // between ticks.
  NOCS_EXPECTS(num_freed_ == 0);
  w.begin_section("router");
  w.u8(static_cast<std::uint8_t>(state_));
  w.i64(wake_remaining_);
  w.i64(wake_attempts_);
  w.u64(idle_streak_);

  for (int s = 0; s < num_slots(); ++s) {
    const InputVc& ivc = input_vcs_[s];
    ivc.buf.save_state(w, records);
    w.u8(static_cast<std::uint8_t>(ivc.stage));
    w.u8(static_cast<std::uint8_t>(ivc.out_port));
    w.i64(ivc.out_vc);
    w.i64(ivc.msg_class);
  }
  for (int s = 0; s < num_slots(); ++s) {
    const OutputVc& ovc = output_vcs_[s];
    w.b(ovc.allocated);
    w.i64(ovc.owner_port);
    w.i64(ovc.owner_vc);
    w.i64(credits_[s]);
  }

  w.i64(num_grants_);
  for (const Grant& g : std::span(grants_, num_grants_)) {
    w.i64(g.in_port);
    w.i64(g.in_vc);
  }

  for (int i = 0; i < nports_; ++i) {
    w.i64(ports_[i].sa_input_rr);
    w.i64(ports_[i].sa_output_rr);
    w.i64(ports_[i].va_rr);
  }

  save_counters(w, counters_);
  w.u64(counted_until_);
  w.end_section();
}

void Router::load_state(snapshot::Reader& r, RecordRestore& restore) {
  // Every field is stored at 64 bits; the narrowed in-memory fields take
  // only values a running router can hold, so anything else is rejected
  // rather than truncated.
  const auto ranged = [&r](std::int64_t lo, std::int64_t hi,
                           const char* field) {
    return r.i64_in(lo, hi, "router", field);
  };
  const int nv = params_.num_vcs;
  const int slots = num_slots();

  r.begin_section("router");
  const std::uint8_t power = r.u8();
  if (power > static_cast<std::uint8_t>(PowerState::kWaking))
    throw snapshot::SnapshotError("router power state in checkpoint is invalid");
  state_ = static_cast<PowerState>(power);
  wake_remaining_ = static_cast<int>(r.i64());
  wake_attempts_ = static_cast<int>(r.i64());
  idle_streak_ = r.u64();

  for (int s = 0; s < slots; ++s) {
    InputVc& ivc = input_vcs_[s];
    ivc.buf.load_state(r, restore);
    // Stage and output port index the mask blocks: reject bytes that would
    // point outside them.
    const std::uint8_t stage = r.u8();
    const int out_port = r.u8();
    if (stage > static_cast<std::uint8_t>(InputVc::Stage::kActive) ||
        out_port >= nports_)
      throw snapshot::SnapshotError("router VC state in checkpoint is invalid");
    ivc.stage = static_cast<InputVc::Stage>(stage);
    ivc.out_port = static_cast<std::int8_t>(out_port);
    ivc.out_vc = static_cast<std::int8_t>(ranged(-1, nv - 1, "input out_vc"));
    ivc.msg_class = static_cast<std::int8_t>(
        ranged(0, params_.num_classes - 1, "input msg_class"));
  }
  for (int s = 0; s < slots; ++s) {
    OutputVc& ovc = output_vcs_[s];
    ovc.allocated = r.b();
    ovc.owner_port =
        static_cast<std::int8_t>(ranged(-1, nports_ - 1, "output owner port"));
    ovc.owner_vc =
        static_cast<std::int8_t>(ranged(-1, nv - 1, "output owner VC"));
    credits_[s] = static_cast<std::int16_t>(
        ranged(0, params_.vc_depth, "output credit count"));
  }

  num_grants_ = static_cast<int>(ranged(0, nports_, "grant count"));
  for (Grant& g : std::span(grants_, num_grants_)) {
    g.in_port = static_cast<std::int8_t>(ranged(0, nports_ - 1, "grant port"));
    g.in_vc = static_cast<std::int8_t>(ranged(0, nv - 1, "grant VC"));
  }

  for (int i = 0; i < nports_; ++i) {
    PortState& ps = ports_[i];
    ps.sa_input_rr =
        static_cast<std::int8_t>(ranged(0, nv - 1, "SA input pointer"));
    ps.sa_output_rr =
        static_cast<std::int8_t>(ranged(0, nports_ - 1, "SA output pointer"));
    ps.va_rr = static_cast<std::int16_t>(ranged(0, slots - 1, "VA pointer"));
  }

  load_counters(r, counters_);
  counted_until_ = r.u64();
  r.end_section();

  // The stage masks (the first three mask blocks) and active_packets_ are
  // derived state: rebuild them from the restored stages rather than
  // trusting redundant bytes that could go inconsistent.
  std::fill_n(masks_, 3 * mask_words_, std::uint64_t{0});
  active_packets_ = 0;
  for (int s = 0; s < slots; ++s) {
    InputVc& ivc = input_vcs_[s];
    const InputVc::Stage stage = ivc.stage;
    ivc.stage = InputVc::Stage::kIdle;
    set_stage(ivc, stage);
  }
}

}  // namespace nocs::noc
