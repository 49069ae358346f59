#include "noc/router.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace nocs::noc {

Router::Router(NodeId id, const NetworkParams& params, const Topology& topo,
               const RoutingPolicy* policy)
    : id_(id),
      params_(params),
      topo_(&topo),
      policy_(policy),
      nports_(topo.num_ports(id)) {
  NOCS_EXPECTS(policy != nullptr);
  params_.validate();
  out_neighbor_.assign(static_cast<std::size_t>(nports_), kInvalidNode);
  for (int p = 1; p < nports_; ++p)
    out_neighbor_[static_cast<std::size_t>(p)] = topo.neighbor(id, p);
  flit_in_.assign(static_cast<std::size_t>(nports_), nullptr);
  credit_out_.assign(static_cast<std::size_t>(nports_), nullptr);
  flit_out_.assign(static_cast<std::size_t>(nports_), nullptr);
  credit_in_.assign(static_cast<std::size_t>(nports_), nullptr);
  sa_input_rr_.assign(static_cast<std::size_t>(nports_), 0);
  sa_output_rr_.assign(static_cast<std::size_t>(nports_), 0);
  va_rr_.assign(static_cast<std::size_t>(nports_), 0);
  active_by_port_.assign(static_cast<std::size_t>(nports_), 0);
  const auto n = static_cast<std::size_t>(nports_ * params_.num_vcs);
  flit_arena_.resize(n * static_cast<std::size_t>(params_.vc_depth));
  input_vcs_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    input_vcs_.emplace_back(
        flit_arena_.data() + i * static_cast<std::size_t>(params_.vc_depth),
        params_.vc_depth);
    input_vcs_.back().port = static_cast<int>(i) / params_.num_vcs;
  }
  output_vcs_.resize(n);
  for (auto& ovc : output_vcs_) ovc.credits = params_.vc_depth;
}

void Router::connect_input(int port, Pipe<Flit>* flit_in,
                           Pipe<Credit>* credit_out) {
  flit_in_[static_cast<std::size_t>(port)] = flit_in;
  credit_out_[static_cast<std::size_t>(port)] = credit_out;
}

void Router::connect_output(int port, Pipe<Flit>* flit_out,
                            Pipe<Credit>* credit_in) {
  flit_out_[static_cast<std::size_t>(port)] = flit_out;
  credit_in_[static_cast<std::size_t>(port)] = credit_in;
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

Cycle Router::next_input_event() const {
  Cycle earliest = kNoPendingEvent;
  for (int p = 0; p < nports_; ++p) {
    if (const auto* pipe = flit_in_[static_cast<std::size_t>(p)]) {
      const Cycle t = pipe->next_ready_time();
      if (t < earliest) earliest = t;
    }
    if (const auto* pipe = credit_in_[static_cast<std::size_t>(p)]) {
      const Cycle t = pipe->next_ready_time();
      if (t < earliest) earliest = t;
    }
  }
  return earliest;
}

void Router::set_stage(InputVc& ivc, InputVc::Stage next) {
  if (ivc.stage == next) return;
  switch (ivc.stage) {
    case InputVc::Stage::kIdle: ++active_packets_; break;
    case InputVc::Stage::kRouting: --routing_pending_; break;
    case InputVc::Stage::kVcAlloc: --vca_pending_; break;
    case InputVc::Stage::kActive:
      --active_by_port_[static_cast<std::size_t>(ivc.port)];
      break;
  }
  switch (next) {
    case InputVc::Stage::kIdle: --active_packets_; break;
    case InputVc::Stage::kRouting: ++routing_pending_; break;
    case InputVc::Stage::kVcAlloc: ++vca_pending_; break;
    case InputVc::Stage::kActive:
      ++active_by_port_[static_cast<std::size_t>(ivc.port)];
      break;
  }
  ivc.stage = next;
}

bool Router::drained() const {
  for (const auto& ivc : input_vcs_)
    if (!ivc.buf.empty() || ivc.stage != InputVc::Stage::kIdle) return false;
  for (const auto& ovc : output_vcs_)
    if (ovc.allocated) return false;
  return st_grants_.empty();
}

int Router::buffered_flits() const {
  int n = 0;
  for (const auto& ivc : input_vcs_) n += ivc.buf.size();
  return n;
}

int Router::total_output_credits() const {
  int n = 0;
  for (const auto& ovc : output_vcs_) n += ovc.credits;
  return n;
}

bool Router::any_input_pending(Cycle now) const {
  for (int p = 0; p < nports_; ++p) {
    const auto* pipe = flit_in_[static_cast<std::size_t>(p)];
    if (pipe != nullptr && pipe->ready(now)) return true;
  }
  return false;
}

void Router::tick(Cycle now) {
  // Credit leakage cycles skipped since the last tick, then claim this one.
  sync_counters(now);
  counted_until_ = now + 1;

  if (oracle_ != nullptr && oracle_->router_stuck(id_, now)) {
    // Fail-stop freeze: nothing is consumed or forwarded, not even credits.
    // Upstream back-pressure wedges; the watchdog detects it and the sprint
    // controller degrades around the node — there is no in-network cure.
    ++counters_.active_cycles;
    ++counters_.idle_active_cycles;
    return;
  }

  // Credits are consumed even while gated: they only update bookkeeping for
  // flits that left downstream buffers before we gated.
  receive_credits(now);

  if (state_ == PowerState::kGated) {
    ++counters_.gated_cycles;
    if (any_input_pending(now)) {
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

  if (dynamic_gating_) update_dynamic_gating(now);
}

void Router::update_dynamic_gating(Cycle now) {
  const bool idle = drained() && !any_input_pending(now);
  idle_streak_ = idle ? idle_streak_ + 1 : 0;
  if (idle_streak_ >= static_cast<Cycle>(params_.gate_idle_threshold)) {
    state_ = PowerState::kGated;
    idle_streak_ = 0;
  }
}

void Router::receive_credits(Cycle now) {
  for (int p = 0; p < nports_; ++p) {
    auto* pipe = credit_in_[static_cast<std::size_t>(p)];
    if (pipe == nullptr) continue;
    while (pipe->ready(now)) {
      const Credit c = pipe->pop(now);
      NOCS_EXPECTS(c.vc >= 0 && c.vc < params_.num_vcs);
      auto& ovc = out_vc(p, c.vc);
      ++ovc.credits;
      NOCS_ENSURES(ovc.credits <= params_.vc_depth);
    }
  }
}

void Router::receive_flits(Cycle now) {
  for (int p = 0; p < nports_; ++p) {
    auto* pipe = flit_in_[static_cast<std::size_t>(p)];
    if (pipe == nullptr) continue;
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
  }
}

void Router::begin_packet(InputVc& ivc, const Flit& head, Cycle now) {
  ivc.msg_class = head.msg_class;
  if (params_.pipeline_stages == 3) {
    // Lookahead: route compute folded into buffer write.
    ivc.out_port = fault_aware_port(
        policy_->route_port(*topo_, id_, head.dst), head.dst, now);
    set_stage(ivc, InputVc::Stage::kVcAlloc);
  } else {
    set_stage(ivc, InputVc::Stage::kRouting);
  }
}

int Router::fault_aware_port(int preferred, NodeId dst, Cycle now) {
  if (oracle_ == nullptr || preferred == 0) return preferred;
  // Routing never points off a disconnected port, so the neighbor exists.
  const NodeId nbr = out_neighbor_[static_cast<std::size_t>(preferred)];
  if (!oracle_->link_down(id_, nbr, now)) return preferred;
  const int alt = policy_->reroute_port(*topo_, id_, dst, preferred);
  if (alt == preferred) return preferred;  // no safe detour: ride it out
  const NodeId alt_nbr = out_neighbor_[static_cast<std::size_t>(alt)];
  if (oracle_->link_down(id_, alt_nbr, now)) return preferred;
  ++counters_.reroutes;
  return alt;
}

void Router::stage_route_compute(Cycle now) {
  if (routing_pending_ == 0) return;
  for (int p = 0; p < nports_; ++p) {
    for (int v = 0; v < params_.num_vcs; ++v) {
      auto& ivc = in_vc(p, v);
      if (ivc.stage != InputVc::Stage::kRouting) continue;
      NOCS_EXPECTS(!ivc.buf.empty() && ivc.buf.front().is_head);
      const NodeId dst = ivc.buf.front().dst;
      ivc.out_port = policy_->route_port(*topo_, id_, dst);
      // The routing policy may only select the local port or a connected
      // output (cur == dst must map to port 0).
      NOCS_ENSURES(ivc.out_port >= 0 && ivc.out_port < nports_);
      NOCS_ENSURES(ivc.out_port == 0 ||
                   out_neighbor_[static_cast<std::size_t>(ivc.out_port)] !=
                       kInvalidNode);
      ivc.out_port = fault_aware_port(ivc.out_port, dst, now);
      set_stage(ivc, InputVc::Stage::kVcAlloc);
    }
  }
}

void Router::stage_vc_allocation(Cycle) {
  // Separable output-side allocation: for each output port, hand free VCs
  // to requesting input VCs in round-robin order over (port, vc) requester
  // slots.  Each input VC holds at most one request, so no input-side
  // conflict resolution is needed.
  if (vca_pending_ == 0) return;
  const int nv = params_.num_vcs;
  const int slots = nports_ * nv;
  // One pass over the slots finds every requested output port (the per-port
  // "any requester?" scans this replaces were the stage's main cost).
  // kMaxPorts <= 32 keeps the mask in one word.
  unsigned req_mask = 0;
  for (int s = 0; s < slots; ++s) {
    const auto& ivc = input_vcs_[static_cast<std::size_t>(s)];
    if (ivc.stage == InputVc::Stage::kVcAlloc)
      req_mask |= 1u << ivc.out_port;
  }
  for (int op = 0; op < nports_; ++op) {
    if ((req_mask & (1u << op)) == 0) continue;

    for (int ov = 0; ov < nv; ++ov) {
      auto& target = out_vc(op, ov);
      if (target.allocated) continue;
      // Round-robin over requester slots starting after the last grant.
      // VC partitioning: an output VC may only go to a requester of the
      // same message class (protocol-deadlock avoidance).
      const int ov_class = params_.class_of_vc(ov);
      int& rr = va_rr_[static_cast<std::size_t>(op)];
      int granted_slot = -1;
      for (int k = 1; k <= slots; ++k) {
        const int s = (rr + k) % slots;
        auto& ivc = input_vcs_[static_cast<std::size_t>(s)];
        if (ivc.stage == InputVc::Stage::kVcAlloc && ivc.out_port == op &&
            ivc.msg_class == ov_class) {
          granted_slot = s;
          break;
        }
      }
      if (granted_slot < 0) continue;  // no requesters of this VC's class
      rr = granted_slot;
      auto& ivc = input_vcs_[static_cast<std::size_t>(granted_slot)];
      target.allocated = true;
      target.owner_port = granted_slot / nv;
      target.owner_vc = granted_slot % nv;
      ivc.out_vc = ov;
      set_stage(ivc, InputVc::Stage::kActive);
      ++counters_.vc_allocs;
    }
  }
}

void Router::stage_switch_allocation(Cycle) {
  if (active_packets_ == 0) return;
  const int nv = params_.num_vcs;

  // Stage 1 (input arbitration): each input port nominates one active VC
  // that has a buffered flit and a downstream credit.  Ports with no
  // active VC are skipped outright — the round-robin pointer only moves on
  // a nomination, so skipping them cannot change any arbitration outcome.
  std::vector<int> nominee(static_cast<std::size_t>(nports_), -1);
  unsigned out_mask = 0;  // output ports some nominee targets
  for (int p = 0; p < nports_; ++p) {
    if (active_by_port_[static_cast<std::size_t>(p)] == 0) continue;
    int& rr = sa_input_rr_[static_cast<std::size_t>(p)];
    int v = rr;
    for (int k = 1; k <= nv; ++k) {
      if (++v >= nv) v = 0;
      const auto& ivc = in_vc(p, v);
      if (ivc.stage != InputVc::Stage::kActive || ivc.buf.empty()) continue;
      const auto& ovc = out_vc(ivc.out_port, ivc.out_vc);
      if (ovc.credits <= 0) continue;
      nominee[static_cast<std::size_t>(p)] = v;
      out_mask |= 1u << ivc.out_port;
      rr = v;
      break;
    }
  }
  if (out_mask == 0) return;

  // Stage 2 (output arbitration): each targeted output port grants one
  // nominee (un-targeted ports would scan and grant nothing).
  std::vector<bool> output_claimed(static_cast<std::size_t>(nports_), false);
  std::vector<bool> input_granted(static_cast<std::size_t>(nports_), false);
  for (int op = 0; op < nports_; ++op) {
    if ((out_mask & (1u << op)) == 0) continue;
    int& rr = sa_output_rr_[static_cast<std::size_t>(op)];
    int p = rr;
    for (int k = 1; k <= nports_; ++k) {
      if (++p >= nports_) p = 0;
      if (input_granted[static_cast<std::size_t>(p)]) continue;
      const int v = nominee[static_cast<std::size_t>(p)];
      if (v < 0) continue;
      const auto& ivc = in_vc(p, v);
      if (ivc.out_port != op) continue;
      if (output_claimed[static_cast<std::size_t>(op)]) break;
      output_claimed[static_cast<std::size_t>(op)] = true;
      input_granted[static_cast<std::size_t>(p)] = true;
      st_grants_.push_back(Grant{p, v});
      ++counters_.sa_arbitrations;
      rr = p;
      break;
    }
  }
}

void Router::stage_switch_traversal(Cycle now) {
  for (const Grant& g : st_grants_) {
    auto& ivc = in_vc(g.in_port, g.in_vc);
    NOCS_EXPECTS(ivc.stage == InputVc::Stage::kActive && !ivc.buf.empty());
    Flit f = ivc.buf.pop();
    ++counters_.buffer_reads;
    ++counters_.xbar_traversals;

    const int op = ivc.out_port;
    auto& ovc = out_vc(op, ivc.out_vc);
    NOCS_EXPECTS(ovc.allocated && ovc.owner_port == g.in_port &&
                 ovc.owner_vc == g.in_vc);
    NOCS_EXPECTS(ovc.credits > 0);
    --ovc.credits;

    // Return a credit upstream for the buffer slot we just freed.
    auto* credit_pipe = credit_out_[static_cast<std::size_t>(g.in_port)];
    if (credit_pipe != nullptr)
      credit_pipe->push(now, Credit{static_cast<VcId>(g.in_vc)});

    f.vc = ivc.out_vc;
    if (op != 0) {
      ++f.hops;
      ++counters_.link_flits;
      if (oracle_ != nullptr) {
        const NodeId nbr = out_neighbor_[static_cast<std::size_t>(op)];
        if (oracle_->corrupt_link_flit(id_, nbr, now)) {
          f.corrupted = true;
          ++counters_.flits_corrupted;
        }
      }
    }
    auto* out_pipe = flit_out_[static_cast<std::size_t>(op)];
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
  st_grants_.clear();
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

void Router::save_state(snapshot::Writer& w) const {
  w.begin_section("router");
  w.u8(static_cast<std::uint8_t>(state_));
  w.i64(wake_remaining_);
  w.i64(wake_attempts_);
  w.u64(idle_streak_);

  for (const InputVc& ivc : input_vcs_) {
    ivc.buf.save_state(w);
    w.u8(static_cast<std::uint8_t>(ivc.stage));
    w.u8(static_cast<std::uint8_t>(ivc.out_port));
    w.i64(ivc.out_vc);
    w.i64(ivc.msg_class);
  }
  for (const OutputVc& ovc : output_vcs_) {
    w.b(ovc.allocated);
    w.i64(ovc.owner_port);
    w.i64(ovc.owner_vc);
    w.i64(ovc.credits);
  }

  w.i64(static_cast<std::int64_t>(st_grants_.size()));
  for (const Grant& g : st_grants_) {
    w.i64(g.in_port);
    w.i64(g.in_vc);
  }

  for (int i = 0; i < nports_; ++i) {
    w.i64(sa_input_rr_[static_cast<std::size_t>(i)]);
    w.i64(sa_output_rr_[static_cast<std::size_t>(i)]);
    w.i64(va_rr_[static_cast<std::size_t>(i)]);
  }

  save_counters(w, counters_);
  w.u64(counted_until_);
  w.end_section();
}

void Router::load_state(snapshot::Reader& r) {
  r.begin_section("router");
  state_ = static_cast<PowerState>(r.u8());
  wake_remaining_ = static_cast<int>(r.i64());
  wake_attempts_ = static_cast<int>(r.i64());
  idle_streak_ = r.u64();

  for (InputVc& ivc : input_vcs_) {
    ivc.buf.load_state(r);
    ivc.stage = static_cast<InputVc::Stage>(r.u8());
    ivc.out_port = static_cast<int>(r.u8());
    ivc.out_vc = static_cast<VcId>(r.i64());
    ivc.msg_class = static_cast<int>(r.i64());
  }
  for (OutputVc& ovc : output_vcs_) {
    ovc.allocated = r.b();
    ovc.owner_port = static_cast<int>(r.i64());
    ovc.owner_vc = static_cast<int>(r.i64());
    ovc.credits = static_cast<int>(r.i64());
  }

  st_grants_.clear();
  const auto num_grants = r.i64();
  for (std::int64_t i = 0; i < num_grants; ++i) {
    Grant g{};
    g.in_port = static_cast<int>(r.i64());
    g.in_vc = static_cast<int>(r.i64());
    st_grants_.push_back(g);
  }

  for (int i = 0; i < nports_; ++i) {
    sa_input_rr_[static_cast<std::size_t>(i)] = static_cast<int>(r.i64());
    sa_output_rr_[static_cast<std::size_t>(i)] = static_cast<int>(r.i64());
    va_rr_[static_cast<std::size_t>(i)] = static_cast<int>(r.i64());
  }

  load_counters(r, counters_);
  counted_until_ = r.u64();
  r.end_section();

  // The stage tallies driving busy_next_cycle() and the per-stage skip
  // checks are derived state: recompute them from the restored stages
  // rather than trusting redundant bytes that could go inconsistent.
  active_packets_ = 0;
  routing_pending_ = 0;
  vca_pending_ = 0;
  std::fill(active_by_port_.begin(), active_by_port_.end(), 0);
  for (const InputVc& ivc : input_vcs_) {
    switch (ivc.stage) {
      case InputVc::Stage::kIdle: break;
      case InputVc::Stage::kRouting:
        ++active_packets_;
        ++routing_pending_;
        break;
      case InputVc::Stage::kVcAlloc:
        ++active_packets_;
        ++vca_pending_;
        break;
      case InputVc::Stage::kActive:
        ++active_packets_;
        ++active_by_port_[static_cast<std::size_t>(ivc.port)];
        break;
    }
  }
}

}  // namespace nocs::noc
