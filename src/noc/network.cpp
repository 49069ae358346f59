#include "noc/network.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <new>
#include <sstream>

namespace nocs::noc {

namespace {

/// Shard index the current thread is executing a parallel tick phase for,
/// or -1 outside the phases (serial contexts).  Lets schedule() tell
/// own-shard wakes (applied directly) from cross-shard wakes (queued in
/// the producer's outbox).  Thread-local rather than per-network: a thread
/// only ever executes one network's phase at a time.
thread_local int t_current_shard = -1;

/// Calls visit(i) for every set bit i of `bits` in ascending order,
/// re-reading the live word after each visit, so a bit set above the
/// current one during the walk is still visited (the order and coverage
/// of a byte-flag scan).
template <typename Visit>
void walk_live_bits(const std::vector<std::uint64_t>& bits, Visit&& visit) {
  for (std::size_t w = 0; w < bits.size(); ++w) {
    std::uint64_t word = bits[w];
    while (word != 0) {
      const int b = std::countr_zero(word);
      visit(w * 64 + static_cast<std::size_t>(b));
      word = bits[w] & ((~std::uint64_t{0} << b) << 1);
    }
  }
}

}  // namespace

Network::Network(const NetworkParams& params, Topology topo,
                 const RoutingPolicy* policy, LinkLatencyFn link_latency)
    : params_(params), topo_(std::move(topo)), policy_(policy) {
  NOCS_EXPECTS(policy != nullptr);
  params_.validate();
  NOCS_EXPECTS(topo_.num_nodes() == params_.num_nodes());
  const int n = topo_.num_nodes();
  NOCS_EXPECTS(n <= (1 << (32 - kInputBits)));  // wake codes fit 32 bits

  auto latency_of = [&](NodeId from, NodeId to) {
    if (!link_latency) return params_.link_latency;
    const int lat = link_latency(from, to);
    NOCS_EXPECTS(lat >= 1);
    return lat;
  };

  // Flit-link latencies, asking the callback once per link in links()
  // order.
  const std::vector<TopoLink>& links = topo_.links();
  const std::size_t num_links = links.size();
  std::vector<int> link_lat(num_links);
  int max_latency = 1;
  for (std::size_t i = 0; i < num_links; ++i) {
    const TopoLink& l = links[i];
    link_lat[i] = l.latency > 0 ? l.latency : latency_of(l.src, l.dst);
    max_latency = std::max(max_latency, link_lat[i]);
  }

  // Credit flow control bounds any pipe's occupancy by the downstream
  // buffering of one port (num_vcs * vc_depth flits), so every ring is
  // sized to exactly that bound and never reallocates; Pipe::push fails a
  // contract past it.
  const int cap = params_.num_vcs * params_.vc_depth;
  const std::size_t router_bytes = align_up(sizeof(Router), kCacheLine);
  const std::size_t ni_bytes = align_up(sizeof(NetworkInterface), kCacheLine);
  const std::size_t local_flit_bytes = Pipe<Flit>::block_bytes(1, cap);

  // Pipe k: link k's pipe for k < num_links, then per node the injection
  // and ejection pipes (see flit_pipes_).
  const auto local_pipe = [num_links](NodeId id, int which) {
    return num_links + 2 * static_cast<std::size_t>(id) +
           static_cast<std::size_t>(which);
  };
  constexpr int kInject = 0;
  constexpr int kEject = 1;
  constexpr auto kLocal = static_cast<std::uint32_t>(Port::kLocal);
  node_blocks_.resize(static_cast<std::size_t>(n));
  routers_.resize(static_cast<std::size_t>(n));
  nis_.resize(static_cast<std::size_t>(n));
  flit_pipes_.resize(num_links + 2 * static_cast<std::size_t>(n));
  // One wake hook per pipe, naming the consumer's input.
  sinks_.reserve(flit_pipes_.size());
  for (NodeId id = 0; id < n; ++id) {
    const auto i = static_cast<std::size_t>(id);
    const int nports = topo_.num_ports(id);
    const std::size_t router_state = Router::storage_bytes(params_, nports);
    std::size_t bytes =
        router_bytes + router_state + ni_bytes + 2 * local_flit_bytes;
    for (int p = 1; p < nports; ++p)
      if (const int l = topo_.link_in(id, p); l >= 0)
        bytes += Pipe<Flit>::block_bytes(
            link_lat[static_cast<std::size_t>(l)], cap);
    node_blocks_[i] = new_line_block(bytes);
    std::byte* at = node_blocks_[i].get();
    const auto take = [&at](std::size_t size) {
      std::byte* piece = at;
      at += size;
      return piece;
    };

    routers_[i] = ::new (take(router_bytes))
        Router(id, params_, topo_, policy_, take(router_state));
    nis_[i] = ::new (take(ni_bytes)) NetworkInterface(id, params_, &stats_);
    // The pipes this node consumes, each waking it through `input`.
    const auto flit_pipe = [&](std::size_t k, int latency,
                               std::uint32_t input) {
      flit_pipes_[k] = Pipe<Flit>::emplace(
          take(Pipe<Flit>::block_bytes(latency, cap)), latency, cap);
      flit_pipes_[k]->set_sink(new_sink(wake_code(id, input)));
    };
    flit_pipe(local_pipe(id, kInject), 1, kLocal);
    for (int p = 1; p < nports; ++p)
      if (const int l = topo_.link_in(id, p); l >= 0)
        flit_pipe(static_cast<std::size_t>(l),
                  link_lat[static_cast<std::size_t>(l)],
                  static_cast<std::uint32_t>(p));
    flit_pipe(local_pipe(id, kEject), 1, kNiInput);
    NOCS_ENSURES(at == node_blocks_[i].get() + bytes);
  }

  // Inter-router links: link l's pipe carries src's flits to dst, and dst
  // returns their credits to src's output credits for the link.
  for (std::size_t i = 0; i < num_links; ++i) {
    const TopoLink& l = links[i];
    Router& src = *routers_[static_cast<std::size_t>(l.src)];
    src.connect_output(l.src_port, flit_pipes_[i]);
    routers_[static_cast<std::size_t>(l.dst)]->connect_input(
        l.dst_port, flit_pipes_[i], src.output_credits(l.src_port));
  }

  for (NodeId id = 0; id < n; ++id) {
    Router& r = *routers_[static_cast<std::size_t>(id)];
    NetworkInterface& ni = *nis_[static_cast<std::size_t>(id)];
    // Fast-path bookkeeping: everything starts hot and cools after the
    // first tick in which it reports no work (rebuild_shards below sets
    // the bits).
    r.set_wake_callback([this, id] { mark_hot(id, /*ni=*/false); });
    ni.set_wake_callback([this, id] { mark_hot(id, /*ni=*/true); });
    // Multicast wiring: every NI can resolve group member lists (the
    // table object outlives the NIs) and charges replication work to its
    // own router's counters (same node, same shard — race-free).
    ni.set_multicast_table(&mcast_groups_);
    ni.set_mc_counters(&r.raw_counters());

    // Local NI <-> router channels, each returning credits to its sender.
    Pipe<Flit>* inj = flit_pipes_[local_pipe(id, kInject)];
    Pipe<Flit>* ej = flit_pipes_[local_pipe(id, kEject)];
    r.connect_input(Port::kLocal, inj, ni.credits());
    r.connect_output(Port::kLocal, ej);
    ni.connect(inj, ej, r.output_credits(kLocal));
  }

  // Calendar wheels are sized to cover the farthest-future event a pipe
  // push can produce (max latency), plus slack so `t & mask` never aliases
  // `now`, rounded up to a power of two so the bucket index is a mask.
  // The initial partition honors NOCS_SIM_THREADS (default 1).
  wheel_slots_ = static_cast<int>(
      std::bit_ceil(static_cast<unsigned>(max_latency + 2)));
  set_sim_threads(0);
}

Network::~Network() {
  // End every object's lifetime before node_blocks_ releases its block.
  for (auto* p : flit_pipes_) std::destroy_at(p);
  for (auto* ni : nis_) std::destroy_at(ni);
  for (auto* r : routers_) std::destroy_at(r);
}

void Network::set_sim_threads(int n) {
  if (n <= 0) n = default_sim_thread_count();
  // Shards are contiguous id ranges, so any count up to the node count
  // works; results are thread-count independent (pipes guarantee >= 1
  // cycle of latency between any producer and consumer).
  sim_threads_ = std::max(1, std::min(n, topo_.num_nodes()));
  rebuild_shards();
}

void Network::rebuild_shards() {
  for (const Shard& sh : shards_) flit_base_ += sh.flit_balance;
  const int S = sim_threads_;
  const int n = num_nodes();
  shards_.assign(static_cast<std::size_t>(S), Shard{});
  shard_of_.assign(static_cast<std::size_t>(n), 0);
  for (int s = 0; s < S; ++s) {
    Shard& sh = shards_[static_cast<std::size_t>(s)];
    sh.begin = n * s / S;
    sh.end = n * (s + 1) / S;
    // Conservative scheduler state: everything hot, wheels empty.  Ticking
    // a quiescent node is a no-op beyond leakage accounting, which
    // sync_counters() reproduces exactly, so this is bit-identical to any
    // previously accumulated wake schedule — nodes with no work simply
    // cool again after one tick.  That property is what makes re-sharding
    // legal at any cycle boundary (including after load_state).
    const auto owned = static_cast<std::size_t>(sh.end - sh.begin);
    sh.hot_routers.assign((owned + 63) / 64, ~std::uint64_t{0});
    if (owned % 64 != 0)
      sh.hot_routers.back() = (std::uint64_t{1} << (owned % 64)) - 1;
    sh.hot_nis = sh.hot_routers;
    sh.active = 2 * owned;
    sh.wheel.assign(static_cast<std::size_t>(wheel_slots_),
                    std::vector<std::uint32_t>{});
    sh.stats.defer_to(S > 1 ? &stats_ : nullptr);
    for (NodeId id = sh.begin; id < sh.end; ++id)
      shard_of_[static_cast<std::size_t>(id)] = static_cast<std::uint32_t>(s);
  }
  // No wake survives the rebuild: every router re-arms its non-empty
  // inputs, and learns which of them another shard feeds.
  std::vector<std::uint32_t> remote(static_cast<std::size_t>(n), 0);
  for (const TopoLink& l : topo_.links())
    if (shard_of_[static_cast<std::size_t>(l.src)] !=
        shard_of_[static_cast<std::size_t>(l.dst)])
      remote[static_cast<std::size_t>(l.dst)] |= std::uint32_t{1}
                                                  << l.dst_port;
  // An NI starts at most one packet per cycle, so a shard's pool needs
  // its node count of free records at the start of each cycle.
  std::vector<std::size_t> wants;
  for (const Shard& sh : shards_)
    wants.push_back(static_cast<std::size_t>(sh.end - sh.begin));
  records_.set_pools(wants);
  for (NodeId id = 0; id < n; ++id) {
    const std::uint32_t s = shard_of_[static_cast<std::size_t>(id)];
    Shard& sh = shards_[s];
    NetworkInterface& ni = *nis_[static_cast<std::size_t>(id)];
    ni.set_stats(S > 1 ? &sh.stats : &stats_);
    ni.set_flit_balance(&sh.flit_balance);
    ni.set_records(&records_, &records_.pool(s));
    routers_[static_cast<std::size_t>(id)]->reset_inputs(
        remote[static_cast<std::size_t>(id)]);
  }
  if (S > 1 && (team_ == nullptr || team_->size() != S))
    team_ = std::make_unique<BarrierTeam>(S);
  else if (S == 1)
    team_.reset();
}

void Network::NodeSink::on_push(Cycle ready_at) {
  net->schedule(enc, ready_at);
}

void Network::schedule(std::uint32_t enc, Cycle ready_at) {
  if (ready_at == kNoPendingEvent) return;
  const std::uint32_t owner = shard_of_[enc >> kInputBits];
  const int cur = t_current_shard;
  if (cur >= 0 && static_cast<std::uint32_t>(cur) != owner) {
    // Cross-shard wake during a parallel tick phase: only the owner may
    // touch its wheel/hot flags, so queue in the producer's outbox; the
    // owner imports it behind the phase barrier.
    shards_[static_cast<std::size_t>(cur)].outbox.push_back({enc, ready_at});
    return;
  }
  schedule_local(shards_[static_cast<std::size_t>(owner)], enc, ready_at);
}

void Network::schedule_local(Shard& sh, std::uint32_t enc, Cycle ready_at) {
  if (ready_at == kNoPendingEvent) return;
  if (ready_at <= now_) {  // already due: activate immediately
    wake(enc);
    return;
  }
  NOCS_EXPECTS(ready_at - now_ < static_cast<Cycle>(sh.wheel.size()));
  sh.wheel[static_cast<std::size_t>(ready_at & wheel_mask())].push_back(enc);
}

int Network::link_latency(NodeId from, NodeId to) const {
  NOCS_EXPECTS(topo_.valid(from) && topo_.valid(to));
  const int port = topo_.port_to(from, to);
  NOCS_EXPECTS(port > 0);  // adjacent nodes only
  return flit_pipes_[static_cast<std::size_t>(topo_.link_out(from, port))]
      ->latency();
}

void Network::set_endpoints(std::vector<NodeId> endpoints,
                            std::unique_ptr<TrafficPattern> traffic) {
  NOCS_EXPECTS(endpoints.size() >= 2);
  NOCS_EXPECTS(traffic != nullptr);
  for (NodeId e : endpoints) NOCS_EXPECTS(topo_.valid(e));
  for (auto& ni : nis_) ni->clear_endpoint();
  endpoints_ = std::move(endpoints);
  traffic_ = std::move(traffic);
  for (int logical = 0; logical < static_cast<int>(endpoints_.size());
       ++logical) {
    nis_[static_cast<std::size_t>(endpoints_[static_cast<std::size_t>(
             logical)])]
        ->set_endpoint(logical, &endpoints_, traffic_.get());
  }
}

void Network::gate_dark_region(const std::vector<NodeId>& active) {
  std::vector<bool> is_active(static_cast<std::size_t>(num_nodes()), false);
  for (NodeId id : active) {
    NOCS_EXPECTS(topo_.valid(id));
    is_active[static_cast<std::size_t>(id)] = true;
  }
  for (NodeId id = 0; id < num_nodes(); ++id) {
    // Settle skipped-cycle accounting under the old power state before
    // switching; set_gated re-activates the router via its wake callback.
    routers_[static_cast<std::size_t>(id)]->sync_counters(now_);
    routers_[static_cast<std::size_t>(id)]->set_gated(
        !is_active[static_cast<std::size_t>(id)]);
  }
}

void Network::ungate_all() {
  for (auto& r : routers_) {
    r->sync_counters(now_);
    r->set_gated(false);
  }
}

void Network::set_dynamic_gating(bool enabled) {
  for (auto& r : routers_) {
    r->sync_counters(now_);
    r->set_dynamic_gating(enabled);
    r->set_allow_wakeup(enabled);
  }
}

void Network::set_injection_rate(double flits_per_cycle_per_node) {
  for (auto& ni : nis_) ni->set_injection_rate(flits_per_cycle_per_node);
}

void Network::set_request_reply(int request_length, int reply_length) {
  for (auto& ni : nis_) ni->set_request_reply(request_length, reply_length);
}

void Network::set_seed(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& ni : nis_) ni->set_seed(sm.next());
}

int Network::add_multicast_group(std::vector<NodeId> members) {
  NOCS_EXPECTS(!members.empty());
  for (const NodeId m : members) NOCS_EXPECTS(topo_.valid(m));
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  mcast_groups_.push_back(std::move(members));
  return static_cast<int>(mcast_groups_.size()) - 1;
}

void Network::set_multicast(bool enabled) {
  for (auto& ni : nis_) ni->set_multicast_enabled(enabled);
}

void Network::enable_resilience(FaultOracle* oracle,
                                const ProtectionParams* prot) {
  for (auto& r : routers_) r->set_fault_oracle(oracle);
  for (auto& ni : nis_) {
    ni->set_fault_oracle(oracle);
    if (prot != nullptr) ni->enable_protection(*prot);
  }
}

std::uint64_t Network::progress_signature() const {
  std::uint64_t sig = 0;
  for (const auto& r : routers_) {
    // No sync_counters: skipped cycles only accrue cycle counters, which
    // are deliberately excluded from the signature anyway.
    const RouterCounters& c = r->counters();
    sig += c.buffer_writes + c.xbar_traversals + c.link_flits;
  }
  // Ejections count as progress; generation deliberately does not.  NIs
  // keep generating into their (unbounded) source queues even when the
  // network core is wedged, so counting generation would let a hung
  // network look alive for as long as injection stays on.
  for (const auto& ni : nis_) sig += ni->total_ejected_flits();
  return sig;
}

std::string Network::debug_snapshot() const {
  std::ostringstream os;
  os << "network diagnostic @ cycle " << now_ << "\n";
  const char* state_names[] = {"active", "gated", "waking"};
  for (NodeId id = 0; id < num_nodes(); ++id) {
    const Router& r = *routers_[static_cast<std::size_t>(id)];
    const NetworkInterface& ni = *nis_[static_cast<std::size_t>(id)];
    const int buffered = r.buffered_flits();
    const std::size_t queued = ni.source_queue_depth();
    const std::size_t unacked = ni.unacked_count();
    const bool quiet = buffered == 0 && queued == 0 && unacked == 0 &&
                       r.power_state() == PowerState::kActive;
    if (quiet) continue;
    const Coord c = topo_.coord(id);
    os << "  node " << id << " (" << c.x << "," << c.y << ")"
       << " state=" << state_names[static_cast<int>(r.power_state())]
       << " buffered_flits=" << buffered
       << " output_credits=" << r.total_output_credits()
       << " ni_queue=" << queued << " ni_unacked=" << unacked << "\n";
  }
  return os.str();
}

void Network::tick() {
  // Serial pre-phase: workload drivers inject here, before any shard
  // thread starts, so driver behavior is identical for any sim_threads.
  if (pre_tick_) pre_tick_(now_);
  const int S = static_cast<int>(shards_.size());
  if (S == 1) {
    // Serial operation is the 1-shard case of the same two phases (no
    // barrier, no outbox traffic, stats recorded directly by the NIs).
    tick_phase1(0);
    tick_phase2(0);
  } else {
    team_->run([this](int s) {
      t_current_shard = s;
      tick_phase1(s);
      t_current_shard = -1;
    });
    team_->run([this](int s) {
      t_current_shard = s;
      tick_phase2(s);
      t_current_shard = -1;
    });
    // Ascending shard order = ascending node id order: replaying each
    // shard's buffered ejection events in this order reproduces the exact
    // floating-point accumulation sequence of the serial loop.
    for (Shard& sh : shards_) sh.stats.drain_deferred();
    for (Shard& sh : shards_) sh.outbox.clear();
  }
  records_.refill();
  ++now_;
}

void Network::tick_phase1(int s) {
  Shard& sh = shards_[static_cast<std::size_t>(s)];

  // Activate nodes whose wake-up was scheduled for this cycle.  Stale
  // entries (node woke earlier for another reason) are harmless: ticking a
  // quiescent node is a no-op beyond counters sync_counters() reproduces.
  auto& bucket = sh.wheel[static_cast<std::size_t>(now_ & wheel_mask())];
  for (const std::uint32_t enc : bucket) wake(enc);
  bucket.clear();
  if (sh.active == 0) return;

  // Ascending-id order over hot nodes matches the tick-everything loop, so
  // stats and counters accumulate in the identical order (bit-identical
  // floating-point results).  Pushes this phase have ready times strictly
  // after now_ (latency >= 1), so they only ever append to wheels/outboxes,
  // never flip a hot bit — hot bits stay owner-written.  The walks re-read
  // the live words anyway, so a wake callback setting a later bit mid-walk
  // is honored exactly as a flag scan would.
  const auto base = static_cast<std::size_t>(sh.begin);
  walk_live_bits(sh.hot_nis,
                 [&](std::size_t bit) { nis_[base + bit]->tick(now_); });
  walk_live_bits(sh.hot_routers,
                 [&](std::size_t bit) { routers_[base + bit]->tick(now_); });
}

void Network::tick_phase2(int s) {
  Shard& sh = shards_[static_cast<std::size_t>(s)];

  // Import wake-ups other shards produced for our nodes this cycle.  Fixed
  // scan order (ascending producer shard) keeps wheel bucket contents
  // deterministic; bucket order cannot affect results anyway because
  // mark_hot is idempotent.
  if (shards_.size() > 1) {
    for (const Shard& other : shards_) {
      if (&other == &sh) continue;
      for (const WakeEvent& e : other.outbox)
        if (shard_of_[e.enc >> kInputBits] == static_cast<std::uint32_t>(s))
          schedule_local(sh, e.enc, e.at);
    }
  }

  if (sh.active == 0) return;

  // Return the credits freed in phase 1 (see "Credit return rule"; only a
  // node ticked this cycle owes any, and it is still hot), then cool hot
  // nodes reporting no work.  A cooling NI re-arms its wake-up at the
  // head of its ejection pipe (all pipe latencies are >= 1, so after this
  // cycle's producers ran every pending flit is strictly in the future;
  // the phase barrier made all cross-shard pushes visible).  A router
  // first re-checks its remote inputs found empty in phase 1 and cools
  // only with no input bit set, which by the input-bit invariant leaves a
  // wake pending for every non-empty input (at the cycle its head is due,
  // as the wake-driven schedule had it).  Only set bits are visited, NI
  // before router per node in ascending id order; cooling a node only
  // touches that node's own bits.
  const auto base = static_cast<std::size_t>(sh.begin);
  for (std::size_t w = 0; w < sh.hot_nis.size(); ++w) {
    std::uint64_t word = sh.hot_nis[w] | sh.hot_routers[w];
    while (word != 0) {
      const int b = std::countr_zero(word);
      word &= word - 1;
      const std::uint64_t m = std::uint64_t{1} << b;
      const std::size_t i = base + w * 64 + static_cast<std::size_t>(b);
      if ((sh.hot_nis[w] & m) != 0) {
        NetworkInterface& ni = *nis_[i];
        ni.return_credits();
        if (!ni.busy_next_cycle()) {
          sh.hot_nis[w] &= ~m;
          --sh.active;
          schedule_local(sh, wake_code(static_cast<NodeId>(i), kNiInput),
                         ni.next_input_event());
        }
      }
      if ((sh.hot_routers[w] & m) != 0) {
        Router& r = *routers_[i];
        r.return_credits();
        r.recheck_remote_inputs(now_);
        if (!r.busy_next_cycle()) {
          sh.hot_routers[w] &= ~m;
          --sh.active;
        }
      }
    }
  }
}

void Network::run(Cycle n) {
  for (Cycle i = 0; i < n; ++i) tick();
}

bool Network::drained() const {
  // Exact, not a heuristic: by flit conservation a zero balance means no
  // flit sits in any router buffer or flit pipe.  A router with empty
  // buffers holds no VC stage, output VC or switch grant either — each
  // belongs to a packet whose tail has not yet passed, and that tail is
  // buffered, in a pipe, or still inside its (non-idle) source NI.  So
  // the remaining condition is that every NI is idle.
  if (flits_in_flight() != 0) return false;
  for (const auto& ni : nis_)
    if (!ni->idle()) return false;
  NOCS_ASSERT(drained_reference());
  return true;
}

bool Network::drained_reference() const {
  // Cheapest test first: NI idle() is a few field reads per node.
  for (const auto& ni : nis_)
    if (!ni->idle()) return false;
  for (const auto& r : routers_)
    if (!r->drained()) return false;
  for (const auto& p : flit_pipes_)
    if (!p->empty()) return false;
  return true;
}

bool Network::input_wakes_armed() const {
  const auto armed = [this](const Pipe<Flit>& pipe, NodeId id, int port) {
    if (pipe.empty()) return true;
    const Cycle t = pipe.next_ready_time();
    if (t <= now_ &&
        routers_[static_cast<std::size_t>(id)]->input_pending(port))
      return true;
    if (t < now_) return false;  // its wake has fired already
    const auto& bucket =
        shards_[shard_of_[static_cast<std::size_t>(id)]]
            .wheel[static_cast<std::size_t>(t & wheel_mask())];
    return std::find(bucket.begin(), bucket.end(),
                     wake_code(id, static_cast<std::uint32_t>(port))) !=
           bucket.end();
  };
  // Pipes are allocated per link in links() order, then per node the
  // injection and ejection pipes.
  const std::vector<TopoLink>& links = topo_.links();
  for (std::size_t i = 0; i < links.size(); ++i)
    if (!armed(*flit_pipes_[i], links[i].dst, links[i].dst_port))
      return false;
  for (NodeId id = 0; id < num_nodes(); ++id) {
    const std::size_t k = links.size() + 2 * static_cast<std::size_t>(id);
    if (!armed(*flit_pipes_[k], id, static_cast<int>(Port::kLocal)))
      return false;
  }
  return true;
}

std::int64_t Network::flits_in_flight() const {
  std::int64_t n = flit_base_;
  for (const Shard& sh : shards_) n += sh.flit_balance;
  return n;
}

std::int64_t Network::counted_flits() const {
  std::int64_t n = 0;
  for (const auto& r : routers_) n += r->buffered_flits();
  for (const auto& p : flit_pipes_) n += static_cast<std::int64_t>(p->size());
  return n;
}

void Network::check_flit_conservation() const {
  NOCS_ENSURES(flits_in_flight() == counted_flits());
}

void Network::check_packet_records() const {
  std::vector<RecordRef> held;
  const auto hold = [&held](const Flit& f) { held.push_back(f.record); };
  for (const auto& r : routers_) r->for_each_buffered(hold);
  for (const auto& p : flit_pipes_) p->for_each(hold);
  for (const auto& ni : nis_)
    if (const auto ref = ni->injecting_record()) held.push_back(*ref);
  records_.check_live(held);
}

void Network::check_credit_conservation() const {
  const int nv = params_.num_vcs;
  std::vector<int> in_pipe(static_cast<std::size_t>(nv));
  // held(vc) = `credits`(vc) + that VC's flits in `pipe` + occupancy(vc)
  // must be vc_depth for every VC.
  const auto check = [&](const Pipe<Flit>& pipe, const auto& credits,
                         const auto& occupancy) {
    std::fill(in_pipe.begin(), in_pipe.end(), 0);
    pipe.for_each([&](const Flit& f) {
      NOCS_ENSURES(f.vc >= 0 && f.vc < nv);
      ++in_pipe[static_cast<std::size_t>(f.vc)];
    });
    for (int vc = 0; vc < nv; ++vc)
      NOCS_ENSURES(credits(vc) + in_pipe[static_cast<std::size_t>(vc)] +
                       occupancy(vc) ==
                   params_.vc_depth);
  };
  const std::vector<TopoLink>& links = topo_.links();
  for (std::size_t i = 0; i < links.size(); ++i) {
    const Router& src = *routers_[static_cast<std::size_t>(links[i].src)];
    const Router& dst = *routers_[static_cast<std::size_t>(links[i].dst)];
    check(
        *flit_pipes_[i],
        [&](int vc) { return src.output_credits(links[i].src_port, vc); },
        [&](int vc) { return dst.buffered_flits(links[i].dst_port, vc); });
  }
  constexpr int kLocal = static_cast<int>(Port::kLocal);
  for (NodeId id = 0; id < num_nodes(); ++id) {
    const Router& r = *routers_[static_cast<std::size_t>(id)];
    const NetworkInterface& ni = *nis_[static_cast<std::size_t>(id)];
    const std::size_t k = links.size() + 2 * static_cast<std::size_t>(id);
    check(
        *flit_pipes_[k], [&](int vc) { return ni.credits(vc); },
        [&](int vc) { return r.buffered_flits(kLocal, vc); });
    check(
        *flit_pipes_[k + 1],
        [&](int vc) { return r.output_credits(kLocal, vc); },
        [](int) { return 0; });
  }
}

RouterCounters Network::total_counters() const {
  RouterCounters total;
  for (const auto& r : routers_) {
    r->sync_counters(now_);
    total += r->counters();
  }
  return total;
}

std::vector<RouterCounters> Network::per_router_counters() const {
  std::vector<RouterCounters> out;
  out.reserve(routers_.size());
  for (const auto& r : routers_) {
    r->sync_counters(now_);
    out.push_back(r->counters());
  }
  return out;
}

void Network::reset_counters() {
  for (auto& r : routers_) {
    // Advance the lazy accounting to `now` first so the zeroed counters
    // cover exactly the cycles from this point on.
    r->sync_counters(now_);
    r->reset_counters();
  }
}

void Network::save_state(snapshot::Writer& w) const {
  // Per-shard deferring collectors are drained into the master at every
  // tick boundary, so between ticks they must be empty — the checkpoint
  // only serializes the master and stays thread-count independent.
  for (const Shard& sh : shards_)
    NOCS_EXPECTS(!sh.stats.deferring() || sh.stats.deferred_empty());

  w.begin_section("network");

  // Topology/configuration fingerprint: restore verifies the destination
  // network was built from the same parameters, otherwise the serialized
  // per-VC and per-pipe state would be reinterpreted against the wrong
  // structures.
  w.i64(params_.width);
  w.i64(params_.height);
  w.i64(params_.num_vcs);
  w.i64(params_.vc_depth);
  w.i64(params_.packet_length);
  w.i64(params_.link_latency);
  w.i64(params_.wakeup_latency);
  w.i64(params_.gate_idle_threshold);
  w.i64(params_.pipeline_stages);
  w.i64(params_.num_classes);
  // Graph fingerprint (format v3): a snapshot can only be restored into a
  // network wired from the identical topology — same nodes, coordinates,
  // ports, and link table in the same order.
  w.u64(topo_.fingerprint());
  w.i64(static_cast<std::int64_t>(endpoints_.size()));
  for (const NodeId e : endpoints_) w.i64(e);
  // The credit-channel count: one per flit pipe (see the credit sections
  // below).
  w.i64(static_cast<std::int64_t>(flit_pipes_.size()));
  w.i64(static_cast<std::int64_t>(flit_pipes_.size()));

  w.u64(now_);
  for (const auto& r : routers_) r->save_state(w, records_);
  for (const auto& ni : nis_) ni->save_state(w);
  const auto save_flit = [this](snapshot::Writer& sw, const Flit& f) {
    records_.save(sw, f);
  };
  for (const auto& p : flit_pipes_) p->save_state(w, save_flit);
  // The format keeps one credit-pipe section per flit pipe.  Credits are
  // returned within the cycle their slots free, so none is ever in
  // flight between ticks: every section is a latency-1 pipe holding none.
  for (std::size_t k = 0; k < flit_pipes_.size(); ++k) {
    w.begin_section("pipe");
    w.u64(1);
    w.i64(0);
    w.end_section();
  }
  stats_.save_state(w);
  w.end_section();
}

void Network::load_state(snapshot::Reader& r) {
  r.begin_section("network");

  const bool fingerprint_ok =
      r.i64() == params_.width && r.i64() == params_.height &&
      r.i64() == params_.num_vcs && r.i64() == params_.vc_depth &&
      r.i64() == params_.packet_length && r.i64() == params_.link_latency &&
      r.i64() == params_.wakeup_latency &&
      r.i64() == params_.gate_idle_threshold &&
      r.i64() == params_.pipeline_stages && r.i64() == params_.num_classes;
  if (!fingerprint_ok)
    throw snapshot::SnapshotError(
        "checkpoint network parameters disagree with this network's "
        "configuration");
  if (r.u64() != topo_.fingerprint())
    throw snapshot::SnapshotError(
        "checkpoint topology fingerprint disagrees with this network's "
        "graph");
  const auto num_endpoints = r.i64();
  if (num_endpoints != static_cast<std::int64_t>(endpoints_.size()))
    throw snapshot::SnapshotError(
        "checkpoint endpoint count disagrees with this network's "
        "configuration");
  for (const NodeId e : endpoints_)
    if (r.i64() != e)
      throw snapshot::SnapshotError(
          "checkpoint endpoint set disagrees with this network's "
          "configuration");
  if (r.i64() != static_cast<std::int64_t>(flit_pipes_.size()) ||
      r.i64() != static_cast<std::int64_t>(flit_pipes_.size()))
    throw snapshot::SnapshotError(
        "checkpoint channel count disagrees with this network's topology");

  // The checkpoint keeps every flit's packet fields; the records are
  // rebuilt from them (see RecordRestore).
  RecordRestore restore(records_);
  now_ = r.u64();
  for (auto& rt : routers_) rt->load_state(r, restore);
  for (auto& ni : nis_) ni->load_state(r);
  const auto load_flit = [&restore](snapshot::Reader& sr, Flit& f) {
    restore.load(sr, f);
  };
  for (auto& p : flit_pipes_) p->load_state(r, load_flit);
  for (auto& ni : nis_) ni->restore_record(restore);
  // Credit-pipe sections: empty when this code wrote them.  A checkpoint
  // from a build that sent credits through pipes may hold some; every one
  // was receivable by now_ (1-cycle pipes), so it folds into the counter
  // its receiver would have added it to before its next allocation.
  const std::vector<TopoLink>& links = topo_.links();
  for (std::size_t k = 0; k < flit_pipes_.size(); ++k) {
    std::int16_t* counters = nullptr;
    if (k < links.size()) {
      counters = routers_[static_cast<std::size_t>(links[k].src)]
                     ->output_credits(links[k].src_port);
    } else {
      const std::size_t id = (k - links.size()) / 2;
      counters = (k - links.size()) % 2 == 0
                     ? nis_[id]->credits()  // router -> NI, local input
                     : routers_[id]->output_credits(
                           static_cast<int>(Port::kLocal));  // NI -> router
    }
    r.begin_section("pipe");
    if (r.u64() != 1)
      throw snapshot::SnapshotError(
          "credit pipe latency in checkpoint is not 1 cycle");
    const std::int64_t n = r.i64();
    if (n < 0 || n > params_.num_vcs * params_.vc_depth)
      throw snapshot::SnapshotError("credit pipe occupancy out of range");
    for (std::int64_t i = 0; i < n; ++i) {
      const Cycle ready_at = r.u64();
      const std::int64_t vc = r.i64();
      if (ready_at > now_ || vc < 0 || vc >= params_.num_vcs ||
          counters[vc] >= params_.vc_depth)
        throw snapshot::SnapshotError("credit in checkpoint is invalid");
      ++counters[vc];
    }
    r.end_section();
  }
  stats_.load_state(r);
  r.end_section();

  // Reset the fast-path scheduler conservatively: mark every node hot and
  // drop all pending wake-ups (rebuild_shards does exactly that, keeping
  // the current thread count).  Ticking a quiescent node is a no-op beyond
  // leakage accounting, which sync_counters() reproduces exactly, so this
  // is bit-identical to resuming the saved wheel — nodes with no work
  // simply cool again after one tick.  It also makes restoring under a
  // different sim_threads than the checkpoint was written with exact.
  // The flit balance is not serialized: it is re-derived from the
  // restored buffers and pipes, so the snapshot format is unchanged.
  // rebuild_shards also hands the free records back to the shards' pools.
  rebuild_shards();
  flit_base_ = counted_flits();
}

}  // namespace nocs::noc
