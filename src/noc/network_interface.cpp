#include "noc/network_interface.hpp"

#include <algorithm>

#include "common/trace.hpp"

namespace nocs::noc {

NetworkInterface::NetworkInterface(NodeId id, const NetworkParams& params,
                                   StatsCollector* stats)
    : id_(id),
      params_(params),
      stats_(stats),
      rng_(0x9e3779b9u + static_cast<std::uint64_t>(id)),
      credits_(static_cast<std::size_t>(params.num_vcs),
               static_cast<std::int16_t>(params.vc_depth)),
      tails_(static_cast<std::size_t>(params.num_vcs), std::int16_t{0}) {
  NOCS_EXPECTS(stats != nullptr);
  ejected_vcs_.reserve(
      static_cast<std::size_t>(params.num_vcs * params.vc_depth));
}

void NetworkInterface::connect(ArrivalLog* to_router, Flit* router_slots,
                               Pipe<Flit>* from_router,
                               std::int16_t* router_credits) {
  to_router_ = to_router;
  router_slots_ = router_slots;
  from_router_ = from_router;
  router_credits_ = router_credits;
}

void NetworkInterface::set_endpoint(int logical_id,
                                    const std::vector<NodeId>* endpoints,
                                    const TrafficPattern* traffic) {
  NOCS_EXPECTS(endpoints != nullptr && traffic != nullptr);
  NOCS_EXPECTS(logical_id >= 0 &&
               logical_id < static_cast<int>(endpoints->size()));
  NOCS_EXPECTS((*endpoints)[static_cast<std::size_t>(logical_id)] == id_);
  logical_id_ = logical_id;
  endpoints_ = endpoints;
  traffic_ = traffic;
  if (wake_cb_) wake_cb_();
}

void NetworkInterface::clear_endpoint() {
  logical_id_ = -1;
  endpoints_ = nullptr;
  traffic_ = nullptr;
}

void NetworkInterface::set_request_reply(int request_length,
                                         int reply_length) {
  NOCS_EXPECTS(params_.num_classes >= 2);
  NOCS_EXPECTS(request_length >= 1 && request_length <= kMaxPacketLength);
  NOCS_EXPECTS(reply_length >= 1 && reply_length <= kMaxPacketLength);
  request_reply_ = true;
  request_length_ = request_length;
  reply_length_ = reply_length;
}

void NetworkInterface::enable_protection(const ProtectionParams& prot) {
  prot.validate();
  protection_ = true;
  prot_ = prot;
}

PacketId NetworkInterface::send_packet(Cycle now, NodeId dst, int msg_class,
                                       int length) {
  NOCS_EXPECTS(dst != id_);
  NOCS_EXPECTS(msg_class >= 0 && msg_class < params_.num_classes);
  NOCS_EXPECTS(length <= kMaxPacketLength);
  if (length <= 0) length = params_.packet_length;
  const PacketId pid =
      (static_cast<PacketId>(id_) << 48) | next_packet_id_++;
  const PendingPacket pkt{pid,       dst,       now, stats_->measuring(),
                          msg_class, length,    PacketKind::kData, 0};
  source_queue_.push_back(pkt);
  ++total_generated_;
  if (stats_->measuring()) stats_->on_packet_generated();
  if (protection_) {
    // Track until acknowledged; the first timeout fires after the base
    // ACK window, then backs off exponentially up to the cap.
    const Cycle deadline = now + backoff(0);
    unacked_.emplace(pid, Unacked{pkt, deadline, 0});
    next_deadline_ = std::min(next_deadline_, deadline);
  }
  if (wake_cb_) wake_cb_();
  return pid;
}

PacketId NetworkInterface::pack_mcast(int group, int lo, int hi) {
  NOCS_EXPECTS(group >= 0 && group < (1 << 24));
  NOCS_EXPECTS(lo >= 0 && lo < (1 << 20) && hi >= 0 && hi < (1 << 20));
  return (static_cast<PacketId>(group) << 40) |
         (static_cast<PacketId>(lo) << 20) | static_cast<PacketId>(hi);
}

void NetworkInterface::unpack_mcast(PacketId d, int* group, int* lo,
                                    int* hi) {
  *group = static_cast<int>(d >> 40);
  *lo = static_cast<int>((d >> 20) & 0xFFFFF);
  *hi = static_cast<int>(d & 0xFFFFF);
}

PacketId NetworkInterface::send_multicast(Cycle now, int group, int msg_class,
                                          int length) {
  NOCS_EXPECTS(mcast_groups_ != nullptr);
  NOCS_EXPECTS(group >= 0 &&
               group < static_cast<int>(mcast_groups_->size()));
  NOCS_EXPECTS(msg_class >= 0 && msg_class < params_.num_classes);
  // Tree relays re-inject copies outside the sender's retransmission
  // bookkeeping, so the two features do not compose.
  NOCS_EXPECTS(!protection_);
  NOCS_EXPECTS(length <= kMaxPacketLength);
  if (length <= 0) length = params_.packet_length;

  const std::vector<NodeId>& members =
      (*mcast_groups_)[static_cast<std::size_t>(group)];
  const PacketId first = (static_cast<PacketId>(id_) << 48) | next_packet_id_;
  if (!multicast_) {
    // Serial-unicast fallback: same delivery set, ascending member order.
    bool sent = false;
    for (const NodeId m : members) {
      if (m == id_) continue;
      send_packet(now, m, msg_class, length);
      sent = true;
    }
    return sent ? first : 0;
  }
  // A member-source must not receive its own broadcast (the fallback skips
  // it too).  Members are sorted, so splitting the range around the
  // source's index keeps every transmitted subrange source-free — no relay
  // can route a copy back.
  const int n = static_cast<int>(members.size());
  const auto self = std::lower_bound(members.begin(), members.end(), id_);
  if (self != members.end() && *self == id_) {
    const int s = static_cast<int>(self - members.begin());
    send_mcast_range(now, group, 0, s - 1, now, stats_->measuring(), msg_class,
                     length, /*relay=*/false);
    send_mcast_range(now, group, s + 1, n - 1, now, stats_->measuring(),
                     msg_class, length, /*relay=*/false);
  } else {
    send_mcast_range(now, group, 0, n - 1, now, stats_->measuring(), msg_class,
                     length, /*relay=*/false);
  }
  return next_packet_id_ > (first & 0xFFFFFFFFFFFFull) ? first : 0;
}

void NetworkInterface::send_mcast_range(Cycle now, int group, int lo, int hi,
                                        Cycle created, bool measured,
                                        int msg_class, int length,
                                        bool relay) {
  if (lo > hi) return;
  const std::vector<NodeId>& members =
      (*mcast_groups_)[static_cast<std::size_t>(group)];
  const int mid = lo + (hi - lo) / 2;
  const NodeId dst = members[static_cast<std::size_t>(mid)];
  if (dst == id_) {
    // This node is the subrange median (the origin sending into its own
    // group): nothing to deliver to itself, recurse into both halves.
    send_mcast_range(now, group, lo, mid - 1, created, measured, msg_class,
                     length, relay);
    send_mcast_range(now, group, mid + 1, hi, created, measured, msg_class,
                     length, relay);
    return;
  }
  PendingPacket pkt;
  pkt.id = (static_cast<PacketId>(id_) << 48) | next_packet_id_++;
  pkt.dst = dst;
  pkt.created = created;
  pkt.measured = measured;
  pkt.msg_class = msg_class;
  pkt.length = length;
  pkt.kind = PacketKind::kMcast;
  pkt.ack_for = pack_mcast(group, lo, hi);
  source_queue_.push_back(pkt);
  ++total_generated_;
  if (relay) {
    // Replicated copy: attribute it on the co-located router so power
    // models can report the multicast-replication share explicitly.
    if (mc_counters_ != nullptr) {
      ++mc_counters_->mc_replications;
      mc_counters_->mc_flits += static_cast<std::uint64_t>(length);
    }
  } else if (measured) {
    stats_->on_packet_generated();
  }
  if (wake_cb_) wake_cb_();
}

void NetworkInterface::handle_mcast(Cycle now, const Flit& f,
                                    const PacketRecord& rec) {
  // Delivery statistics mirror the plain data path; `created` is
  // propagated through the tree, so packet latency measures source ->
  // member end to end (hops are per-segment).
  if (f.measured) {
    stats_->on_flit_ejected();
    if (f.is_tail)
      stats_->on_packet_ejected(static_cast<double>(now - rec.created),
                                static_cast<double>(now - rec.injected),
                                f.hops, f.msg_class);
  }
  if (!f.is_tail) return;
  int group = 0, lo = 0, hi = 0;
  unpack_mcast(rec.ack_for, &group, &lo, &hi);
  NOCS_EXPECTS(mcast_groups_ != nullptr &&
               group < static_cast<int>(mcast_groups_->size()));
  const std::vector<NodeId>& members =
      (*mcast_groups_)[static_cast<std::size_t>(group)];
  const int mid = lo + (hi - lo) / 2;
  NOCS_EXPECTS(members[static_cast<std::size_t>(mid)] == id_);
  const int length = f.index + 1;
  send_mcast_range(now, group, lo, mid - 1, rec.created, f.measured,
                   f.msg_class, length, /*relay=*/true);
  send_mcast_range(now, group, mid + 1, hi, rec.created, f.measured,
                   f.msg_class, length, /*relay=*/true);
  if (agent_ != nullptr) agent_->on_packet(now, f, rec);
}

Cycle NetworkInterface::backoff(int retries) const {
  const int shift = std::min(retries, 16);
  const long long b = static_cast<long long>(prot_.ack_timeout) << shift;
  return static_cast<Cycle>(
      std::min<long long>(b, static_cast<long long>(prot_.max_backoff)));
}

void NetworkInterface::send_control(Cycle now, NodeId dst, PacketKind kind,
                                    PacketId ack_for, int msg_class) {
  // Control packets are never measured, never tracked for retransmission,
  // and never re-acknowledged: a lost ACK/NACK is recovered by the data
  // sender's timeout (the duplicate filter absorbs the re-delivery).
  PendingPacket pkt;
  pkt.id = (static_cast<PacketId>(id_) << 48) | next_packet_id_++;
  pkt.dst = dst;
  pkt.created = now;
  pkt.measured = false;
  pkt.msg_class = msg_class;
  pkt.length = 1;
  pkt.kind = kind;
  pkt.ack_for = ack_for;
  source_queue_.push_back(pkt);
  if (kind == PacketKind::kAck)
    ++stats_->resilience().acks_sent;
  else
    ++stats_->resilience().nacks_sent;
  if (wake_cb_) wake_cb_();
}

void NetworkInterface::queue_retransmit(Cycle now, Unacked& u) {
  ++u.retries;
  ++stats_->resilience().retransmissions;
  u.deadline = now + backoff(u.retries);
  next_deadline_ = std::min(next_deadline_, u.deadline);
  source_queue_.push_back(u.pkt);
  if (trace::enabled()) {
    json::Value args = json::Value::object();
    args.set("packet", static_cast<double>(u.pkt.id & 0xFFFFFFFFFFFFull));
    args.set("dst", u.pkt.dst);
    args.set("retries", u.retries);
    trace::instant("retransmit", "ni", trace::kSimPid, id_,
                   static_cast<double>(now), std::move(args));
  }
}

void NetworkInterface::check_timeouts(Cycle now) {
  if (unacked_.empty() || now < next_deadline_) return;
  next_deadline_ = kNoPendingEvent;
  for (auto& [pid, u] : unacked_) {
    if (u.deadline <= now) {
      ++stats_->resilience().timeouts;
      queue_retransmit(now, u);
    }
    next_deadline_ = std::min(next_deadline_, u.deadline);
  }
}

void NetworkInterface::tick(Cycle now) {
  eject(now);
  if (protection_) check_timeouts(now);
  // The agent runs after ejection (a request delivered this cycle can
  // start service immediately) and before injection (a reply it enqueues
  // can enter the network this cycle).
  if (agent_ != nullptr) agent_->tick(now);
  generate(now);
  inject(now);
}

void NetworkInterface::eject(Cycle now) {
  if (from_router_ == nullptr) return;
  while (from_router_->ready(now)) {
    const Flit f = from_router_->pop(now);
    NOCS_EXPECTS(f.dst == id_);
    --*flit_balance_;
    // The ejection buffer drains instantly; the credit goes back this
    // cycle (return_credits).
    NOCS_ENSURES(ejected_vcs_.size() < ejected_vcs_.capacity());
    ejected_vcs_.push_back(f.vc);
    ++total_ejected_flits_;
    const PacketRecord& rec = (*records_)[f.record];
    if (f.kind == PacketKind::kMcast)
      handle_mcast(now, f, rec);  // stats, forward the subranges, deliver
    else if (protection_)
      eject_protected(now, f, rec);
    else
      eject_plain(now, f, rec);
    // Every path above is done with the packet once its tail is through.
    if (f.is_tail) pool_->release(f.record);
  }
}

void NetworkInterface::eject_plain(Cycle now, const Flit& f,
                                   const PacketRecord& rec) {
  if (f.measured) {
    stats_->on_flit_ejected();
    if (f.is_tail) {
      stats_->on_packet_ejected(static_cast<double>(now - rec.created),
                                static_cast<double>(now - rec.injected),
                                f.hops, f.msg_class);
    }
  }
  // Node-local agent delivery (memory controllers consume class-0
  // requests here and enqueue replies from their tick).
  if (agent_ != nullptr && f.is_tail) agent_->on_packet(now, f, rec);
  // Protocol mode: a completed request triggers a data reply on the
  // response class — the dependence that makes class partitioning
  // necessary for protocol-deadlock freedom.
  if (request_reply_ && f.is_tail && f.msg_class == 0)
    send_packet(now, rec.src, /*msg_class=*/1, reply_length_);
}

void NetworkInterface::eject_protected(Cycle now, const Flit& f,
                                       const PacketRecord& rec) {
  if (f.kind != PacketKind::kData) {
    // Single-flit control packet.  A corrupted one is ignored — the data
    // sender's timeout covers a lost ACK/NACK.
    if (f.corrupted) return;
    if (f.kind == PacketKind::kAck) {
      unacked_.erase(rec.ack_for);
    } else {
      const auto it = unacked_.find(rec.ack_for);
      if (it != unacked_.end()) queue_retransmit(now, it->second);
    }
    return;
  }
  RxPacket& rx = rx_state_[rec.packet];
  rx.corrupted |= f.corrupted;
  if (f.measured) ++rx.measured_flits;
  if (!f.is_tail) return;
  const RxPacket done = rx;
  rx_state_.erase(rec.packet);
  if (done.corrupted) {
    // Checksum failure over the whole packet: discard and request a
    // retransmission straight away instead of waiting out the timeout.
    ++stats_->resilience().corrupted_packets;
    if (trace::enabled())
      trace::instant("packet_corrupted", "ni", trace::kSimPid, id_,
                     static_cast<double>(now));
    send_control(now, rec.src, PacketKind::kNack, rec.packet, f.msg_class);
    return;
  }
  // Acknowledge every clean copy — a duplicate means the previous ACK was
  // lost or overtaken by the sender's timeout, so it must be re-sent.
  send_control(now, rec.src, PacketKind::kAck, rec.packet, f.msg_class);
  if (!delivered_.insert(rec.packet).second) {
    ++stats_->resilience().duplicates;
    return;
  }
  // Goodput is recorded only here, on the first successful delivery, so
  // corrupted/duplicate copies never inflate the measured statistics.
  if (done.measured_flits > 0) {
    for (int i = 0; i < done.measured_flits; ++i) stats_->on_flit_ejected();
    stats_->on_packet_ejected(static_cast<double>(now - rec.created),
                              static_cast<double>(now - rec.injected), f.hops,
                              f.msg_class);
  }
  if (request_reply_ && f.msg_class == 0)
    send_packet(now, rec.src, /*msg_class=*/1, reply_length_);
}

void NetworkInterface::generate(Cycle now) {
  if (traffic_ == nullptr || injection_rate_ <= 0.0) return;
  // Bernoulli packet injection: offered load (flits/cycle) divided by the
  // packet length gives the per-cycle packet probability.  In protocol
  // mode the generated packets are short class-0 requests (the replies
  // they trigger add further load on class 1).
  const int gen_length =
      request_reply_ ? request_length_ : params_.packet_length;
  const double p = injection_rate_ / static_cast<double>(gen_length);
  if (!rng_.bernoulli(p)) return;
  const int logical_dst = traffic_->dest(logical_id_, rng_);
  NOCS_EXPECTS(logical_dst != logical_id_);
  send_packet(now, (*endpoints_)[static_cast<std::size_t>(logical_dst)],
              /*msg_class=*/0, gen_length);
}

void NetworkInterface::inject(Cycle now) {
  if (to_router_ == nullptr) return;
  if (!sending_) {
    if (source_queue_.empty()) return;
    // Injection-time fault drops: the whole packet vanishes before it ever
    // enters the network.  It stays in unacked_, so the retransmission
    // timeout recovers it.
    if (protection_ && oracle_ != nullptr) {
      while (!source_queue_.empty() &&
             source_queue_.front().kind == PacketKind::kData &&
             oracle_->drop_packet(id_, now)) {
        ++stats_->resilience().dropped_packets;
        source_queue_.pop_front();
      }
      if (source_queue_.empty()) return;
    }
    // Pick a VC with a free credit *within the packet's class partition*,
    // round-robin for fairness.
    const int cls = source_queue_.front().msg_class;
    const VcId base = params_.first_vc_of(cls);
    const int span = params_.vcs_per_class();
    VcId chosen = -1;
    for (int k = 1; k <= span; ++k) {
      const VcId v = base + (vc_rr_ + k) % span;
      if (credits_[static_cast<std::size_t>(v)] > 0) {
        chosen = v;
        break;
      }
    }
    if (chosen < 0) return;  // this class's local-port VCs backpressured
    vc_rr_ = chosen - base;
    sending_ = true;
    current_ = source_queue_.front();
    source_queue_.pop_front();
    flits_sent_ = 0;
    current_vc_ = chosen;
    head_injected_ = now;
    // Every flit of the packet carries only this record's ref.
    current_ref_ = pool_->acquire();
    (*records_)[current_ref_] = {current_.id, current_.created, now,
                                 current_.ack_for, id_};
  }

  if (credits_[static_cast<std::size_t>(current_vc_)] <= 0) return;

  Flit f;
  f.record = current_ref_;
  f.index = static_cast<std::int16_t>(flits_sent_);
  f.is_head = flits_sent_ == 0;
  f.is_tail = flits_sent_ == current_.length - 1;
  f.dst = current_.dst;
  f.vc = static_cast<std::int8_t>(current_vc_);
  f.msg_class = static_cast<std::int8_t>(current_.msg_class);
  f.measured = current_.measured;
  f.kind = current_.kind;

  const auto v = static_cast<std::size_t>(current_vc_);
  --credits_[v];
  // The credit just spent reserves the router's input slot at the tail.
  router_slots_[current_vc_ * params_.vc_depth + tails_[v]] = f;
  tails_[v] = static_cast<std::int16_t>(
      tails_[v] + 1 == params_.vc_depth ? 0 : tails_[v] + 1);
  to_router_->push(now, current_vc_);
  ++*flit_balance_;
  ++flits_sent_;
  if (f.is_tail) {
    sending_ = false;
    current_vc_ = -1;
  }
}

void NetworkInterface::restore_record(RecordRestore& restore) {
  if (!sending_) return;
  current_ref_ = restore.ref_for(
      {current_.id, current_.created, head_injected_, current_.ack_for, id_});
}

void NetworkInterface::save_pending(snapshot::Writer& w,
                                    const PendingPacket& p) {
  w.u64(p.id);
  w.i64(p.dst);
  w.u64(p.created);
  w.b(p.measured);
  w.i64(p.msg_class);
  w.i64(p.length);
  w.u8(static_cast<std::uint8_t>(p.kind));
  w.u64(p.ack_for);
}

NetworkInterface::PendingPacket NetworkInterface::load_pending(
    snapshot::Reader& r, int min_length) const {
  constexpr const char* kOwner = "pending packet";
  PendingPacket p{};
  p.id = r.u64();
  p.dst =
      static_cast<NodeId>(r.i64_in(0, params_.num_nodes() - 1, kOwner, "dst"));
  p.created = r.u64();
  p.measured = r.b();
  p.msg_class = static_cast<int>(
      r.i64_in(0, params_.num_classes - 1, kOwner, "msg_class"));
  p.length = static_cast<int>(
      r.i64_in(min_length, kMaxPacketLength, kOwner, "length"));
  p.kind = load_kind(r, kOwner);
  p.ack_for = r.u64();
  return p;
}

void NetworkInterface::save_state(snapshot::Writer& w) const {
  NOCS_EXPECTS(ejected_vcs_.empty());  // credits are owed only mid-cycle
  w.begin_section("ni");
  for (const std::uint64_t s : rng_.state()) w.u64(s);

  w.i64(static_cast<std::int64_t>(source_queue_.size()));
  source_queue_.for_each([&w](const PendingPacket& p) { save_pending(w, p); });

  w.i64(static_cast<std::int64_t>(credits_.size()));
  for (const std::int16_t c : credits_) w.i64(c);

  w.b(sending_);
  save_pending(w, current_);
  w.i64(flits_sent_);
  w.i64(current_vc_);
  w.u64(head_injected_);
  w.i64(vc_rr_);

  w.i64(static_cast<std::int64_t>(unacked_.size()));
  for (const auto& [pid, u] : unacked_) {
    w.u64(pid);
    save_pending(w, u.pkt);
    w.u64(u.deadline);
    w.i64(u.retries);
  }
  w.u64(next_deadline_);

  w.i64(static_cast<std::int64_t>(rx_state_.size()));
  for (const auto& [pid, rx] : rx_state_) {
    w.u64(pid);
    w.b(rx.corrupted);
    w.i64(rx.measured_flits);
  }

  // The duplicate filter is an unordered_set; serialize sorted so equal
  // states produce byte-identical snapshots.
  std::vector<PacketId> delivered(delivered_.begin(), delivered_.end());
  std::sort(delivered.begin(), delivered.end());
  w.i64(static_cast<std::int64_t>(delivered.size()));
  for (const PacketId pid : delivered) w.u64(pid);

  w.u64(total_generated_);
  w.u64(total_ejected_flits_);
  w.u64(next_packet_id_);
  w.end_section();
}

void NetworkInterface::load_state(snapshot::Reader& r) {
  r.begin_section("ni");
  std::array<std::uint64_t, 4> rng_state{};
  for (auto& s : rng_state) s = r.u64();
  rng_.set_state(rng_state);

  source_queue_.clear();
  const auto queued = r.i64();
  for (std::int64_t i = 0; i < queued; ++i)
    source_queue_.push_back(load_pending(r, 1));

  const auto num_credits = r.i64();
  if (num_credits != static_cast<std::int64_t>(credits_.size()))
    throw snapshot::SnapshotError(
        "NI credit vector size in checkpoint disagrees with num_vcs");
  for (std::int16_t& c : credits_) {
    const std::int64_t v = r.i64();
    if (v < 0 || v > params_.vc_depth)
      throw snapshot::SnapshotError(
          "NI credit count in checkpoint is out of range");
    c = static_cast<std::int16_t>(v);
  }

  sending_ = r.b();
  current_ = load_pending(r, sending_ ? 1 : 0);  // never sent: length 0
  flits_sent_ = static_cast<int>(r.i64());
  current_vc_ = static_cast<VcId>(r.i64());
  head_injected_ = r.u64();
  vc_rr_ = static_cast<int>(r.i64());

  unacked_.clear();
  const auto num_unacked = r.i64();
  for (std::int64_t i = 0; i < num_unacked; ++i) {
    const PacketId pid = r.u64();
    Unacked u{};
    u.pkt = load_pending(r, 1);
    u.deadline = r.u64();
    u.retries = static_cast<int>(r.i64());
    unacked_.emplace(pid, u);
  }
  next_deadline_ = r.u64();

  rx_state_.clear();
  const auto num_rx = r.i64();
  for (std::int64_t i = 0; i < num_rx; ++i) {
    const PacketId pid = r.u64();
    RxPacket rx{};
    rx.corrupted = r.b();
    rx.measured_flits = static_cast<int>(r.i64());
    rx_state_.emplace(pid, rx);
  }

  delivered_.clear();
  const auto num_delivered = r.i64();
  for (std::int64_t i = 0; i < num_delivered; ++i) delivered_.insert(r.u64());

  total_generated_ = r.u64();
  total_ejected_flits_ = r.u64();
  next_packet_id_ = r.u64();
  r.end_section();
}

}  // namespace nocs::noc
