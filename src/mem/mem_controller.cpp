#include "mem/mem_controller.hpp"

#include <utility>

#include "common/trace.hpp"

namespace nocs::mem {

MemCounters& MemCounters::operator+=(const MemCounters& o) {
  reads += o.reads;
  writes += o.writes;
  read_flits += o.read_flits;
  write_flits += o.write_flits;
  replies += o.replies;
  rejected += o.rejected;
  busy_cycles += o.busy_cycles;
  queue_cycles += o.queue_cycles;
  if (o.queue_peak > queue_peak) queue_peak = o.queue_peak;
  return *this;
}

void MemCounters::export_metrics(MetricsRegistry& reg,
                                 const std::string& prefix) const {
  reg.counter(prefix + ".reads").set(reads);
  reg.counter(prefix + ".writes").set(writes);
  reg.counter(prefix + ".read_flits").set(read_flits);
  reg.counter(prefix + ".write_flits").set(write_flits);
  reg.counter(prefix + ".replies").set(replies);
  reg.counter(prefix + ".rejected").set(rejected);
  reg.counter(prefix + ".busy_cycles").set(busy_cycles);
  reg.counter(prefix + ".queue_cycles").set(queue_cycles);
  reg.counter(prefix + ".queue_peak").set(queue_peak);
}

MemController::MemController(NodeId node, const MemParams& params,
                             noc::NetworkInterface* ni)
    : node_(node), params_(params), ni_(ni) {
  params_.validate();
  NOCS_EXPECTS(ni != nullptr && ni->id() == node);
}

void MemController::on_packet(Cycle now, const noc::Flit& tail,
                              const noc::PacketRecord& packet) {
  // Only plain class-0 data packets are memory requests; replies,
  // multicast segments, and other virtual networks pass through to the
  // node's ordinary ejection path untouched.
  if (tail.kind != noc::PacketKind::kData ||
      tail.msg_class != kMemRequestClass)
    return;
  const int length = tail.index + 1;
  Request req;
  req.src = packet.src;
  req.write = length > 1;
  req.data_flits = req.write ? length : params_.reply_length;
  req.arrived = now;
  accept(now, req);
}

void MemController::enqueue_local(Cycle now, bool write, int data_flits) {
  NOCS_EXPECTS(data_flits >= 1);
  Request req;
  req.src = node_;
  req.write = write;
  req.data_flits = write ? data_flits : params_.reply_length;
  req.arrived = now;
  accept(now, req);
  // The request never crossed the NI, so the active-node fast path has no
  // idea this node is busy again.
  ni_->wake();
}

void MemController::accept(Cycle now, const Request& req) {
  (void)now;
  if (params_.queue_capacity > 0 &&
      occupancy() >= static_cast<std::size_t>(params_.queue_capacity)) {
    ++counters_.rejected;
    return;
  }
  queue_.push_back(req);
  if (occupancy() > counters_.queue_peak)
    counters_.queue_peak = occupancy();
}

int MemController::service_cycles(const Request& req) const {
  const int transfer =
      (req.data_flits + params_.bandwidth - 1) / params_.bandwidth;
  const int total = params_.access_latency + transfer;
  return total >= 1 ? total : 1;
}

void MemController::complete(Cycle now) {
  const Request& req = current_;
  if (req.write) {
    ++counters_.writes;
    counters_.write_flits += static_cast<std::uint64_t>(req.data_flits);
  } else {
    ++counters_.reads;
    counters_.read_flits += static_cast<std::uint64_t>(req.data_flits);
  }
  ++counters_.replies;
  // Reads answer with the data burst, writes with a 1-flit ack; a request
  // from the controller's own node completes locally (the NoC rejects
  // self-addressed packets, and a local access never entered the mesh).
  if (req.src != node_) {
    const int reply_len = req.write ? 1 : req.data_flits;
    ni_->send_packet(now, req.src, kMemReplyClass, reply_len);
  }
  if (trace::enabled()) {
    json::Value args = json::Value::object();
    args.set("src", req.src);
    args.set("flits", req.data_flits);
    args.set("queued", static_cast<double>(started_ - req.arrived));
    trace::complete(req.write ? "dram_write" : "dram_read", "mem",
                    trace::kSimPid, static_cast<int>(node_),
                    static_cast<double>(started_),
                    static_cast<double>(now - started_), std::move(args));
  }
  serving_ = false;
}

void MemController::tick(Cycle now) {
  counters_.queue_cycles += occupancy();
  if (serving_) {
    ++counters_.busy_cycles;
    if (now >= finish_) complete(now);
  }
  if (!serving_ && !queue_.empty()) {
    current_ = queue_.front();
    queue_.pop_front();
    serving_ = true;
    started_ = now;
    finish_ = now + static_cast<Cycle>(service_cycles(current_));
  }
}

namespace {

void save_request(snapshot::Writer& w, NodeId src, bool write, int flits,
                  Cycle arrived) {
  w.i64(src);
  w.b(write);
  w.i64(flits);
  w.u64(arrived);
}

}  // namespace

void MemController::save_state(snapshot::Writer& w) const {
  w.begin_section("mem_ctrl");
  w.b(serving_);
  save_request(w, current_.src, current_.write, current_.data_flits,
               current_.arrived);
  w.u64(started_);
  w.u64(finish_);
  w.u64(queue_.size());
  for (const Request& q : queue_)
    save_request(w, q.src, q.write, q.data_flits, q.arrived);
  w.u64(counters_.reads);
  w.u64(counters_.writes);
  w.u64(counters_.read_flits);
  w.u64(counters_.write_flits);
  w.u64(counters_.replies);
  w.u64(counters_.rejected);
  w.u64(counters_.busy_cycles);
  w.u64(counters_.queue_cycles);
  w.u64(counters_.queue_peak);
  w.end_section();
}

namespace {

void load_request(snapshot::Reader& r, NodeId* src, bool* write, int* flits,
                  Cycle* arrived) {
  *src = static_cast<NodeId>(r.i64());
  *write = r.b();
  *flits = static_cast<int>(r.i64());
  *arrived = r.u64();
}

}  // namespace

void MemController::load_state(snapshot::Reader& r) {
  r.begin_section("mem_ctrl");
  serving_ = r.b();
  load_request(r, &current_.src, &current_.write, &current_.data_flits,
               &current_.arrived);
  started_ = r.u64();
  finish_ = r.u64();
  queue_.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    Request q;
    load_request(r, &q.src, &q.write, &q.data_flits, &q.arrived);
    queue_.push_back(q);
  }
  counters_.reads = r.u64();
  counters_.writes = r.u64();
  counters_.read_flits = r.u64();
  counters_.write_flits = r.u64();
  counters_.replies = r.u64();
  counters_.rejected = r.u64();
  counters_.busy_cycles = r.u64();
  counters_.queue_cycles = r.u64();
  counters_.queue_peak = r.u64();
  r.end_section();
  // The network restored its hot set before this controller regained its
  // queue/in-service state; re-arm the node if we came back busy.
  if (serving_ || !queue_.empty()) ni_->wake();
}

}  // namespace nocs::mem
