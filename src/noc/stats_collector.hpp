// Shared latency/throughput statistics collector for one simulation.
#pragma once

#include <array>
#include <vector>

#include "common/metrics.hpp"
#include "common/snapshot.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "noc/counters.hpp"

namespace nocs::noc {

/// Upper bound on message classes tracked separately by the collector.
inline constexpr int kMaxStatClasses = 4;

/// End-to-end protection activity (all zero on a fault-free run).  Bumped
/// by the network interfaces; retransmissions and control packets add
/// offered load but never touch the packet-latency statistics.
struct ResilienceCounters {
  std::uint64_t retransmissions = 0;    ///< data packets re-queued (any cause)
  std::uint64_t timeouts = 0;           ///< retransmissions due to ACK timeout
  std::uint64_t corrupted_packets = 0;  ///< packets discarded by the checksum
  std::uint64_t dropped_packets = 0;    ///< packets lost at injection (faults)
  std::uint64_t duplicates = 0;         ///< re-deliveries the filter removed
  std::uint64_t acks_sent = 0;
  std::uint64_t nacks_sent = 0;

  ResilienceCounters& operator+=(const ResilienceCounters& o);
  std::uint64_t total() const;

  /// Registers every counter under "resilience.<field>".
  void export_metrics(MetricsRegistry& reg) const;
};

inline constexpr CounterField<ResilienceCounters>
    kResilienceCounterFields[] = {
        {"retransmissions", &ResilienceCounters::retransmissions},
        {"timeouts", &ResilienceCounters::timeouts},
        {"corrupted_packets", &ResilienceCounters::corrupted_packets},
        {"dropped_packets", &ResilienceCounters::dropped_packets},
        {"duplicates", &ResilienceCounters::duplicates},
        {"acks_sent", &ResilienceCounters::acks_sent},
        {"nacks_sent", &ResilienceCounters::nacks_sent},
};

inline ResilienceCounters& ResilienceCounters::operator+=(
    const ResilienceCounters& o) {
  for (const auto& f : kResilienceCounterFields)
    this->*f.member += o.*f.member;
  return *this;
}

inline std::uint64_t ResilienceCounters::total() const {
  std::uint64_t sum = 0;
  for (const auto& f : kResilienceCounterFields) sum += this->*f.member;
  return sum;
}

inline void ResilienceCounters::export_metrics(MetricsRegistry& reg) const {
  for (const auto& f : kResilienceCounterFields)
    reg.counter(std::string("resilience.") + f.name).set(this->*f.member);
}

/// Gathers packet-level statistics from all network interfaces.  The
/// simulator toggles `set_measuring()` around the measurement window;
/// packets generated while measuring are tagged and only they contribute
/// to latency statistics (the standard warmup/measure/drain methodology).
class StatsCollector {
 public:
  // 2-cycle bins to 1024 initially; the histogram grows (bins merge
  // pairwise) rather than clamping, so saturated-run tails stay honest.
  StatsCollector() : latency_hist_(2.0, 512, /*auto_grow=*/true) {}

  void reset() { *this = StatsCollector{}; }

  void set_measuring(bool m) { measuring_ = m; }
  bool measuring() const {
    return master_ != nullptr ? master_->measuring() : measuring_;
  }

  // --- sharded-tick support --------------------------------------------------
  //
  // Order matters for bit-identical floating-point results: RunningStat's
  // Welford update is not associative, so per-shard accumulators cannot
  // simply be merged.  Instead a shard's collector *defers*: ejection
  // events are buffered verbatim and the commutative integer counters
  // accumulate locally; after the cycle barrier the network drains every
  // shard in ascending shard order, replaying the events into the master
  // in exactly the order the serial ascending-node-id loop would have
  // produced.  The measuring flag is read through to the master (it is
  // only toggled between ticks, so the concurrent reads are race-free).

  /// Puts this collector in deferred mode feeding `master` (null returns
  /// to direct mode).
  void defer_to(StatsCollector* master) { master_ = master; }
  bool deferring() const { return master_ != nullptr; }

  /// True when nothing is buffered (between ticks this must hold — the
  /// network drains every shard at the end of each cycle).
  bool deferred_empty() const {
    return generated_ == 0 && flits_ejected_ == 0 && deferred_ejects_.empty() &&
           resilience_.total() == 0;
  }

  /// Replays everything buffered since the last drain into the master.
  void drain_deferred() {
    StatsCollector& m = *master_;
    m.generated_ += generated_;
    generated_ = 0;
    m.flits_ejected_ += flits_ejected_;
    flits_ejected_ = 0;
    for (const DeferredEject& e : deferred_ejects_)
      m.on_packet_ejected(e.packet_latency, e.network_latency, e.hops,
                          e.msg_class);
    deferred_ejects_.clear();
    m.resilience_ += resilience_;
    resilience_ = ResilienceCounters{};
  }

  /// Called by the source NI when a measured packet is generated.
  void on_packet_generated() { ++generated_; }

  /// Called by the destination NI when a measured packet's tail ejects.
  /// `packet_latency` = tail eject - generation (includes source queueing);
  /// `network_latency` = tail eject - head injection.
  void on_packet_ejected(double packet_latency, double network_latency,
                         int hops, int msg_class = 0) {
    if (master_ != nullptr) {
      deferred_ejects_.push_back(
          {packet_latency, network_latency, hops, msg_class});
      return;
    }
    ++ejected_;
    packet_latency_.add(packet_latency);
    network_latency_.add(network_latency);
    hops_.add(static_cast<double>(hops));
    latency_hist_.add(packet_latency);
    // Classes outside [0, kMaxStatClasses) land in the trailing
    // "unclassified" bucket instead of being silently dropped, so
    // per-class totals always sum to the overall packet count.
    const std::size_t cls =
        (msg_class >= 0 && msg_class < kMaxStatClasses)
            ? static_cast<std::size_t>(msg_class)
            : static_cast<std::size_t>(kMaxStatClasses);
    class_latency_[cls].add(packet_latency);
  }

  /// Per-message-class packet latency (e.g. class 0 = requests, class 1 =
  /// data replies in protocol mode).
  const RunningStat& class_latency(int msg_class) const {
    NOCS_EXPECTS(msg_class >= 0 && msg_class < kMaxStatClasses);
    return class_latency_[static_cast<std::size_t>(msg_class)];
  }

  /// Latency of packets whose class fell outside [0, kMaxStatClasses).
  const RunningStat& unclassified_latency() const {
    return class_latency_[static_cast<std::size_t>(kMaxStatClasses)];
  }

  /// Packet-latency quantile (e.g. 0.99 for the tail latency interactive
  /// workloads care about), interpolated from the latency histogram.
  double latency_quantile(double q) const { return latency_hist_.quantile(q); }

  /// The underlying packet-latency histogram.
  const Histogram& latency_histogram() const { return latency_hist_; }

  /// True when some packet latency exceeded the histogram's initial range
  /// (it grew to cover the tail — quantiles are correct but coarser).
  bool histogram_saturated() const { return latency_hist_.range_extended(); }

  /// Called per measured flit ejected (throughput accounting).
  void on_flit_ejected() { ++flits_ejected_; }

  std::uint64_t generated_packets() const { return generated_; }
  std::uint64_t ejected_packets() const { return ejected_; }
  std::uint64_t ejected_flits() const { return flits_ejected_; }

  /// True once every measured packet has been drained.
  bool all_drained() const { return ejected_ >= generated_; }

  const RunningStat& packet_latency() const { return packet_latency_; }
  const RunningStat& network_latency() const { return network_latency_; }
  const RunningStat& hops() const { return hops_; }

  ResilienceCounters& resilience() { return resilience_; }
  const ResilienceCounters& resilience() const { return resilience_; }

  /// Registers packet/latency statistics (and the resilience counters)
  /// into `reg` under "noc.*" / "resilience.*".
  void export_metrics(MetricsRegistry& reg) const {
    reg.counter("noc.packets_generated").set(generated_);
    reg.counter("noc.packets_ejected").set(ejected_);
    reg.counter("noc.flits_ejected").set(flits_ejected_);
    reg.counter("noc.unclassified_packets").set(unclassified_latency().count());
    reg.gauge("noc.packet_latency.mean").set(packet_latency_.mean());
    reg.gauge("noc.packet_latency.max").set(packet_latency_.max());
    reg.gauge("noc.packet_latency.p50").set(latency_quantile(0.5));
    reg.gauge("noc.packet_latency.p99").set(latency_quantile(0.99));
    reg.gauge("noc.network_latency.mean").set(network_latency_.mean());
    reg.gauge("noc.hops.mean").set(hops_.mean());
    resilience_.export_metrics(reg);
  }

  /// Checkpoint/restore of the full accumulator state, including the
  /// measuring flag — restoring mid-measure resumes tagging correctly.
  void save_state(snapshot::Writer& w) const {
    w.begin_section("stats");
    w.b(measuring_);
    w.u64(generated_);
    w.u64(ejected_);
    w.u64(flits_ejected_);
    packet_latency_.save_state(w);
    network_latency_.save_state(w);
    hops_.save_state(w);
    latency_hist_.save_state(w);
    for (const RunningStat& s : class_latency_) s.save_state(w);
    for (const auto& f : kResilienceCounterFields)
      w.u64(resilience_.*f.member);
    w.end_section();
  }

  void load_state(snapshot::Reader& r) {
    r.begin_section("stats");
    measuring_ = r.b();
    generated_ = r.u64();
    ejected_ = r.u64();
    flits_ejected_ = r.u64();
    packet_latency_.load_state(r);
    network_latency_.load_state(r);
    hops_.load_state(r);
    latency_hist_.load_state(r);
    for (RunningStat& s : class_latency_) s.load_state(r);
    for (const auto& f : kResilienceCounterFields)
      resilience_.*f.member = r.u64();
    r.end_section();
  }

 private:
  struct DeferredEject {
    double packet_latency;
    double network_latency;
    int hops;
    int msg_class;
  };

  bool measuring_ = false;
  StatsCollector* master_ = nullptr;  ///< non-null = deferred (shard) mode
  std::vector<DeferredEject> deferred_ejects_;
  std::uint64_t generated_ = 0;
  std::uint64_t ejected_ = 0;
  std::uint64_t flits_ejected_ = 0;
  RunningStat packet_latency_;
  RunningStat network_latency_;
  RunningStat hops_;
  Histogram latency_hist_;
  // One slot per tracked class plus the trailing unclassified bucket.
  std::array<RunningStat, kMaxStatClasses + 1> class_latency_;
  ResilienceCounters resilience_;
};

}  // namespace nocs::noc
