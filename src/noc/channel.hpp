// Latched fixed-latency channels connecting routers and network interfaces.
//
// A value pushed into a Pipe at cycle t becomes visible at t + latency, so
// the per-cycle evaluation order of routers cannot change simulation
// results — the property that makes the simulator deterministic.  A link
// into a router carries no flit: the sender writes each flit straight into
// the receiver's input-VC ring slot its credit reserves (see router.hpp),
// and the link's ArrivalLog, a Pipe of VC ids, says when it may be read.
// Only the ejection channel (router to NI, which has no VC ring) is a
// Pipe<Flit>.  (Credits travel upstream without a pipe: the network
// returns them behind its phase barrier, see network.hpp.)
//
// That same property makes Pipe the cross-shard channel of the sharded
// Network::tick, so a pipe whose ends tick on different shards is a
// single-producer/single-consumer lock-free ring: the producer owns
// `pushed_`, the consumer owns `popped_`, and each release-publishes its
// counter so the other side observes fully-written slots — and, for an
// arrival log, the reserved VC slot the producer wrote before its push.
// Determinism survives the race window on purpose — a value pushed at
// cycle t is never receivable before t+1 (latency >= 1), so whether the
// consumer's same-cycle loads observe it or not cannot change what
// pop/ready return this cycle; by the next phase barrier the write is
// visible everywhere.
//
// The ring never grows: regrowing it under a concurrent consumer would be
// a data race.  Credit flow control bounds a network pipe's occupancy by
// the downstream buffering of one port, num_vcs * vc_depth (every value in
// a pipe holds one of its sender's credits), so the network sizes each
// ring to exactly that bound, and a push into a full ring is a contract
// failure: it means credit flow is broken.
//
// Layout: the header is 48 bytes and every pipe keeps its ring inline
// right after it, in one cache-line-aligned block (Pipe::emplace), so
// the counters and ring slot 0 share the block's first line.  The
// header's 40 bytes of fields are padded to 48 so that the ring starts
// 16-byte aligned.  A flit slot is 24 bytes (the ready cycle and a
// 16-byte Flit), so a Table-1 ejection pipe of 16 slots is a 448-byte
// block; an arrival slot is 8 bytes (ready << 8 | vc), so a Table-1
// arrival log is a 192-byte block.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

#include "common/assert.hpp"
#include "common/snapshot.hpp"
#include "common/types.hpp"
#include "noc/flit.hpp"

namespace nocs::noc {

/// Cache-line size the network's state blocks are aligned to.
inline constexpr std::size_t kCacheLine = 64;

/// Frees a block from new_line_block().
struct LineBlockDelete {
  void operator()(std::byte* p) const {
    ::operator delete(p, std::align_val_t{kCacheLine});
  }
};
using LineBlock = std::unique_ptr<std::byte, LineBlockDelete>;

/// Ends an object built at the start of a new_line_block() block and
/// frees the block.
struct LineObjectDelete {
  template <typename T>
  void operator()(T* p) const {
    std::destroy_at(p);
    LineBlockDelete{}(reinterpret_cast<std::byte*>(p));
  }
};

/// An uninitialized cache-line-aligned heap block of `bytes` bytes.
inline LineBlock new_line_block(std::size_t bytes) {
  return LineBlock(static_cast<std::byte*>(
      ::operator new(bytes, std::align_val_t{kCacheLine})));
}

/// `bytes` rounded up to a multiple of `align` (a power of two).
constexpr std::size_t align_up(std::size_t bytes, std::size_t align) {
  return (bytes + align - 1) & ~(align - 1);
}

/// Sentinel ready time meaning "no value pending".
inline constexpr Cycle kNoPendingEvent = ~Cycle{0};

/// Consumer-side wake hook: a pipe notifies its sink when a value is
/// pushed into an empty queue, telling the network when the consuming
/// router/NI next has work.  Pushes into a non-empty queue are not
/// reported — a consumer keeps reading a pipe until it finds it empty, or
/// hands the pipe back with Pipe::rearm(), so one notification per busy
/// period suffices.
class WakeSink {
 public:
  virtual ~WakeSink() = default;

  /// A value will become receivable at `ready_at`.
  virtual void on_push(Cycle ready_at) = 0;
};

/// A pipe slot holding the ready cycle beside the value.
template <typename T>
struct TimedSlot {
  Cycle ready_at = 0;
  T value{};

  TimedSlot() = default;
  TimedSlot(Cycle ready, T v) : ready_at(ready), value(std::move(v)) {}
  Cycle ready() const { return ready_at; }
  const T& get() const { return value; }
  T take() { return std::move(value); }
};

/// An arrival-log slot: the VC a flit arrives on and the cycle it becomes
/// receivable, packed into 8 bytes as ready << 8 | vc (a VC id is at most
/// kMaxVcs - 1 = 126, and a ready cycle stays far below 2^56).
struct VcArrival {
  std::uint64_t bits = 0;

  VcArrival() = default;
  VcArrival(Cycle ready, VcId vc)
      : bits(ready << 8 | static_cast<std::uint8_t>(vc)) {}
  Cycle ready() const { return bits >> 8; }
  VcId get() const { return static_cast<VcId>(bits & 0xff); }
  VcId take() const { return get(); }
};
static_assert(kMaxVcs <= 256);

/// FIFO channel with a fixed propagation latency in cycles.
///
/// Storage is a power-of-two ring of `SlotT` inline after the header, so
/// a pipe is only ever built in a block: emplace() in a caller's block,
/// make() in one of its own.  `pushed_` and `popped_` are monotonic totals
/// and the slot index is their value masked by the capacity.  Push and pop
/// never reallocate.
template <typename T, typename SlotT = TimedSlot<T>>
class alignas(16) Pipe {
 public:
  using Slot = SlotT;

  /// Bytes of the cache-line-aligned block emplace() builds a pipe in.
  static std::size_t block_bytes(int latency, int capacity) {
    return align_up(sizeof(Pipe) + ring_size(latency, capacity) * sizeof(Slot),
                    kCacheLine);
  }

  /// Constructs a pipe with its ring inline after the header in `block`
  /// (block_bytes() bytes, aligned to a cache line, owned by the caller,
  /// who ends the pipe with std::destroy_at before releasing the block).
  /// The ring holds max(`capacity`, latency + 1) values, rounded up to a
  /// power of two; the network passes its credit-flow bound.
  static Pipe* emplace(void* block, int latency, int capacity) {
    NOCS_EXPECTS(reinterpret_cast<std::uintptr_t>(block) % kCacheLine == 0);
    return ::new (block) Pipe(latency, ring_size(latency, capacity));
  }

  /// A pipe emplaced in a block of its own, freed with the pipe.
  using Owner = std::unique_ptr<Pipe, LineObjectDelete>;
  static Owner make(int latency = 1, int capacity = 0) {
    LineBlock block = new_line_block(block_bytes(latency, capacity));
    Owner pipe(emplace(block.get(), latency, capacity));
    block.release();
    return pipe;
  }

  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;
  ~Pipe() { std::destroy_n(slots_, capacity()); }

  /// Registers the consumer's wake hook (optional; null disables).
  void set_sink(WakeSink* sink) { sink_ = sink; }

  /// Enqueues `value` at cycle `now`; it becomes receivable at
  /// `now + latency`.  Producer side of the SPSC ring.
  void push(Cycle now, T value) {
    const std::uint64_t p = pushed_.load(std::memory_order_relaxed);
    const std::uint64_t c = popped_.load(std::memory_order_acquire);
    const Cycle ready_at = now + latency_;
    // FIFO ordering requires monotonically non-decreasing ready times.
    NOCS_ENSURES(p == c || slots_[index(p - 1)].ready() <= ready_at);
    NOCS_ENSURES(p - c <= mask_);  // credit flow bounds occupancy
    if (p == c && sink_ != nullptr) sink_->on_push(ready_at);
    slots_[index(p)] = Slot(ready_at, std::move(value));
    pushed_.store(p + 1, std::memory_order_release);
  }

  /// True when a value is receivable at cycle `now`.  Consumer side.
  bool ready(Cycle now) const {
    const std::uint64_t c = popped_.load(std::memory_order_relaxed);
    const std::uint64_t p = pushed_.load(std::memory_order_acquire);
    return p != c && slots_[index(c)].ready() <= now;
  }

  /// Peeks the next receivable value; precondition: ready(now).
  decltype(auto) front(Cycle now) const {
    NOCS_EXPECTS(ready(now));
    return slots_[index(popped_.load(std::memory_order_relaxed))].get();
  }

  /// Removes and returns the next receivable value; precondition: ready(now).
  T pop(Cycle now) {
    NOCS_EXPECTS(ready(now));
    const std::uint64_t c = popped_.load(std::memory_order_relaxed);
    T v = slots_[index(c)].take();
    popped_.store(c + 1, std::memory_order_release);
    return v;
  }

  bool empty() const { return size() == 0; }
  std::size_t size() const {
    return static_cast<std::size_t>(pushed_.load(std::memory_order_acquire) -
                                    popped_.load(std::memory_order_acquire));
  }
  int latency() const { return static_cast<int>(latency_); }
  std::size_t capacity() const { return std::size_t{mask_} + 1; }

  /// Reports the oldest pending value's ready time to the sink again, if
  /// any value is pending.  Consumer side: a consumer that stops reading a
  /// non-empty pipe re-arms its wake this way.
  void rearm() const {
    const Cycle t = next_ready_time();
    if (t != kNoPendingEvent && sink_ != nullptr) sink_->on_push(t);
  }

  /// Calls visit(value) for every pending value, oldest first.  Consumer
  /// side, or between ticks.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    const std::uint64_t p = pushed_.load(std::memory_order_acquire);
    for (std::uint64_t i = popped_.load(std::memory_order_relaxed); i != p;
         ++i)
      visit(slots_[index(i)].get());
  }

  /// Ready time of the oldest pending value, or kNoPendingEvent when empty
  /// (used by idle NIs to re-arm their next wake-up).
  Cycle next_ready_time() const {
    const std::uint64_t c = popped_.load(std::memory_order_relaxed);
    const std::uint64_t p = pushed_.load(std::memory_order_acquire);
    return p == c ? kNoPendingEvent : slots_[index(c)].ready();
  }

  /// Checkpoint: in-flight values oldest-first with their absolute ready
  /// times.  The element codec is a callback because Pipe is generic over
  /// the payload.
  template <typename SaveElem>
  void save_state(snapshot::Writer& w, SaveElem&& save_elem) const {
    const std::uint64_t c = popped_.load(std::memory_order_relaxed);
    const std::uint64_t p = pushed_.load(std::memory_order_relaxed);
    w.begin_section("pipe");
    w.u64(latency_);
    w.i64(static_cast<std::int64_t>(p - c));
    for (std::uint64_t i = c; i != p; ++i) {
      const Slot& slot = slots_[index(i)];
      w.u64(slot.ready());
      save_elem(w, slot.get());
    }
    w.end_section();
  }

  /// Restores in-flight values without firing the wake sink: the network
  /// restore path marks every consumer hot and re-arms every router input
  /// (Router::reset_inputs), which subsumes the per-push notifications.
  /// Ready times are absolute cycles and stay valid because
  /// Network::now() is restored from the same checkpoint.
  template <typename LoadElem>
  void load_state(snapshot::Reader& r, LoadElem&& load_elem) {
    r.begin_section("pipe");
    const Cycle lat = r.u64();
    if (lat != latency_)
      throw snapshot::SnapshotError(
          "pipe latency in checkpoint disagrees with configured topology");
    const std::int64_t n = r.i64();
    if (n < 0) throw snapshot::SnapshotError("negative pipe occupancy");
    if (static_cast<std::size_t>(n) > capacity())
      throw snapshot::SnapshotError("pipe occupancy exceeds its capacity");
    popped_.store(0, std::memory_order_relaxed);
    pushed_.store(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
    for (std::int64_t i = 0; i < n; ++i) {
      const Cycle ready_at = r.u64();
      T value{};
      load_elem(r, value);
      slots_[static_cast<std::size_t>(i)] = Slot(ready_at, std::move(value));
    }
    r.end_section();
  }

 private:
  static std::size_t ring_size(int latency, int capacity) {
    NOCS_EXPECTS(latency >= 0);
    return std::bit_ceil(static_cast<std::size_t>(
        latency + 1 > capacity ? latency + 1 : capacity));
  }

  /// A ring of `slots` values inline after the header (see emplace).
  Pipe(int latency, std::size_t slots)
      : slots_(reinterpret_cast<Slot*>(reinterpret_cast<std::byte*>(this) +
                                       sizeof(Pipe))),
        mask_(static_cast<std::uint32_t>(slots - 1)),
        latency_(static_cast<std::uint32_t>(latency)) {
    std::uninitialized_value_construct_n(slots_, slots);
  }

  std::size_t index(std::uint64_t pos) const {
    return static_cast<std::size_t>(pos & mask_);
  }

  // Monotonic totals; occupancy = pushed_ - popped_.  Producer-owned and
  // consumer-owned respectively: each is stored by exactly one side.
  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> popped_{0};
  Slot* slots_;
  WakeSink* sink_ = nullptr;
  std::uint32_t mask_;     // ring size - 1 (the size is a power of two)
  std::uint32_t latency_;
};
// The header leaves the rest of its first cache line to ring slot 0.
static_assert(sizeof(Pipe<int>) == 48);

/// A router input link's arrival log: which VC each flit arrived on and
/// when it becomes receivable.  The flit itself already sits in the
/// receiving router's input-VC ring, in the slot the sender's credit
/// reserved; popping the log makes that slot visible (Router::tick).
using ArrivalLog = Pipe<VcId, VcArrival>;
static_assert(sizeof(ArrivalLog::Slot) == 8);

}  // namespace nocs::noc
