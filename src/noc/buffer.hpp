// Per-VC flit buffer with fixed capacity (credit-based flow control keeps
// it from overflowing; overflow is therefore a protocol bug and asserts).
//
// Implemented as a fixed-capacity ring over caller-provided storage:
// pushing and popping flits on the simulator's hottest path never touches
// the heap.  The router carves every VC's ring out of its one state block,
// so a router's buffered state sits next to its VC bookkeeping instead of
// in ports * vcs heap allocations.
//
// The buffer is 16 bytes: the storage pointer and three int16 indices.
// A slot is one 16-byte Flit (the packet's bookkeeping stays in its
// PacketRecord), so a VC of depth 4 fills one cache line.
//
// The ring has two regions.  The buffered flits [head, head + size) are
// the consumer's: the router reads and pops them.  The pending region
// follows: slots the upstream sender has written, one per credit it
// spent, whose arrival the link has not yet delivered.  The sender keeps
// its own tail index into this ring (one writer per index), and
// accept() moves the oldest pending flit into the buffered region when
// its arrival pops off the link.  So the ring never rewinds: moving the
// consumer's head back would race the sender's tail.  The ring phase is
// not observable (checkpoints store flits oldest-first and load rebuilds
// both regions from slot 0), so it cannot change any result.
#pragma once

#include <cstdint>

#include "common/assert.hpp"
#include "noc/flit.hpp"
#include "noc/packet_record.hpp"

namespace nocs::noc {

/// FIFO buffer holding the flits of (at most) one in-flight packet per VC.
class VcBuffer {
 public:
  /// A ring over `capacity` slots at `storage`, which must outlive the
  /// buffer and not move while it is alive.
  VcBuffer(Flit* storage, int capacity)
      : slots_(storage), capacity_(static_cast<std::int16_t>(checked(capacity))) {
    NOCS_EXPECTS(storage != nullptr);
  }

  // Never copied or moved: the buffer aliases its storage, and the router
  // constructs each of its buffers in place.
  VcBuffer(const VcBuffer&) = delete;
  VcBuffer& operator=(const VcBuffer&) = delete;

  bool empty() const { return count_ == 0; }
  bool full() const { return count_ >= capacity_; }
  int size() const { return count_; }
  int capacity() const { return capacity_; }
  /// Ring index of the oldest buffered flit.
  int head() const { return head_; }
  /// The ring's storage: capacity() slots, the sender's reserved slots
  /// among them.
  Flit* storage() const { return slots_; }

  /// Pending flit `k` (0 = the oldest): the slot k past the newest
  /// buffered flit.  Only the first capacity() - size() exist.
  Flit& pending(int k) {
    NOCS_EXPECTS(k >= 0 && count_ + k < capacity_);
    return slots_[wrap(head_ + count_ + k)];
  }
  const Flit& pending(int k) const {
    NOCS_EXPECTS(k >= 0 && count_ + k < capacity_);
    return slots_[wrap(head_ + count_ + k)];
  }

  /// Ring index the sender's next flit goes to when `in_flight` flits are
  /// pending.
  int tail(int in_flight) const {
    NOCS_EXPECTS(in_flight >= 0 && count_ + in_flight <= capacity_);
    return wrap(head_ + count_ + in_flight);
  }

  /// Moves the oldest pending flit into the buffered region and returns
  /// it; credit-based flow control guarantees space.
  const Flit& accept() {
    NOCS_ENSURES(!full());
    return slots_[wrap(head_ + count_++)];
  }

  const Flit& front() const {
    NOCS_EXPECTS(!empty());
    return slots_[head_];
  }

  /// Removes the oldest flit; its slot becomes the last the sender may
  /// reserve once the credit returns.
  Flit pop() {
    NOCS_EXPECTS(!empty());
    const Flit f = slots_[head_];
    head_ = static_cast<std::int16_t>(wrap(head_ + 1));
    --count_;
    return f;
  }

  /// Calls visit(flit) for every buffered flit, oldest first.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (int i = 0; i < count_; ++i) visit(slots_[wrap(head_ + i)]);
  }

  /// Checkpoint: buffered flits oldest-first, each with its packet's
  /// record fields.  The ring phase (head index) is not part of the
  /// observable state, so load_state rebuilds the queue from slot 0 —
  /// contents and order are what must round-trip.  Pending flits are
  /// written with their link (Network::save_state) and loaded after.
  void save_state(snapshot::Writer& w, const PacketRecords& records) const {
    w.begin_section("vc_buffer");
    w.i64(count_);
    for_each([&](const Flit& f) { records.save(w, f); });
    w.end_section();
  }

  void load_state(snapshot::Reader& r, RecordRestore& restore) {
    r.begin_section("vc_buffer");
    const std::int64_t n = r.i64();
    if (n < 0 || n > capacity_)
      throw snapshot::SnapshotError(
          "vc buffer occupancy in checkpoint exceeds configured capacity");
    head_ = 0;
    count_ = static_cast<std::int16_t>(n);
    for (int i = 0; i < count_; ++i) restore.load(r, slots_[i]);
    r.end_section();
  }

 private:
  static int checked(int capacity) {
    NOCS_EXPECTS(capacity >= 1 && capacity <= kMaxPortFlits);
    return capacity;
  }

  int wrap(int index) const {
    // Capacity is the VC depth (typically 4, not always a power of two),
    // so wrap with a compare instead of a mask or modulo.
    return index >= capacity_ ? index - capacity_ : index;
  }

  Flit* slots_;
  std::int16_t capacity_;
  std::int16_t head_ = 0;   // index of the oldest buffered flit
  std::int16_t count_ = 0;  // buffered flits
};
static_assert(sizeof(VcBuffer) == 16);

}  // namespace nocs::noc
