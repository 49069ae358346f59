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
// Its ring rewinds: when the last flit leaves, the head returns to slot
// 0, so a VC that carries one packet at a time keeps reusing the same
// first slots instead of walking the whole ring.  The
// ring phase is not observable (checkpoints store flits oldest-first), so
// the rewind cannot change any result.
#pragma once

#include <cstdint>

#include "common/assert.hpp"
#include "noc/flit.hpp"

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
  /// Ring index of the oldest flit (0 whenever the buffer is empty).
  int head() const { return head_; }

  /// Appends a flit; credit-based flow control guarantees space.
  void push(const Flit& f) {
    NOCS_ENSURES(!full());
    slots_[wrap(head_ + count_)] = f;
    ++count_;
  }

  const Flit& front() const {
    NOCS_EXPECTS(!empty());
    return slots_[head_];
  }

  /// Removes the oldest flit; the ring rewinds to slot 0 when it empties.
  Flit pop() {
    NOCS_EXPECTS(!empty());
    const Flit f = slots_[head_];
    head_ = --count_ == 0 ? 0 : static_cast<std::int16_t>(wrap(head_ + 1));
    return f;
  }

  /// Checkpoint: buffered flits oldest-first.  The ring phase (head index)
  /// is not part of the observable state, so load_state rebuilds the queue
  /// from slot 0 — contents and order are what must round-trip.
  void save_state(snapshot::Writer& w) const {
    w.begin_section("vc_buffer");
    w.i64(count_);
    for (int i = 0; i < count_; ++i) save(w, slots_[wrap(head_ + i)]);
    w.end_section();
  }

  void load_state(snapshot::Reader& r) {
    r.begin_section("vc_buffer");
    const std::int64_t n = r.i64();
    if (n < 0 || n > capacity_)
      throw snapshot::SnapshotError(
          "vc buffer occupancy in checkpoint exceeds configured capacity");
    head_ = 0;
    count_ = static_cast<std::int16_t>(n);
    for (int i = 0; i < count_; ++i) load(r, slots_[i]);
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
  std::int16_t head_ = 0;   // index of the oldest flit
  std::int16_t count_ = 0;  // buffered flits
};
static_assert(sizeof(VcBuffer) == 16);

}  // namespace nocs::noc
