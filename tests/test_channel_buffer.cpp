// Tests for the latched channels (Pipe) and VC buffers, including the
// layout rules: a pipe keeps its ring inline after a 48-byte header, and
// a VC buffer's ring never rewinds while a sender reserves slots in it.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>

#include "noc/buffer.hpp"
#include "noc/channel.hpp"
#include "noc/flit.hpp"

namespace nocs::noc {
namespace {

/// Plays a sender and its link, as a router input sees them: writes `f`
/// into the slot at the buffer's tail, then accepts it.
void deliver(VcBuffer& b, const Flit& f) {
  b.storage()[b.tail(0)] = f;
  b.accept();
}

TEST(Pipe, ValueInvisibleBeforeLatency) {
  auto p = Pipe<int>::make(2);
  p->push(/*now=*/10, 42);
  EXPECT_FALSE(p->ready(10));
  EXPECT_FALSE(p->ready(11));
  EXPECT_TRUE(p->ready(12));
  EXPECT_TRUE(p->ready(20));  // stays ready until popped
  EXPECT_EQ(p->pop(12), 42);
  EXPECT_FALSE(p->ready(12));
}

TEST(Pipe, FifoOrder) {
  auto p = Pipe<int>::make(1, /*capacity=*/4);
  p->push(0, 1);
  p->push(0, 2);
  p->push(1, 3);
  EXPECT_EQ(p->pop(5), 1);
  EXPECT_EQ(p->pop(5), 2);
  EXPECT_EQ(p->pop(5), 3);
  EXPECT_TRUE(p->empty());
}

TEST(Pipe, FrontPeeksWithoutConsuming) {
  auto p = Pipe<int>::make(1);
  p->push(0, 9);
  EXPECT_EQ(p->front(1), 9);
  EXPECT_EQ(p->size(), 1u);
  EXPECT_EQ(p->pop(1), 9);
}

TEST(Pipe, ZeroLatencyImmediatelyVisible) {
  auto p = Pipe<int>::make(0);
  p->push(5, 7);
  EXPECT_TRUE(p->ready(5));
}

TEST(Pipe, PopBeforeReadyDies) {
  auto p = Pipe<int>::make(3);
  p->push(0, 1);
  EXPECT_DEATH(p->pop(1), "precondition");
}

TEST(Pipe, MultipleReadyAtSameCycle) {
  auto p = Pipe<int>::make(1);
  p->push(0, 10);
  p->push(0, 20);
  int drained = 0;
  while (p->ready(1)) {
    p->pop(1);
    ++drained;
  }
  EXPECT_EQ(drained, 2);
}

TEST(Pipe, FixedCapacityHoldsItsBoundInOrder) {
  // The ring is sized once (max(capacity, latency+1), rounded up to a
  // power of two) and wraps in FIFO order at exactly that occupancy.
  auto p = Pipe<int>::make(1, 37);
  EXPECT_EQ(p->capacity(), 64u);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 64; ++i) p->push(/*now=*/static_cast<Cycle>(i), i);
    EXPECT_EQ(p->size(), 64u);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(p->pop(100), i);
    EXPECT_TRUE(p->empty());
  }
}

TEST(Pipe, PushIntoFullRingDies) {
  // The ring never grows (a concurrent consumer would race the regrow);
  // on a network pipe an overflow means credit flow is broken.
  auto p = Pipe<int>::make(1);
  ASSERT_EQ(p->capacity(), 2u);
  p->push(0, 1);
  p->push(0, 2);
  EXPECT_DEATH(p->push(0, 3), "invariant");
}

TEST(Pipe, NextReadyTimeTracksTheFront) {
  auto p = Pipe<int>::make(3);
  EXPECT_EQ(p->next_ready_time(), kNoPendingEvent);
  p->push(10, 1);
  p->push(12, 2);
  EXPECT_EQ(p->next_ready_time(), 13u);  // first push arrives at 10+3
  p->pop(13);
  EXPECT_EQ(p->next_ready_time(), 15u);  // second arrives at 12+3
  p->pop(15);
  EXPECT_EQ(p->next_ready_time(), kNoPendingEvent);
}

TEST(Pipe, NotifiesSinkOnlyWhenEmptyBecomesNonEmpty) {
  struct CountingSink final : WakeSink {
    int notifications = 0;
    Cycle last_ready = 0;
    void on_push(Cycle ready_at) override {
      ++notifications;
      last_ready = ready_at;
    }
  } sink;
  auto p = Pipe<int>::make(2);
  p->set_sink(&sink);
  p->push(5, 1);  // empty -> non-empty: notify
  EXPECT_EQ(sink.notifications, 1);
  EXPECT_EQ(sink.last_ready, 7u);
  p->push(6, 2);  // already non-empty: consumer is armed, no notify
  p->push(7, 3);
  EXPECT_EQ(sink.notifications, 1);
  p->pop(7);
  p->pop(8);
  p->pop(9);
  p->push(20, 4);  // drained back to empty: notify again
  EXPECT_EQ(sink.notifications, 2);
  EXPECT_EQ(sink.last_ready, 22u);
}

TEST(Pipe, FifoOrderAndReadyTimesHoldAcrossFillDrainCycles) {
  // Fill to every level up to capacity, drain part of the way, refill,
  // then drain: order and ready times must survive the ring's wraps.
  auto p = Pipe<int>::make(2, 8);
  ASSERT_EQ(p->capacity(), 8u);
  Cycle now = 0;
  int next_push = 0;
  int next_pop = 0;
  const auto push = [&] {
    p->push(now, next_push++);
    ++now;
  };
  const auto pop = [&] {
    ASSERT_FALSE(p->empty());
    const Cycle due = p->next_ready_time();
    EXPECT_FALSE(p->ready(due - 1));
    EXPECT_TRUE(p->ready(due));
    EXPECT_EQ(p->pop(due), next_pop++);
    if (now < due) now = due;
  };
  for (int level = 1; level <= 8; ++level) {
    for (int i = 0; i < level; ++i) push();
    EXPECT_EQ(p->size(), static_cast<std::size_t>(level));
    for (int i = 0; i < level / 2; ++i) pop();
    while (p->size() < 8) push();  // refill to exactly full
    while (!p->empty()) pop();
    EXPECT_EQ(next_pop, next_push);
  }
}

TEST(Pipe, EmplacedPipeKeepsItsRingInline) {
  // The network builds each pipe in a cache-line-aligned block: a 48-byte
  // header, then the ring.  A 16-byte slot 0 shares the header's line,
  // and a flit in slot 0 ends within the block's second line.
  static_assert(sizeof(Pipe<int>) == 48);
  static_assert(sizeof(Pipe<int>::Slot) == 16);
  const std::size_t int_bytes = Pipe<int>::block_bytes(1, 16);
  EXPECT_EQ(int_bytes % kCacheLine, 0u);
  EXPECT_EQ(int_bytes,
            align_up(48 + 16 * sizeof(Pipe<int>::Slot), kCacheLine));
  LineBlock block = new_line_block(int_bytes);
  Pipe<int>* ints = Pipe<int>::emplace(block.get(), 1, 16);
  EXPECT_EQ(ints->capacity(), 16u);
  ints->push(0, 3);
  const auto* head = reinterpret_cast<const std::byte*>(&ints->front(1));
  EXPECT_GE(head, block.get() + 48);
  EXPECT_LT(head + sizeof(int), block.get() + kCacheLine);
  EXPECT_EQ(ints->pop(1), 3);
  std::destroy_at(ints);

  const std::size_t flit_bytes = Pipe<Flit>::block_bytes(1, 16);
  LineBlock flit_block = new_line_block(flit_bytes);
  Pipe<Flit>* flits = Pipe<Flit>::emplace(flit_block.get(), 1, 16);
  flits->push(0, Flit{});
  const auto* flit = reinterpret_cast<const std::byte*>(&flits->front(1));
  EXPECT_LE(flit + sizeof(Flit), flit_block.get() + 2 * kCacheLine);
  std::destroy_at(flits);
}

TEST(VcBuffer, KeepsRingOrderUnderReservation) {
  // A sender writes each flit into the slot after the last one it
  // reserved (its own tail index, one slot per credit) before the buffer
  // accepts it.  Popping never rewinds the head, so the buffered and
  // pending regions and the sender's tail stay in step round the ring.
  Flit slots[4];
  VcBuffer b(slots, 4);
  int tail = 0;
  int sent = 0;
  int accepted = 0;
  int popped = 0;
  for (int step = 0; step < 60; ++step) {
    // Spend every credit: a slot frees only when its flit is popped.
    while (sent - popped < 4) {
      slots[tail].index = static_cast<std::int16_t>(sent++);
      tail = (tail + 1) % 4;
    }
    EXPECT_EQ(b.tail(sent - accepted), tail);
    for (int i = 0; i < 1 + step % 3 && accepted < sent; ++i) {
      EXPECT_EQ(b.pending(0).index, accepted);
      EXPECT_EQ(b.accept().index, accepted++);
    }
    EXPECT_EQ(b.size(), accepted - popped);
    if (step % 4 == 3) {
      // Drain: an empty buffer's head stays where the last pop left it.
      while (!b.empty()) EXPECT_EQ(b.pop().index, popped++);
      EXPECT_EQ(b.head(), popped % 4);
    } else if (!b.empty()) {
      EXPECT_EQ(b.front().index, popped);
      EXPECT_EQ(b.pop().index, popped++);
    }
  }
  EXPECT_GT(popped, 40);
}

TEST(VcBuffer, AcceptBeyondCapacityIsAProtocolBug) {
  Flit slots[2];
  VcBuffer b(slots, 2);
  b.accept();
  b.accept();
  EXPECT_DEATH(b.accept(), "invariant");
}

TEST(VcBuffer, FifoHoldsAcrossFillDrainCyclesUpToCapacity) {
  Flit slots[5];
  VcBuffer b(slots, 5);
  Flit f;
  int next_push = 0;
  int next_pop = 0;
  for (int level = 1; level <= 5; ++level) {
    for (int i = 0; i < level; ++i) {
      f.index = static_cast<std::int16_t>(next_push++);
      deliver(b, f);
    }
    for (int i = 0; i < (level + 1) / 2; ++i)
      EXPECT_EQ(b.pop().index, next_pop++);
    while (!b.full()) {
      f.index = static_cast<std::int16_t>(next_push++);
      deliver(b, f);
    }
    while (!b.empty()) EXPECT_EQ(b.pop().index, next_pop++);
  }
  EXPECT_EQ(next_pop, next_push);
}

TEST(VcBuffer, PushPopFifo) {
  Flit slots[4];
  VcBuffer b(slots, 4);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.capacity(), 4);
  Flit f;
  for (int i = 0; i < 4; ++i) {
    f.index = i;
    deliver(b, f);
  }
  EXPECT_TRUE(b.full());
  EXPECT_EQ(b.size(), 4);
  EXPECT_EQ(b.front().index, 0);
  EXPECT_EQ(b.pop().index, 0);
  EXPECT_EQ(b.pop().index, 1);
  EXPECT_FALSE(b.full());
  EXPECT_EQ(b.size(), 2);
}

TEST(VcBuffer, RingWrapsAroundPastCapacity) {
  // Steady-state wormhole traffic: a ring of capacity 4 sees far more than
  // 4 flits stream through.  FIFO order must survive head wrapping.
  Flit slots[4];
  VcBuffer b(slots, 4);
  Flit f;
  int next_push = 0;
  int next_pop = 0;
  // Prime with 3 so head sits mid-ring, then cycle push/pop 100 times.
  for (; next_push < 3; ++next_push) {
    f.index = next_push;
    deliver(b, f);
  }
  for (int step = 0; step < 100; ++step) {
    f.index = next_push++;
    deliver(b, f);
    EXPECT_EQ(b.pop().index, next_pop++);
  }
  EXPECT_EQ(b.size(), 3);
  while (!b.empty()) EXPECT_EQ(b.pop().index, next_pop++);
  EXPECT_EQ(next_pop, next_push);
}

TEST(VcBuffer, RepeatedFillDrainCycles) {
  Flit slots[2];
  VcBuffer b(slots, 2);
  Flit f;
  for (int cycle = 0; cycle < 50; ++cycle) {
    f.index = 2 * cycle;
    deliver(b, f);
    f.index = 2 * cycle + 1;
    deliver(b, f);
    EXPECT_TRUE(b.full());
    EXPECT_EQ(b.front().index, 2 * cycle);
    EXPECT_EQ(b.pop().index, 2 * cycle);
    EXPECT_EQ(b.pop().index, 2 * cycle + 1);
    EXPECT_TRUE(b.empty());
  }
}

TEST(VcBuffer, CapacityOneBehavesLikeALatch) {
  Flit slots[1];
  VcBuffer b(slots, 1);
  Flit f;
  for (int i = 0; i < 10; ++i) {
    f.index = i;
    deliver(b, f);
    EXPECT_TRUE(b.full());
    EXPECT_EQ(b.pop().index, i);
    EXPECT_TRUE(b.empty());
  }
}

TEST(VcBuffer, OverflowIsAProtocolBug) {
  Flit slots[1];
  VcBuffer b(slots, 1);
  deliver(b, Flit{});
  EXPECT_DEATH(deliver(b, Flit{}), "invariant");
}

TEST(VcBuffer, PopEmptyDies) {
  Flit slots[2];
  VcBuffer b(slots, 2);
  EXPECT_DEATH(b.pop(), "precondition");
}

}  // namespace
}  // namespace nocs::noc
