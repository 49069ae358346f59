// Tests for the latched channels (Pipe) and VC buffers.
#include <gtest/gtest.h>

#include "noc/buffer.hpp"
#include "noc/channel.hpp"

namespace nocs::noc {
namespace {

TEST(Pipe, ValueInvisibleBeforeLatency) {
  Pipe<int> p(2);
  p.push(/*now=*/10, 42);
  EXPECT_FALSE(p.ready(10));
  EXPECT_FALSE(p.ready(11));
  EXPECT_TRUE(p.ready(12));
  EXPECT_TRUE(p.ready(20));  // stays ready until popped
  EXPECT_EQ(p.pop(12), 42);
  EXPECT_FALSE(p.ready(12));
}

TEST(Pipe, FifoOrder) {
  Pipe<int> p(1, /*capacity=*/4);
  p.push(0, 1);
  p.push(0, 2);
  p.push(1, 3);
  EXPECT_EQ(p.pop(5), 1);
  EXPECT_EQ(p.pop(5), 2);
  EXPECT_EQ(p.pop(5), 3);
  EXPECT_TRUE(p.empty());
}

TEST(Pipe, FrontPeeksWithoutConsuming) {
  Pipe<int> p(1);
  p.push(0, 9);
  EXPECT_EQ(p.front(1), 9);
  EXPECT_EQ(p.size(), 1u);
  EXPECT_EQ(p.pop(1), 9);
}

TEST(Pipe, ZeroLatencyImmediatelyVisible) {
  Pipe<int> p(0);
  p.push(5, 7);
  EXPECT_TRUE(p.ready(5));
}

TEST(Pipe, PopBeforeReadyDies) {
  Pipe<int> p(3);
  p.push(0, 1);
  EXPECT_DEATH(p.pop(1), "precondition");
}

TEST(Pipe, MultipleReadyAtSameCycle) {
  Pipe<int> p(1);
  p.push(0, 10);
  p.push(0, 20);
  int drained = 0;
  while (p.ready(1)) {
    p.pop(1);
    ++drained;
  }
  EXPECT_EQ(drained, 2);
}

TEST(Pipe, FixedCapacityHoldsItsBoundInOrder) {
  // The ring is sized once (max(capacity, latency+1), rounded up to a
  // power of two) and wraps in FIFO order at exactly that occupancy.
  Pipe<int> p(1, 37);
  EXPECT_EQ(p.capacity(), 64u);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 64; ++i) p.push(/*now=*/static_cast<Cycle>(i), i);
    EXPECT_EQ(p.size(), 64u);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(p.pop(100), i);
    EXPECT_TRUE(p.empty());
  }
}

TEST(Pipe, PushIntoFullRingDies) {
  // The ring never grows (a concurrent consumer would race the regrow);
  // on a network pipe an overflow means credit flow is broken.
  Pipe<int> p(1);
  ASSERT_EQ(p.capacity(), 2u);
  p.push(0, 1);
  p.push(0, 2);
  EXPECT_DEATH(p.push(0, 3), "invariant");
}

TEST(Pipe, NextReadyTimeTracksTheFront) {
  Pipe<int> p(3);
  EXPECT_EQ(p.next_ready_time(), kNoPendingEvent);
  p.push(10, 1);
  p.push(12, 2);
  EXPECT_EQ(p.next_ready_time(), 13u);  // first push arrives at 10+3
  p.pop(13);
  EXPECT_EQ(p.next_ready_time(), 15u);  // second arrives at 12+3
  p.pop(15);
  EXPECT_EQ(p.next_ready_time(), kNoPendingEvent);
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
  Pipe<int> p(2);
  p.set_sink(&sink);
  p.push(5, 1);  // empty -> non-empty: notify
  EXPECT_EQ(sink.notifications, 1);
  EXPECT_EQ(sink.last_ready, 7u);
  p.push(6, 2);  // already non-empty: consumer is armed, no notify
  p.push(7, 3);
  EXPECT_EQ(sink.notifications, 1);
  p.pop(7);
  p.pop(8);
  p.pop(9);
  p.push(20, 4);  // drained back to empty: notify again
  EXPECT_EQ(sink.notifications, 2);
  EXPECT_EQ(sink.last_ready, 22u);
}

TEST(VcBuffer, PushPopFifo) {
  VcBuffer b(4);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.capacity(), 4);
  Flit f;
  for (int i = 0; i < 4; ++i) {
    f.index = i;
    b.push(f);
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
  VcBuffer b(4);
  Flit f;
  int next_push = 0;
  int next_pop = 0;
  // Prime with 3 so head sits mid-ring, then cycle push/pop 100 times.
  for (; next_push < 3; ++next_push) {
    f.index = next_push;
    b.push(f);
  }
  for (int step = 0; step < 100; ++step) {
    f.index = next_push++;
    b.push(f);
    EXPECT_EQ(b.pop().index, next_pop++);
  }
  EXPECT_EQ(b.size(), 3);
  while (!b.empty()) EXPECT_EQ(b.pop().index, next_pop++);
  EXPECT_EQ(next_pop, next_push);
}

TEST(VcBuffer, RepeatedFillDrainCycles) {
  VcBuffer b(2);
  Flit f;
  for (int cycle = 0; cycle < 50; ++cycle) {
    f.index = 2 * cycle;
    b.push(f);
    f.index = 2 * cycle + 1;
    b.push(f);
    EXPECT_TRUE(b.full());
    EXPECT_EQ(b.front().index, 2 * cycle);
    EXPECT_EQ(b.pop().index, 2 * cycle);
    EXPECT_EQ(b.pop().index, 2 * cycle + 1);
    EXPECT_TRUE(b.empty());
  }
}

TEST(VcBuffer, CapacityOneBehavesLikeALatch) {
  VcBuffer b(1);
  Flit f;
  for (int i = 0; i < 10; ++i) {
    f.index = i;
    b.push(f);
    EXPECT_TRUE(b.full());
    EXPECT_EQ(b.pop().index, i);
    EXPECT_TRUE(b.empty());
  }
}

TEST(VcBuffer, OverflowIsAProtocolBug) {
  VcBuffer b(1);
  b.push(Flit{});
  EXPECT_DEATH(b.push(Flit{}), "invariant");
}

TEST(VcBuffer, PopEmptyDies) {
  VcBuffer b(2);
  EXPECT_DEATH(b.pop(), "precondition");
}

}  // namespace
}  // namespace nocs::noc
