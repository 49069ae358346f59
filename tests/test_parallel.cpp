// Thread pool, deterministic per-task seeding, and the golden guarantee of
// the parallel sweep drivers: results are bit-identical to the serial loop
// for any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "noc/parallel_sweep.hpp"
#include "sprint/network_builder.hpp"

namespace nocs {
namespace {

// --- ParallelFor / run_tasks / ThreadPool --------------------------------

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  ParallelFor(kN, [&](std::size_t i) { ++visits[i]; }, 4);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, ZeroIterationsIsANoop) {
  ParallelFor(0, [](std::size_t) { FAIL() << "body must not run"; }, 4);
}

TEST(ParallelFor, SingleThreadRunsInline) {
  // With one worker the body runs on the calling thread in index order.
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  ParallelFor(
      8,
      [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
      },
      1);
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      ParallelFor(
          16,
          [](std::size_t i) {
            if (i == 7) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

TEST(RunTasks, RunsEveryTask) {
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 10; ++i) tasks.push_back([&] { ++ran; });
  run_tasks(tasks, 3);
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) pool.submit([&] { ++done; });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 20);
}

TEST(ThreadPool, PriorityLanesDrainHighBeforeNormalBeforeLow) {
  ThreadPool pool(1);  // one worker serializes execution order
  std::atomic<bool> release{false};
  std::mutex mu;
  std::vector<int> order;
  // Park the worker so the lanes fill up before anything dequeues.
  pool.submit([&] {
    while (!release.load()) std::this_thread::yield();
  });
  auto record = [&](int tag) {
    return [&, tag] {
      const std::lock_guard<std::mutex> lock(mu);
      order.push_back(tag);
    };
  };
  // Enqueued worst-first: low, normal (default), high.
  pool.submit(TaskPriority::kLow, record(3));
  pool.submit(record(2));
  pool.submit(TaskPriority::kHigh, record(1));
  pool.submit(TaskPriority::kLow, record(3));
  pool.submit(TaskPriority::kHigh, record(1));
  release.store(true);
  pool.wait_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 1, 2, 3, 3}));
}

TEST(CancellationToken, CopiesShareOneStickyFlag) {
  CancellationToken token;
  EXPECT_FALSE(token.stop_requested());
  ASSERT_NE(token.flag(), nullptr);
  EXPECT_FALSE(token.flag()->load());

  CancellationToken copy = token;
  copy.request_stop();
  EXPECT_TRUE(token.stop_requested());
  EXPECT_TRUE(copy.stop_requested());
  EXPECT_TRUE(token.flag()->load());

  // A fresh token is independent of the fired one.
  const CancellationToken fresh;
  EXPECT_FALSE(fresh.stop_requested());
}

TEST(CancellationToken, FlagPlugsIntoCheckpointStop) {
  // The raw pointer form is what CheckpointConfig::stop_flag consumes;
  // firing the token must be visible through that pointer from another
  // thread (the supervisor fires, the simulation polls).
  CancellationToken token;
  const std::atomic<bool>* flag = token.flag();
  std::thread firer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    token.request_stop();
  });
  while (!flag->load(std::memory_order_acquire)) std::this_thread::yield();
  firer.join();
  EXPECT_TRUE(token.stop_requested());
}

TEST(DefaultThreadCount, HonorsEnvironmentOverride) {
  ASSERT_EQ(::setenv("NOCS_THREADS", "3", 1), 0);
  EXPECT_EQ(default_thread_count(), 3);
  ASSERT_EQ(::setenv("NOCS_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(default_thread_count(), 1);  // garbage falls back to hardware
  ASSERT_EQ(::unsetenv("NOCS_THREADS"), 0);
  EXPECT_GE(default_thread_count(), 1);
}

TEST(DefaultSimThreadCount, EnvironmentAppliesOffPoolWorkersOnly) {
  // NOCS_SIM_THREADS shards a simulation on the calling thread, but a pool
  // task (already one of up to `cores` concurrent workers) stays serial
  // rather than nesting a spinning shard team inside every worker.  An
  // explicit positive count still applies inside the task.
  ASSERT_EQ(::setenv("NOCS_SIM_THREADS", "4", 1), 0);
  const noc::NetworkParams params;  // 4x4 mesh
  auto shards = [&](int requested) {
    auto b = sprint::make_noc_sprinting_network(params, 4, "uniform", 1);
    b.network->set_sim_threads(requested);
    return b.network->sim_threads();
  };
  EXPECT_EQ(shards(0), 4);
  int in_task_default = 0, in_task_explicit = 0;
  ThreadPool pool(2);
  pool.submit([&] {
    in_task_default = shards(0);
    in_task_explicit = shards(2);
  });
  pool.wait_idle();
  EXPECT_EQ(in_task_default, 1);
  EXPECT_EQ(in_task_explicit, 2);
  ASSERT_EQ(::unsetenv("NOCS_SIM_THREADS"), 0);
}

// --- deterministic per-task seeds ----------------------------------------

TEST(TaskSeed, IndexesTheSplitMixStream) {
  // task_seed(base, i) must equal the (i+1)-th output of SplitMix64(base):
  // that is what makes the O(1) indexed form order-independent.
  const std::uint64_t base = 0xfeedfaceULL;
  SplitMix64 stream(base);
  for (std::uint64_t i = 0; i < 32; ++i)
    EXPECT_EQ(task_seed(base, i), stream.next()) << "index " << i;
}

TEST(TaskSeed, DistinctAcrossTasksAndBases) {
  std::vector<std::uint64_t> seen;
  for (std::uint64_t base : {1ULL, 2ULL, 99ULL})
    for (std::uint64_t i = 0; i < 64; ++i) seen.push_back(task_seed(base, i));
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

// --- golden determinism of the sweep drivers -----------------------------

void expect_identical(const noc::SimResults& a, const noc::SimResults& b) {
  // Bit-identical, not approximately equal: the parallel runner must
  // reproduce the serial results exactly.
  EXPECT_EQ(a.avg_packet_latency, b.avg_packet_latency);
  EXPECT_EQ(a.avg_network_latency, b.avg_network_latency);
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.avg_hops, b.avg_hops);
  EXPECT_EQ(a.packets_generated, b.packets_generated);
  EXPECT_EQ(a.packets_ejected, b.packets_ejected);
  EXPECT_EQ(a.accepted_rate, b.accepted_rate);
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.counters.buffer_writes, b.counters.buffer_writes);
  EXPECT_EQ(a.counters.xbar_traversals, b.counters.xbar_traversals);
  EXPECT_EQ(a.counters.active_cycles, b.counters.active_cycles);
  EXPECT_EQ(a.counters.gated_cycles, b.counters.gated_cycles);
  EXPECT_EQ(a.counters.idle_active_cycles, b.counters.idle_active_cycles);
}

noc::SweepRunner sprint_runner(noc::SimConfig sim) {
  noc::NetworkParams p;
  p.width = 4;
  p.height = 4;
  return [p, sim](const noc::SweepTask& task) {
    sprint::NetworkBundle b =
        sprint::make_noc_sprinting_network(p, 8, "uniform", task.seed);
    noc::SimConfig point_sim = sim;
    point_sim.injection_rate = task.injection_rate;
    return noc::run_simulation(*b.network, point_sim);
  };
}

TEST(ParallelSweep, InjectionSweepMatchesSerialBitForBit) {
  noc::SimConfig sim;
  sim.warmup = 300;
  sim.measure = 1500;
  const std::vector<double> rates = {0.05, 0.10, 0.15, 0.20, 0.25, 0.30};
  const noc::SweepRunner run = sprint_runner(sim);

  // threads=1 IS the serial loop (ParallelFor runs inline); threads=4 must
  // reproduce it exactly thanks to per-task networks and indexed seeds.
  const auto serial = noc::parallel_sweep_injection(run, rates, 11, 1);
  const auto parallel = noc::parallel_sweep_injection(run, rates, 11, 4);

  ASSERT_EQ(serial.size(), rates.size());
  ASSERT_EQ(parallel.size(), rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    EXPECT_EQ(serial[i].injection_rate, rates[i]);
    EXPECT_EQ(parallel[i].injection_rate, rates[i]);
    expect_identical(serial[i].results, parallel[i].results);
  }
}

TEST(ParallelSweep, SamplerMatchesSerialBitForBit) {
  // The fig11 methodology: N random-mapping samples at one rate.
  noc::SimConfig sim;
  sim.warmup = 300;
  sim.measure = 1500;
  noc::NetworkParams p;
  p.width = 4;
  p.height = 4;
  const noc::SweepRunner run = [p, sim](const noc::SweepTask& task) {
    sprint::NetworkBundle b =
        sprint::make_full_sprinting_network(p, 8, "uniform", task.seed);
    noc::SimConfig point_sim = sim;
    point_sim.injection_rate = task.injection_rate;
    return noc::run_simulation(*b.network, point_sim);
  };

  const auto serial = noc::parallel_samples(run, 6, 0.15, 23, 1);
  const auto parallel = noc::parallel_samples(run, 6, 0.15, 23, 4);

  ASSERT_EQ(serial.size(), 6u);
  ASSERT_EQ(parallel.size(), 6u);
  for (std::size_t s = 0; s < serial.size(); ++s)
    expect_identical(serial[s], parallel[s]);
}

TEST(ParallelSweep, TasksReceiveIndexedSeeds) {
  std::vector<noc::SweepTask> seen(3);
  const noc::SweepRunner run = [&](const noc::SweepTask& task) {
    seen[task.index] = task;
    return noc::SimResults{};
  };
  noc::parallel_sweep_injection(run, {0.1, 0.2, 0.3}, 7, 1);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].index, i);
    EXPECT_EQ(seen[i].seed, task_seed(7, i));
  }
  EXPECT_EQ(seen[1].injection_rate, 0.2);
}

}  // namespace
}  // namespace nocs
