// Thread pool, deterministic per-task seeding, and the golden guarantee of
// the resumable batch driver: results are bit-identical to the serial loop
// for any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "noc/parallel_sweep.hpp"
#include "noc/simulator.hpp"
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

// --- golden determinism of the resumable driver ---------------------------

/// Task body of a small 4x4 sweep: point i runs at rates[i] on its own
/// level-8 network seeded task_seed(11, i) (full-sprinting: a random
/// endpoint mapping per task, as fig11 samples them).
std::function<json::Value(std::size_t)> sweep_body(
    const std::vector<double>& rates, bool full = false) {
  noc::NetworkParams p;
  p.width = 4;
  p.height = 4;
  noc::SimConfig sim;
  sim.warmup = 300;
  sim.measure = 1500;
  return [p, sim, rates, full](std::size_t i) {
    const std::uint64_t seed = task_seed(11, i);
    sprint::NetworkBundle b =
        full ? sprint::make_full_sprinting_network(p, 8, "uniform", seed)
             : sprint::make_noc_sprinting_network(p, 8, "uniform", seed);
    noc::SimConfig point_sim = sim;
    point_sim.injection_rate = rates[i];
    return noc::to_json(noc::run_simulation(*b.network, point_sim));
  };
}

/// Bit-identical, not approximately equal: every double is dumped with
/// shortest round-trip formatting, so equal dumps mean equal bits.
void expect_identical(const std::vector<json::Value>& a,
                      const std::vector<json::Value>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].dump(), b[i].dump()) << "task " << i;
}

TEST(ResumableDriver, InjectionSweepMatchesSerialBitForBit) {
  const std::vector<double> rates = {0.05, 0.10, 0.15, 0.20, 0.25, 0.30};
  // threads=1 IS the serial loop (ParallelFor runs inline); threads=4 must
  // reproduce it exactly thanks to per-task networks and indexed seeds.
  const auto serial =
      noc::run_resumable(rates.size(), 1, nullptr, nullptr, sweep_body(rates));
  const auto parallel =
      noc::run_resumable(rates.size(), 4, nullptr, nullptr, sweep_body(rates));
  expect_identical(serial, parallel);
  for (const json::Value& r : serial) EXPECT_FALSE(r.is_null());
}

TEST(ResumableDriver, SamplerMatchesSerialBitForBit) {
  // The fig11 methodology: N random-mapping samples at one rate.
  const std::vector<double> rates(6, 0.15);
  const auto serial = noc::run_resumable(rates.size(), 1, nullptr, nullptr,
                                         sweep_body(rates, /*full=*/true));
  const auto parallel = noc::run_resumable(rates.size(), 4, nullptr, nullptr,
                                           sweep_body(rates, /*full=*/true));
  expect_identical(serial, parallel);
}

TEST(ResumableDriver, ReturnsResultsInIndexOrder) {
  std::vector<std::atomic<int>> calls(5);
  const auto results =
      noc::run_resumable(5, 3, nullptr, nullptr, [&](std::size_t i) {
        ++calls[i];
        return json::Value(static_cast<double>(task_seed(7, i)));
      });
  ASSERT_EQ(results.size(), 5u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(calls[i].load(), 1);
    EXPECT_EQ(results[i].as_number(), static_cast<double>(task_seed(7, i)));
  }
}

TEST(ResumableDriver, StopFlagStartsNoNewTaskAndKeepsPartialRunsOut) {
  const std::string path = ::testing::TempDir() + "driver_stop.json";
  std::remove(path.c_str());
  snapshot::TaskManifest manifest(path, "stop-test");
  std::atomic<bool> stop{false};
  int calls = 0;
  // Serial: task 1 is cut short (null) and raises the flag, as a run
  // interrupted by the shutdown flag would; tasks 2.. never start.
  const auto results =
      noc::run_resumable(4, 1, &manifest, &stop, [&](std::size_t i) {
        ++calls;
        if (i == 1) {
          stop.store(true);
          return json::Value();
        }
        return json::Value(static_cast<double>(i));
      });
  EXPECT_EQ(calls, 2);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].as_number(), 0.0);
  for (std::size_t i = 1; i < 4; ++i) EXPECT_TRUE(results[i].is_null());
  EXPECT_EQ(manifest.completed_count(), 1u);
  EXPECT_TRUE(manifest.completed(0));

  // A flag raised before the batch claims nothing at all.
  calls = 0;
  const auto none = noc::run_resumable(3, 2, nullptr, &stop,
                                       [&](std::size_t) {
                                         ++calls;
                                         return json::Value(1.0);
                                       });
  EXPECT_EQ(calls, 0);
  for (const json::Value& r : none) EXPECT_TRUE(r.is_null());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nocs
