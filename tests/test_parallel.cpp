// Thread pool, deterministic per-task seeding, and the golden guarantee of
// the resumable batch driver: results are bit-identical to the serial loop
// for any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
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

// --- ParallelFor / ThreadPool -----------------------------------------------

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

// --- BarrierTeam ------------------------------------------------------------

/// Runs `fn` and ends the process with a failure if it has not returned
/// within `limit`.  A lost wake-up leaves a barrier parked for good and
/// cannot be unwound, so this turns it into a failing suite, not a hang.
void within(std::chrono::seconds limit, const std::function<void()>& fn) {
  std::atomic<bool> done{false};
  std::thread watchdog([&] {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (!done.load(std::memory_order_acquire)) {
      if (std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr, "BarrierTeam hung for %llds: lost wake-up?\n",
                     static_cast<long long>(limit.count()));
        std::_Exit(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  try {
    fn();
  } catch (...) {
    done.store(true, std::memory_order_release);
    watchdog.join();
    throw;
  }
  done.store(true, std::memory_order_release);
  watchdog.join();
}

/// Runs `phases` barrier phases on `team` and checks after each that every
/// shard ran exactly once, shard 0 on the calling thread and every other
/// shard always on the same worker.  Each shard writes only its own plain
/// slots, so under TSan this also checks that the barrier orders them
/// before the caller's reads.
void expect_every_shard_once(BarrierTeam& team, int phases) {
  const auto S = static_cast<std::size_t>(team.size());
  std::vector<int> runs(S, 0);
  std::vector<std::thread::id> ran_on(S);
  for (int phase = 0; phase < phases; ++phase) {
    team.run([&](int s) {
      ++runs[static_cast<std::size_t>(s)];
      const std::thread::id me = std::this_thread::get_id();
      auto& first = ran_on[static_cast<std::size_t>(s)];
      if (first == std::thread::id()) first = me;
      else if (first != me) runs[static_cast<std::size_t>(s)] = -1;
    });
    for (std::size_t s = 0; s < S; ++s)
      ASSERT_EQ(runs[s], phase + 1) << "shard " << s << ", phase " << phase;
  }
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
}

TEST(BarrierTeam, EveryShardRunsExactlyOncePerPhase) {
  within(std::chrono::seconds(60), [] {
    for (const int shards : {1, 2, 4}) {
      BarrierTeam team(shards);
      EXPECT_EQ(team.size(), shards);
      expect_every_shard_once(team, 2000);
    }
  });
}

TEST(BarrierTeam, RethrowsTheLowestShardsExceptionAfterTheBarrier) {
  within(std::chrono::seconds(60), [] {
    BarrierTeam team(3);
    std::vector<int> runs(3, 0);
    auto throwing = [&](std::vector<int> throwers) {
      return [&runs, throwers](int s) {
        ++runs[static_cast<std::size_t>(s)];
        if (std::find(throwers.begin(), throwers.end(), s) != throwers.end())
          throw std::runtime_error("shard " + std::to_string(s));
      };
    };
    auto message_of = [&](const std::function<void(int)>& body) {
      try {
        team.run(body);
      } catch (const std::runtime_error& e) {
        return std::string(e.what());
      }
      return std::string("no exception");
    };
    EXPECT_EQ(message_of(throwing({0})), "shard 0");
    EXPECT_EQ(runs, (std::vector<int>{1, 1, 1}));  // nobody skipped
    EXPECT_EQ(message_of(throwing({2})), "shard 2");
    EXPECT_EQ(message_of(throwing({2, 1})), "shard 1");
    EXPECT_EQ(runs, (std::vector<int>{3, 3, 3}));
    // A rethrown error is consumed: the next phase runs clean.
    EXPECT_EQ(message_of(throwing({})), "no exception");
    EXPECT_EQ(runs, (std::vector<int>{4, 4, 4}));
    expect_every_shard_once(team, 100);
  });
}

TEST(BarrierTeam, PhaseAfterAnIdleGapRunsEveryShard) {
  // 20 ms without a phase is far past any spin budget the short phases
  // below measure, so every worker has parked when the next phase comes;
  // the phase must wake all of them.
  within(std::chrono::seconds(60), [] {
    BarrierTeam team(4);
    for (int gap = 0; gap < 5; ++gap) {
      expect_every_shard_once(team, 50);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    // The caller parks too: a worker that sleeps past the budget must
    // still release the barrier.
    std::vector<int> runs(4, 0);
    team.run([&](int s) {
      if (s == 3) std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ++runs[static_cast<std::size_t>(s)];
    });
    EXPECT_EQ(runs, (std::vector<int>{1, 1, 1, 1}));
  });
}

TEST(BarrierTeam, DestructionWhileWorkersAreParkedReturns) {
  within(std::chrono::seconds(60), [] {
    {
      BarrierTeam never_ran(4);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    BarrierTeam team(4);
    expect_every_shard_once(team, 10);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
}

TEST(BarrierTeam, TeamLargerThanTheHostCompletesItsPhases) {
  // More shards than cores: every wait must give its core up, or the
  // shard that still has work cannot run.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int shards = static_cast<int>(std::min(hw, 14u)) + 2;
  within(std::chrono::seconds(120), [&] {
    BarrierTeam team(shards);
    expect_every_shard_once(team, 10000);
  });
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
  const std::string path = ::testing::TempDir() + "driver_stop.nsrl";
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

TEST(ResumableDriver, ConcurrentRecordsReplayBitExactly) {
  // Four workers append to one manifest at once; reopened, it replays
  // every result bit for bit (doubles of every magnitude, incl. ones
  // with no short decimal form).
  const std::string path = ::testing::TempDir() + "driver_concurrent.nsrl";
  std::remove(path.c_str());
  const auto body = [](std::size_t i) {
    const std::uint64_t seed = task_seed(13, i);
    json::Value v = json::Value::object();
    v.set("task", static_cast<std::uint64_t>(i));
    v.set("ratio", static_cast<double>(seed % 1000003) / 7.0);
    v.set("tiny", std::ldexp(static_cast<double>(seed >> 11), -1070));
    v.set("huge", std::ldexp(static_cast<double>(seed >> 11), 900));
    json::Value samples = json::Value::array();
    for (int k = 1; k <= 4; ++k) samples.push_back(1.0 / (k * (i + 3.0)));
    v.set("samples", std::move(samples));
    return v;
  };
  constexpr std::size_t kTasks = 64;
  std::vector<json::Value> ran;
  {
    snapshot::TaskManifest manifest(path, "concurrent-test");
    ran = noc::run_resumable(kTasks, 4, &manifest, nullptr, body);
    EXPECT_EQ(manifest.completed_count(), kTasks);
  }
  snapshot::TaskManifest reopened(path, "concurrent-test");
  ASSERT_EQ(reopened.completed_count(), kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(reopened.result(i).dump(), body(i).dump()) << "task " << i;
    EXPECT_EQ(reopened.result(i).dump(), ran[i].dump()) << "task " << i;
  }
  int calls = 0;
  const auto replayed =
      noc::run_resumable(kTasks, 4, &reopened, nullptr, [&](std::size_t) {
        ++calls;
        return json::Value();
      });
  EXPECT_EQ(calls, 0);
  expect_identical(replayed, ran);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nocs
