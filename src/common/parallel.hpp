// Thread-pool parallelism for embarrassingly parallel simulation batches
// (injection-rate sweeps, random-mapping samples, per-benchmark runs).
//
// The simulator itself stays single-threaded and deterministic; parallelism
// lives one level up, where every task builds its own independent Network.
// ParallelFor therefore requires task bodies that share no mutable state
// except their own output slot.  Worker count defaults to the hardware
// concurrency and can be overridden with the NOCS_THREADS environment
// variable (benches also accept a threads=N config key that is passed
// through explicitly).
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>

namespace nocs {

/// Cooperative cancellation: one side requests a stop, any number of
/// workers poll.  Copies share state, so a token handed to a task keeps
/// working after the issuing scope released its copy.  Requesting is
/// sticky — there is no reset; create a fresh token per unit of work.
class CancellationToken {
 public:
  CancellationToken() : state_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_stop() { state_->store(true, std::memory_order_release); }
  bool stop_requested() const {
    return state_->load(std::memory_order_acquire);
  }

  /// The underlying flag, for components that poll a raw atomic (e.g.
  /// noc::CheckpointConfig::stop_flag).  Valid as long as any copy of the
  /// token is alive.
  const std::atomic<bool>* flag() const { return state_.get(); }

 private:
  std::shared_ptr<std::atomic<bool>> state_;
};

/// Scheduling lane of a ThreadPool task.  Workers always drain kHigh
/// before kNormal before kLow; within a lane tasks run in submission
/// order.  Starvation is accepted by design: the serve scheduler maps
/// client-facing priorities onto these lanes and bounds each lane with
/// admission control instead.
enum class TaskPriority : int { kHigh = 0, kNormal = 1, kLow = 2 };

/// Worker-thread count used when a caller passes num_threads <= 0:
/// the NOCS_THREADS environment variable when set to a positive integer,
/// otherwise std::thread::hardware_concurrency().  Always >= 1.
int default_thread_count();

/// Intra-simulation shard count used when a caller passes sim_threads <= 0:
/// the NOCS_SIM_THREADS environment variable when set to a positive
/// integer, otherwise 1 (serial tick).  Deliberately *not* the hardware
/// concurrency: sweeps already parallelize across tasks, and nesting both
/// by default would oversubscribe; sharding one simulation is an explicit
/// opt-in.  For the same reason the environment variable is ignored on
/// ThreadPool worker threads (this returns 1 there); an explicit positive
/// sim_threads still applies everywhere.
int default_sim_thread_count();

/// Persistent team of workers for barrier-synchronous sharded execution
/// (the sharded Network::tick).  Each run() call executes body(0) ..
/// body(num_shards-1) concurrently — shard 0 inline on the calling thread,
/// the rest on dedicated workers pinned to their shard index so per-shard
/// caches stay warm — and returns only when every body finished (a full
/// barrier).  Two run() calls therefore never overlap, which is the
/// synchronization the two-phase tick relies on.
///
/// Each wait, a worker's for the next phase and the caller's for the
/// barrier, spins for 8x the caller's recent shard-0 body time and then
/// parks in std::atomic::wait, so idle or outnumbered waiters give their
/// cores back.  The first exception (lowest shard) thrown by any body is
/// rethrown from run() after the barrier.
class BarrierTeam {
 public:
  /// Spawns num_shards - 1 workers; num_shards must be >= 1 (1 = inline).
  explicit BarrierTeam(int num_shards);
  ~BarrierTeam();

  BarrierTeam(const BarrierTeam&) = delete;
  BarrierTeam& operator=(const BarrierTeam&) = delete;

  int size() const { return num_shards_; }

  /// One barrier phase: runs body(s) for every shard s, returns when all
  /// completed.
  void run(const std::function<void(int)>& body);

 private:
  struct Impl;
  Impl* impl_;
  int num_shards_;
};

/// Fixed-size pool of worker threads draining a shared task queue.
/// Destruction waits for all submitted tasks to finish.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (<= 0 selects default_thread_count()).
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return num_workers_; }

  /// Enqueues one task on the normal lane; returns immediately.
  void submit(std::function<void()> task);

  /// Enqueues one task on an explicit priority lane.
  void submit(TaskPriority priority, std::function<void()> task);

  /// Blocks until the queue is empty and every worker is idle.
  void wait_idle();

 private:
  struct Impl;
  Impl* impl_;
  int num_workers_;
};

/// Runs body(0) .. body(n-1) across up to `num_threads` workers
/// (<= 0 selects default_thread_count()) and returns when all completed.
/// With one worker (or n <= 1) the body runs inline on the calling thread,
/// so a 1-thread ParallelFor is exactly a serial loop.  The first exception
/// thrown by any body is rethrown after all indices finish or are skipped.
void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& body,
                 int num_threads = 0);

}  // namespace nocs
