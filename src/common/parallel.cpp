#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "common/assert.hpp"

namespace nocs {

int default_thread_count() {
  if (const char* env = std::getenv("NOCS_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) return static_cast<int>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

namespace {

/// True on ThreadPool worker threads.  Their tasks already run one per
/// core, so an environment-selected shard team inside each would
/// oversubscribe the host (S spinning shards per worker).
thread_local bool t_pool_worker = false;

}  // namespace

int default_sim_thread_count() {
  if (t_pool_worker) return 1;
  if (const char* env = std::getenv("NOCS_SIM_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) return static_cast<int>(parsed);
  }
  return 1;
}

namespace {

using Clock = std::chrono::steady_clock;

/// The one wait of BarrierTeam: returns the first value of `word` that
/// satisfies `done`.  Spins for `budget_ticks` steady-clock ticks, then
/// parks in atomic::wait (a futex).  The spin yields rather than pauses:
/// with more runnable threads than cores, a pausing spinner holds the
/// core a team member with work is waiting for (8 shards on 4 cores ran
/// 32x32 ticks 7x slower), while a yield on an otherwise idle core
/// returns at once.  Whoever stores a value that may end the wait must
/// notify `word`.
template <class T, class Done>
T await(const std::atomic<T>& word, Done done,
        const std::atomic<Clock::rep>& budget_ticks) {
  const Clock::time_point deadline =
      Clock::now() +
      Clock::duration(budget_ticks.load(std::memory_order_relaxed));
  T v = word.load(std::memory_order_acquire);
  for (; !done(v); v = word.load(std::memory_order_acquire)) {
    if (Clock::now() < deadline) std::this_thread::yield();
    else word.wait(v, std::memory_order_acquire);
  }
  return v;
}

}  // namespace

struct BarrierTeam::Impl {
  // Phase hand-off: run() writes `body`, then release-publishes a new
  // epoch; a worker acquire-loads the epoch, so the body pointer (and all
  // state the caller prepared before run()) is visible when it executes.
  // Shutdown is one more epoch with `stopping` set.
  std::atomic<std::uint32_t> epoch{0};
  std::atomic<int> remaining{0};
  bool stopping = false;
  const std::function<void(int)>* body = nullptr;
  std::vector<std::exception_ptr> errors;  // one slot per shard

  // Spin budget of every wait: 8x the longer of the caller's last two
  // body(0) times, enough for the normal imbalance between shards on
  // dedicated cores.  Only busy time feeds it; a budget fed by waits would
  // grow with the contention it causes.
  std::atomic<Clock::rep> spin_ticks{0};
  Clock::duration last_body{0};

  std::vector<std::thread> workers;

  void worker_loop(int shard) {
    std::uint32_t seen = 0;
    for (;;) {
      seen = await(epoch, [&](std::uint32_t e) { return e != seen; },
                   spin_ticks);
      if (stopping) return;
      try {
        (*body)(shard);
      } catch (...) {
        errors[static_cast<std::size_t>(shard)] = std::current_exception();
      }
      if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
        remaining.notify_one();
    }
  }
};

BarrierTeam::BarrierTeam(int num_shards)
    : impl_(new Impl), num_shards_(num_shards) {
  NOCS_EXPECTS(num_shards >= 1);
  impl_->errors.resize(static_cast<std::size_t>(num_shards));
  impl_->workers.reserve(static_cast<std::size_t>(num_shards - 1));
  for (int s = 1; s < num_shards; ++s)
    impl_->workers.emplace_back([impl = impl_, s] { impl->worker_loop(s); });
}

BarrierTeam::~BarrierTeam() {
  impl_->stopping = true;
  impl_->epoch.fetch_add(1, std::memory_order_release);
  impl_->epoch.notify_all();
  for (std::thread& w : impl_->workers) w.join();
  delete impl_;
}

void BarrierTeam::run(const std::function<void(int)>& body) {
  NOCS_EXPECTS(body != nullptr);
  if (num_shards_ == 1) {
    body(0);
    return;
  }
  Impl& im = *impl_;
  im.body = &body;
  im.remaining.store(num_shards_ - 1, std::memory_order_relaxed);
  im.epoch.fetch_add(1, std::memory_order_release);
  im.epoch.notify_all();

  const Clock::time_point start = Clock::now();
  try {
    body(0);  // shard 0 runs inline on the calling thread
  } catch (...) {
    im.errors[0] = std::current_exception();
  }
  const Clock::duration took = Clock::now() - start;
  im.spin_ticks.store((8 * std::max(took, im.last_body)).count(),
                      std::memory_order_relaxed);
  im.last_body = took;
  await(im.remaining, [](int r) { return r == 0; }, im.spin_ticks);

  std::exception_ptr first;
  for (std::exception_ptr& e : im.errors) {
    if (!first) first = e;
    e = nullptr;
  }
  if (first) std::rethrow_exception(first);
}

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;   // signalled when a task is queued
  std::condition_variable idle_cv;   // signalled when a task completes
  // One deque per priority lane, drained high-to-low (see TaskPriority).
  std::deque<std::function<void()>> lanes[3];
  std::vector<std::thread> workers;
  int in_flight = 0;  // queued + currently executing
  bool stopping = false;

  bool any_queued() const {
    return !lanes[0].empty() || !lanes[1].empty() || !lanes[2].empty();
  }

  std::function<void()> pop_locked() {
    for (auto& lane : lanes) {
      if (lane.empty()) continue;
      std::function<void()> task = std::move(lane.front());
      lane.pop_front();
      return task;
    }
    return nullptr;
  }

  void worker_loop() {
    t_pool_worker = true;
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu);
        work_cv.wait(lock, [&] { return stopping || any_queued(); });
        task = pop_locked();
        if (task == nullptr) return;  // stopping and drained
      }
      task();
      {
        std::lock_guard<std::mutex> lock(mu);
        --in_flight;
      }
      idle_cv.notify_all();
    }
  }
};

ThreadPool::ThreadPool(int num_threads)
    : impl_(new Impl),
      num_workers_(num_threads <= 0 ? default_thread_count() : num_threads) {
  impl_->workers.reserve(static_cast<std::size_t>(num_workers_));
  for (int i = 0; i < num_workers_; ++i)
    impl_->workers.emplace_back([impl = impl_] { impl->worker_loop(); });
}

ThreadPool::~ThreadPool() {
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stopping = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& w : impl_->workers) w.join();
  delete impl_;
}

void ThreadPool::submit(std::function<void()> task) {
  submit(TaskPriority::kNormal, std::move(task));
}

void ThreadPool::submit(TaskPriority priority, std::function<void()> task) {
  NOCS_EXPECTS(task != nullptr);
  const auto lane = static_cast<std::size_t>(priority);
  NOCS_EXPECTS(lane < 3);
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    NOCS_EXPECTS(!impl_->stopping);
    impl_->lanes[lane].push_back(std::move(task));
    ++impl_->in_flight;
  }
  impl_->work_cv.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->idle_cv.wait(lock, [&] { return impl_->in_flight == 0; });
}

void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& body,
                 int num_threads) {
  NOCS_EXPECTS(body != nullptr);
  if (n == 0) return;

  int workers = num_threads <= 0 ? default_thread_count() : num_threads;
  if (static_cast<std::size_t>(workers) > n)
    workers = static_cast<int>(n);

  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // Dynamic scheduling: each worker repeatedly claims the next index, so
  // uneven task durations (e.g. saturated sweep points) balance out.
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr first_error;

  auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  {
    ThreadPool pool(workers);
    for (int w = 0; w < workers; ++w) pool.submit(drain);
    pool.wait_idle();
  }

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace nocs
