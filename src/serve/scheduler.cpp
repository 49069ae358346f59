#include "serve/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace nocs::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::chrono::milliseconds ms(std::uint64_t n) {
  return std::chrono::milliseconds(n);
}

std::uint64_t positive_u64(const Config& cfg, const char* key,
                           std::uint64_t def) {
  const long long v = cfg.get_int(key, static_cast<long long>(def));
  if (v < 0)
    throw std::invalid_argument(std::string(key) + " must be >= 0");
  return static_cast<std::uint64_t>(v);
}

}  // namespace

ServeLimits ServeLimits::from_config(const Config& cfg) {
  ServeLimits l;
  l.workers = static_cast<int>(cfg.get_int("serve_workers", l.workers));
  if (l.workers < 1)
    throw std::invalid_argument("serve_workers must be >= 1");
  const long long jobs =
      cfg.get_int("serve_max_jobs", static_cast<long long>(l.max_jobs));
  const long long pending = cfg.get_int(
      "serve_max_pending", static_cast<long long>(l.max_pending_tasks));
  if (jobs < 1 || pending < 1)
    throw std::invalid_argument(
        "serve_max_jobs and serve_max_pending must be >= 1");
  l.max_jobs = static_cast<std::size_t>(jobs);
  l.max_pending_tasks = static_cast<std::size_t>(pending);
  l.max_attempts =
      static_cast<int>(cfg.get_int("serve_max_attempts", l.max_attempts));
  if (l.max_attempts < 1)
    throw std::invalid_argument("serve_max_attempts must be >= 1");
  l.task_timeout_ms =
      positive_u64(cfg, "serve_task_timeout_ms", l.task_timeout_ms);
  l.backoff_base_ms = positive_u64(cfg, "serve_backoff_ms", l.backoff_base_ms);
  l.backoff_cap_ms =
      positive_u64(cfg, "serve_backoff_cap_ms", l.backoff_cap_ms);
  l.progress_every_ms =
      positive_u64(cfg, "serve_progress_every_ms", l.progress_every_ms);
  return l;
}

std::uint64_t backoff_delay_ms(std::uint64_t base_ms, std::uint64_t cap_ms,
                               int attempt) {
  if (base_ms == 0) return 0;
  const int exp = std::max(attempt - 1, 0);
  // `base << exp` would wrap for exp >= 64 (and is UB-adjacent even
  // before that once the product leaves the type); any shift that cannot
  // fit under the cap is by definition >= the cap, so saturate instead.
  if (exp >= 64 || base_ms > (cap_ms >> exp)) return cap_ms;
  return base_ms << exp;
}

TaskOutcome TaskOutcome::ok(json::Value r) {
  TaskOutcome o;
  o.status = Status::kOk;
  o.result = std::move(r);
  return o;
}

TaskOutcome TaskOutcome::cancelled() {
  TaskOutcome o;
  o.status = Status::kCancelled;
  return o;
}

TaskOutcome TaskOutcome::failed(std::string why) {
  TaskOutcome o;
  o.status = Status::kError;
  o.error = std::move(why);
  return o;
}

namespace {

/// One task's scheduling state.  `queued` means a pool closure is in
/// flight for it; `waiting_retry` that the supervisor owns its requeue.
struct TaskState {
  int attempts = 0;
  bool done = false;
  bool queued = false;
  bool running = false;
  bool waiting_retry = false;
  bool timed_out = false;  ///< current attempt was killed by the watchdog
  bool preempted = false;  ///< current attempt was evicted for a kHigh job
  Clock::time_point deadline{};  ///< valid while running with a timeout
  Clock::time_point retry_at{};  ///< valid while waiting_retry
  CancellationToken token;
  /// Latest cycle the runner reported.  Written by the worker thread via
  /// TaskContext::report_progress (relaxed store, no scheduler lock —
  /// the drain phase reports every cycle) and read under `mu` by watch
  /// frames; shared_ptr so the closure outlives any attempt.
  std::shared_ptr<std::atomic<std::uint64_t>> cycles =
      std::make_shared<std::atomic<std::uint64_t>>(0);
};

/// A terminal job keeps its id, fingerprint, kind, priority and task
/// count; the per-task results and the spec's params are released, and a
/// done job's result stays only as `result`, its compact dump.
struct JobState {
  enum class State { kActive, kDone, kQuarantined };

  std::string id;
  JobSpec spec;
  std::string fp;
  bool recovered = false;
  State state = State::kActive;
  std::vector<TaskState> tasks;
  std::vector<json::Value> results;  ///< per task; empty once terminal
  std::size_t done_tasks = 0;
  /// Terminal kDone: the aggregate's compact dump, the very bytes of the
  /// ledger `done` record's result.  Replies parse it back; numbers
  /// round-trip exactly, so the parsed value dumps to the same bytes.
  std::string result;
  std::string error;   ///< terminal kQuarantined

  /// Frees what no terminal job reads again.
  void release_inputs() {
    std::vector<json::Value>().swap(results);
    spec.params = json::Value();
  }

  const char* state_name() const {
    switch (state) {
      case State::kDone: return "done";
      case State::kQuarantined: return "quarantined";
      default: break;
    }
    for (const TaskState& t : tasks)
      if (t.running) return "running";
    return "queued";
  }
};

}  // namespace

struct JobScheduler::Impl {
  ServeLimits limits;
  TaskRunner runner;
  Aggregator aggregate;
  Ledger* ledger;

  mutable std::mutex mu;
  /// Notified on any job reaching a terminal state (and on drain/stop),
  /// which is exactly what `wait` blocks on.
  std::condition_variable job_cv;
  std::condition_variable supervisor_cv;

  // Job ids are dense ("job-1", "job-2", ...); entries are never erased,
  // so JobState* stays valid for the scheduler's lifetime and closures
  // may capture it raw.
  std::map<std::string, std::unique_ptr<JobState>> jobs;
  /// Jobs in submission order (map iteration orders "job-10" before
  /// "job-2"): queue positions count along it, preemption walks it
  /// backwards so the most recently admitted lower-priority work yields
  /// first.
  std::vector<JobState*> order;
  std::uint64_t next_id = 1;
  /// fingerprint -> completed job.  Keys view the job's own `fp`, which
  /// lives as long as the never-erased JobState.
  std::map<std::string_view, const JobState*> cache;

  bool is_draining = false;
  bool stopping = false;

  std::size_t active_jobs = 0;
  std::size_t done_jobs = 0;
  std::size_t quarantined_jobs = 0;
  std::size_t pending_tasks = 0;  ///< queued or waiting_retry
  std::size_t running_tasks = 0;
  std::uint64_t submitted = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t rejected = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t tasks_recovered = 0;

  std::unique_ptr<ThreadPool> pool;
  std::thread supervisor;

  Impl(const ServeLimits& l, TaskRunner r, Aggregator a, Ledger* led)
      : limits(l), runner(std::move(r)), aggregate(std::move(a)),
        ledger(led) {
    NOCS_EXPECTS(runner != nullptr);
    pool = std::make_unique<ThreadPool>(limits.workers);
  }

  // --- ledger records -------------------------------------------------------

  void ledger_append(json::Value record) {
    // Called with `mu` held: a submit record must hit the device before
    // the accept reply, and task/done records before any observer can see
    // the transition.  Tasks run for seconds; an fsync per transition is
    // cheap at this granularity.
    if (ledger != nullptr) ledger->append(record);
  }

  void record_submit(const JobState& job) {
    json::Value rec = json::Value::object();
    rec.set("type", "submit");
    rec.set("job", job.id);
    rec.set("spec", spec_to_json(job.spec));
    rec.set("fingerprint", job.fp);
    ledger_append(std::move(rec));
  }

  void record_task(const JobState& job, std::size_t index,
                   const json::Value& result) {
    json::Value rec = json::Value::object();
    rec.set("type", "task");
    rec.set("job", job.id);
    rec.set("task", static_cast<double>(index));
    rec.set("result", result);
    ledger_append(std::move(rec));
  }

  void record_done(const JobState& job, json::Value result) {
    json::Value rec = json::Value::object();
    rec.set("type", "done");
    rec.set("job", job.id);
    rec.set("result", std::move(result));
    ledger_append(std::move(rec));
  }

  void record_failed(const JobState& job) {
    json::Value rec = json::Value::object();
    rec.set("type", "failed");
    rec.set("job", job.id);
    rec.set("error", job.error);
    ledger_append(std::move(rec));
  }

  // --- task lifecycle -------------------------------------------------------

  /// Hands task `index` to the pool.  Caller holds `mu` and has already
  /// counted the task in `pending_tasks`.
  void enqueue_locked(JobState* job, std::size_t index) {
    TaskState& t = job->tasks[index];
    NOCS_EXPECTS(!t.queued && !t.running && !t.done);
    t.queued = true;
    // ThreadPool::submit takes its own lock; pool code never takes `mu`,
    // so the nesting is one-way and safe.
    pool->submit(job->spec.priority,
                 [this, job, index] { run_task(job, index); });
  }

  void run_task(JobState* job, std::size_t index) {
    JobSpec spec;
    TaskContext ctx;
    {
      std::lock_guard<std::mutex> lock(mu);
      TaskState& t = job->tasks[index];
      t.queued = false;
      NOCS_EXPECTS(pending_tasks > 0);
      --pending_tasks;  // leaving the queue: either runs now or is dropped
      if (is_draining || stopping || t.done ||
          job->state != JobState::State::kActive)
        return;
      t.running = true;
      t.timed_out = false;
      ++t.attempts;
      t.token = CancellationToken();
      if (limits.task_timeout_ms > 0)
        t.deadline = Clock::now() + ms(limits.task_timeout_ms);
      ++running_tasks;
      spec = job->spec;
      ctx.job_id = job->id;
      ctx.task_index = index;
      ctx.attempt = t.attempts;
      ctx.cancel = t.token;
      ctx.report_progress = [cycles = t.cycles](std::uint64_t c) {
        cycles->store(c, std::memory_order_relaxed);
      };
    }

    TaskOutcome out;
    try {
      out = runner(spec, ctx);
    } catch (const std::exception& e) {
      out = TaskOutcome::failed(std::string("runner threw: ") + e.what());
    }

    std::lock_guard<std::mutex> lock(mu);
    TaskState& t = job->tasks[index];
    t.running = false;
    NOCS_EXPECTS(running_tasks > 0);
    --running_tasks;
    const bool was_preempted = t.preempted;
    t.preempted = false;
    if (job->state != JobState::State::kActive)
      return;  // a sibling already quarantined the job
    switch (out.status) {
      case TaskOutcome::Status::kOk: {
        t.done = true;
        job->results[index] = out.result;
        ++job->done_tasks;
        ++tasks_completed;
        record_task(*job, index, out.result);
        if (job->done_tasks == job->tasks.size()) complete_job_locked(*job);
        break;
      }
      case TaskOutcome::Status::kCancelled: {
        if (is_draining || stopping)
          return;  // not a failure: the ledger resumes it next start
        if (was_preempted && !t.timed_out) {
          // Evicted for a high-priority job, not failed: the runner just
          // checkpointed, so re-queue in the task's own priority lane and
          // resume bit-identically from the snapshot.  The attempt was
          // not consumed — a preempted first attempt resumes as attempt 1.
          --t.attempts;
          ++pending_tasks;
          enqueue_locked(job, index);
          return;
        }
        handle_failure_locked(*job, index,
                              t.timed_out ? "task timed out" : "cancelled");
        break;
      }
      case TaskOutcome::Status::kError:
        handle_failure_locked(*job, index, out.error);
        break;
    }
  }

  /// Called on a kHigh submission whose `incoming` tasks would otherwise
  /// sit behind lower-priority work occupying every worker.  Cancels just
  /// enough running kLow/kNormal tasks — newest jobs first, kLow before
  /// kNormal — to free workers for the high lane; victims checkpoint and
  /// re-queue (see run_task).  Caller holds `mu`.
  void preempt_for_high_locked(std::size_t incoming) {
    const std::size_t workers = static_cast<std::size_t>(limits.workers);
    const std::size_t idle =
        workers > running_tasks ? workers - running_tasks : 0;
    const std::size_t want = std::min(incoming, workers);
    if (want <= idle) return;
    std::size_t need = want - idle;
    for (const TaskPriority lane : {TaskPriority::kLow, TaskPriority::kNormal}) {
      for (auto it = order.rbegin(); it != order.rend() && need > 0; ++it) {
        JobState* job = *it;
        if (job->state != JobState::State::kActive ||
            job->spec.priority != lane)
          continue;
        for (TaskState& t : job->tasks) {
          if (need == 0) break;
          if (!t.running || t.preempted || t.timed_out) continue;
          t.preempted = true;
          ++preemptions;
          t.token.request_stop();
          --need;
          log_message(LogLevel::kInfo,
                      "serve: preempting a %s-priority task of %s for a "
                      "high-priority submission",
                      priority_to_string(job->spec.priority).c_str(),
                      job->id.c_str());
        }
      }
    }
  }

  void handle_failure_locked(JobState& job, std::size_t index,
                             const std::string& why) {
    TaskState& t = job.tasks[index];
    if (t.attempts >= limits.max_attempts) {
      job.state = JobState::State::kQuarantined;
      job.error = "task " + std::to_string(index) + " failed after " +
                  std::to_string(t.attempts) + " attempt(s): " + why;
      NOCS_EXPECTS(active_jobs > 0);
      --active_jobs;
      ++quarantined_jobs;
      job.release_inputs();
      // Free the workers promptly: sibling results would be discarded
      // anyway, and quarantine is terminal.
      for (TaskState& other : job.tasks)
        if (other.running) other.token.request_stop();
      record_failed(job);
      log_message(LogLevel::kWarn, "serve: job %s quarantined: %s",
                  job.id.c_str(), job.error.c_str());
      job_cv.notify_all();
      return;
    }
    ++retries;
    t.waiting_retry = true;
    ++pending_tasks;
    const std::uint64_t delay = backoff_delay_ms(
        limits.backoff_base_ms, limits.backoff_cap_ms, t.attempts);
    t.retry_at = Clock::now() + ms(delay);
    log_message(LogLevel::kInfo,
                "serve: job %s task %zu attempt %d failed (%s); retry in "
                "%llu ms",
                job.id.c_str(), index, t.attempts, why.c_str(),
                static_cast<unsigned long long>(delay));
  }

  void complete_job_locked(JobState& job) {
    json::Value doc;
    if (aggregate != nullptr) {
      doc = aggregate(job.spec, job.results);
    } else {
      doc = json::Value::object();
      json::Value arr = json::Value::array();
      for (const json::Value& r : job.results) arr.push_back(r);
      doc.set("tasks", std::move(arr));
    }
    NOCS_EXPECTS(active_jobs > 0);
    --active_jobs;
    ++done_jobs;
    settle_done_locked(job, doc.dump());
    record_done(job, std::move(doc));
    job_cv.notify_all();
  }

  /// Marks `job` done with `result` (a compact dump) and indexes it in the
  /// result cache.  Shared by live completion and ledger replay.
  void settle_done_locked(JobState& job, std::string result) {
    job.state = JobState::State::kDone;
    job.result = std::move(result);
    job.result.shrink_to_fit();  // dump() grows by doubling
    job.done_tasks = job.tasks.size();
    job.release_inputs();
    cache[job.fp] = &job;
  }

  // --- supervisor -----------------------------------------------------------

  void supervise() {
    std::unique_lock<std::mutex> lock(mu);
    while (!stopping) {
      supervisor_cv.wait_for(lock, ms(limits.supervise_every_ms),
                             [&] { return stopping; });
      if (stopping) break;
      const auto now = Clock::now();
      for (auto& [id, jobp] : jobs) {
        JobState& job = *jobp;
        if (job.state != JobState::State::kActive) continue;
        for (std::size_t i = 0; i < job.tasks.size(); ++i) {
          TaskState& t = job.tasks[i];
          if (t.running && !t.timed_out && limits.task_timeout_ms > 0 &&
              now >= t.deadline) {
            t.timed_out = true;
            ++timeouts;
            t.token.request_stop();
            log_message(LogLevel::kWarn,
                        "serve: job %s task %zu exceeded %llu ms; "
                        "cancelling attempt %d",
                        job.id.c_str(), i,
                        static_cast<unsigned long long>(
                            limits.task_timeout_ms),
                        t.attempts);
          }
          if (t.waiting_retry && !is_draining && now >= t.retry_at) {
            t.waiting_retry = false;
            enqueue_locked(&job, i);
          }
        }
      }
    }
  }

  // --- recovery -------------------------------------------------------------

  /// Replays the ledger into scheduler state.  Runs before the supervisor
  /// starts but after the pool exists, so re-enqueued tasks may begin
  /// executing immediately (hence the lock).  Returns re-run job count.
  std::size_t recover() {
    NOCS_EXPECTS(ledger != nullptr);
    std::lock_guard<std::mutex> lock(mu);
    // Taken, not copied: the records are freed once recovery is done.
    const std::vector<json::Value> records = ledger->take_replayed();
    for (const json::Value& rec : records) {
      const json::Value* type = rec.find("type");
      if (type == nullptr || !type->is_string()) continue;
      const std::string& t = type->as_string();
      try {
        if (t == "submit") {
          replay_submit_locked(rec);
        } else if (t == "task") {
          replay_task_locked(rec);
        } else if (t == "done") {
          JobState& job = *jobs.at(rec.at("job").as_string());
          settle_done_locked(job, rec.at("result").dump());
        } else if (t == "failed") {
          JobState& job = *jobs.at(rec.at("job").as_string());
          job.state = JobState::State::kQuarantined;
          job.error = rec.at("error").as_string();
          job.release_inputs();
        }
      } catch (const std::exception& e) {
        log_message(LogLevel::kWarn,
                    "serve: skipping unreplayable ledger record (%s)",
                    e.what());
      }
    }

    std::size_t rerun = 0;
    for (auto& [id, jobp] : jobs) {
      JobState& job = *jobp;
      switch (job.state) {
        case JobState::State::kDone: ++done_jobs; break;
        case JobState::State::kQuarantined: ++quarantined_jobs; break;
        case JobState::State::kActive: {
          ++active_jobs;
          ++rerun;
          if (job.done_tasks == job.tasks.size()) {
            // Crash landed between the last task record and the done
            // record: every result is on disk, only aggregation is owed.
            complete_job_locked(job);
            break;
          }
          std::size_t requeued = 0;
          for (std::size_t i = 0; i < job.tasks.size(); ++i) {
            if (job.tasks[i].done) continue;
            ++pending_tasks;
            enqueue_locked(&job, i);
            ++requeued;
          }
          log_message(LogLevel::kInfo,
                      "serve: recovered job %s (%zu of %zu task(s) were "
                      "already complete; re-running %zu)",
                      job.id.c_str(), job.done_tasks, job.tasks.size(),
                      requeued);
          break;
        }
      }
    }
    return rerun;
  }

  void replay_submit_locked(const json::Value& rec) {
    auto job = std::make_unique<JobState>();
    job->id = rec.at("job").as_string();
    if (jobs.count(job->id) != 0)
      // A duplicate submit record (only a hand-damaged log can contain
      // one) must not replace the JobState `order` already points at.
      throw std::invalid_argument("duplicate submit for " + job->id);
    job->spec = spec_from_json(rec.at("spec"));
    const json::Value* fp = rec.find("fingerprint");
    job->fp = fp != nullptr && fp->is_string() ? fp->as_string()
                                               : fingerprint(job->spec);
    job->recovered = true;
    const std::size_t n = task_count(job->spec);
    job->tasks.resize(n);
    job->results.resize(n);
    // Keep job-N numbering monotonic across restarts so a recovered
    // "job-7" is never shadowed by a fresh submission.
    if (job->id.rfind("job-", 0) == 0) {
      try {
        next_id = std::max<std::uint64_t>(next_id,
                                          std::stoull(job->id.substr(4)) + 1);
      } catch (const std::exception&) {
      }
    }
    order.push_back(job.get());
    jobs[job->id] = std::move(job);
  }

  void replay_task_locked(const json::Value& rec) {
    JobState& job = *jobs.at(rec.at("job").as_string());
    const double raw = rec.at("task").as_number();
    const std::size_t index = static_cast<std::size_t>(raw);
    if (raw < 0 || index >= job.tasks.size())
      throw std::invalid_argument("task index out of range");
    if (job.state != JobState::State::kActive)
      // Only a hand-damaged log records a task after the job's terminal
      // record; the job's per-task results are already released.
      throw std::invalid_argument("task record after " + job.id +
                                  " finished");
    if (job.tasks[index].done) return;  // duplicate record; keep the first
    job.tasks[index].done = true;
    job.results[index] = rec.at("result");
    ++job.done_tasks;
    ++tasks_recovered;
  }

  // --- status dumps ---------------------------------------------------------

  json::Value job_status_locked(const JobState& job) const {
    json::Value v = json::Value::object();
    v.set("ok", true);
    v.set("job", job.id);
    v.set("state", job.state_name());
    v.set("kind", job.spec.kind);
    v.set("priority", priority_to_string(job.spec.priority));
    v.set("tasks", static_cast<double>(job.tasks.size()));
    v.set("completed_tasks", static_cast<double>(job.done_tasks));
    if (job.recovered) v.set("recovered", true);
    if (job.state == JobState::State::kActive)
      // Live progress for pollers; terminal statuses stay byte-stable
      // across runs (cycle snapshots are incidental, results are not).
      v.set("cycles", static_cast<double>(summed_cycles(job)));
    if (job.state == JobState::State::kDone)
      v.set("result", json::Value::parse(job.result));
    if (job.state == JobState::State::kQuarantined)
      v.set("error", job.error);
    return v;
  }

  static std::uint64_t summed_cycles(const JobState& job) {
    std::uint64_t total = 0;
    for (const TaskState& t : job.tasks)
      total += t.cycles->load(std::memory_order_relaxed);
    return total;
  }

  /// One `watch` streaming frame.  Distinguished from a final status by
  /// its "event" field; clients read lines until one without it.
  json::Value progress_frame_locked(const JobState& job) const {
    json::Value v = json::Value::object();
    v.set("ok", true);
    v.set("event", "progress");
    v.set("job", job.id);
    v.set("state", job.state_name());
    v.set("tasks", static_cast<double>(job.tasks.size()));
    v.set("completed_tasks", static_cast<double>(job.done_tasks));
    std::size_t running = 0;
    int attempt = 0;
    for (const TaskState& t : job.tasks) {
      if (t.running) ++running;
      attempt = std::max(attempt, t.attempts);
    }
    v.set("running_tasks", static_cast<double>(running));
    v.set("attempt", static_cast<double>(attempt));
    v.set("cycles", static_cast<double>(summed_cycles(job)));
    // Still-active jobs admitted before this one; 0 = front of the line.
    std::size_t position = 0;
    for (const JobState* other : order) {
      if (other == &job) break;
      if (other->state == JobState::State::kActive) ++position;
    }
    v.set("queue_position", static_cast<double>(position));
    return v;
  }

  json::Value status_locked() const {
    json::Value v = json::Value::object();
    v.set("ok", true);
    v.set("draining", is_draining);
    v.set("workers", static_cast<double>(limits.workers));
    json::Value j = json::Value::object();
    j.set("active", static_cast<double>(active_jobs));
    j.set("done", static_cast<double>(done_jobs));
    j.set("quarantined", static_cast<double>(quarantined_jobs));
    v.set("jobs", std::move(j));
    json::Value t = json::Value::object();
    t.set("pending", static_cast<double>(pending_tasks));
    t.set("running", static_cast<double>(running_tasks));
    t.set("completed", static_cast<double>(tasks_completed));
    t.set("recovered", static_cast<double>(tasks_recovered));
    v.set("tasks", std::move(t));
    json::Value c = json::Value::object();
    c.set("submitted", static_cast<double>(submitted));
    c.set("cache_hits", static_cast<double>(cache_hits));
    c.set("rejected", static_cast<double>(rejected));
    c.set("retries", static_cast<double>(retries));
    c.set("timeouts", static_cast<double>(timeouts));
    c.set("preemptions", static_cast<double>(preemptions));
    v.set("counters", std::move(c));
    if (ledger != nullptr) {
      json::Value l = json::Value::object();
      l.set("healthy", ledger->healthy());
      l.set("bytes", static_cast<double>(ledger->size_bytes()));
      l.set("compactions", static_cast<double>(ledger->compactions()));
      v.set("ledger", std::move(l));
    }
    return v;
  }
};

JobScheduler::JobScheduler(const ServeLimits& limits, TaskRunner runner,
                           Aggregator aggregate, Ledger* ledger)
    : impl_(std::make_unique<Impl>(limits, std::move(runner),
                                   std::move(aggregate), ledger)) {
  if (ledger != nullptr) recovered_jobs_ = impl_->recover();
  impl_->supervisor = std::thread([this] { impl_->supervise(); });
}

JobScheduler::~JobScheduler() {
  drain();
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stopping = true;
  }
  impl_->supervisor_cv.notify_all();
  impl_->job_cv.notify_all();
  impl_->supervisor.join();
  // Destroy the pool (joins its workers) before any Impl state the task
  // closures touch goes away.
  impl_->pool.reset();
}

SubmitOutcome JobScheduler::submit(const JobSpec& spec) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  SubmitOutcome out;
  if (impl_->is_draining || impl_->stopping) {
    out.code = SubmitOutcome::Code::kDraining;
    out.error = "daemon is draining";
    return out;
  }
  if (impl_->ledger != nullptr && !impl_->ledger->healthy()) {
    // The ledger failed closed (unrepairable tail or a short write):
    // accepting work we cannot make durable would silently break crash
    // recovery, so refuse with a 503-shaped reply.
    ++impl_->rejected;
    out.code = SubmitOutcome::Code::kDraining;
    out.error = "job ledger is not writable; refusing new work";
    return out;
  }
  const std::string fp = fingerprint(spec);
  const auto hit = impl_->cache.find(fp);
  if (hit != impl_->cache.end()) {
    ++impl_->cache_hits;
    out.code = SubmitOutcome::Code::kCached;
    out.job_id = hit->second->id;
    out.cached = json::Value::parse(hit->second->result);
    return out;
  }
  const std::size_t tasks = task_count(spec);
  if (impl_->active_jobs >= impl_->limits.max_jobs) {
    ++impl_->rejected;
    out.code = SubmitOutcome::Code::kRejected;
    out.error = "job queue full (" +
                std::to_string(impl_->limits.max_jobs) + " active jobs)";
    return out;
  }
  if (impl_->pending_tasks + tasks > impl_->limits.max_pending_tasks) {
    ++impl_->rejected;
    out.code = SubmitOutcome::Code::kRejected;
    out.error = "task queue full (" + std::to_string(tasks) +
                " task(s) would exceed the pending limit of " +
                std::to_string(impl_->limits.max_pending_tasks) + ")";
    return out;
  }

  auto job = std::make_unique<JobState>();
  job->id = "job-" + std::to_string(impl_->next_id++);
  job->spec = spec;
  job->fp = fp;
  job->tasks.resize(tasks);
  job->results.resize(tasks);
  JobState* raw = job.get();
  impl_->order.push_back(raw);
  impl_->jobs[job->id] = std::move(job);
  ++impl_->active_jobs;
  ++impl_->submitted;
  // Durability before acknowledgment: the submit record reaches the
  // device before the caller sees "accepted".
  impl_->record_submit(*raw);
  for (std::size_t i = 0; i < tasks; ++i) {
    ++impl_->pending_tasks;
    impl_->enqueue_locked(raw, i);
  }
  // A saturated pool must not make a high-priority job wait out a
  // low-priority sweep: evict just enough running lower-priority tasks
  // (they checkpoint and resume bit-identically later).
  if (spec.priority == TaskPriority::kHigh)
    impl_->preempt_for_high_locked(tasks);
  out.code = SubmitOutcome::Code::kAccepted;
  out.job_id = raw->id;
  return out;
}

json::Value JobScheduler::job_status(const std::string& job_id) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->jobs.find(job_id);
  if (it == impl_->jobs.end())
    return error_response(kCodeNotFound, "unknown job '" + job_id + "'");
  return impl_->job_status_locked(*it->second);
}

json::Value JobScheduler::wait(const std::string& job_id,
                               std::optional<std::uint64_t> timeout_ms) {
  std::unique_lock<std::mutex> lock(impl_->mu);
  const auto it = impl_->jobs.find(job_id);
  if (it == impl_->jobs.end())
    return error_response(kCodeNotFound, "unknown job '" + job_id + "'");
  JobState* job = it->second.get();
  // nullopt = server default; an explicit 0 is a non-blocking poll.
  const std::uint64_t budget =
      timeout_ms.has_value() ? *timeout_ms : impl_->limits.wait_default_ms;
  if (budget > 0) {
    const auto deadline = Clock::now() + ms(budget);
    impl_->job_cv.wait_until(lock, deadline, [&] {
      // During a drain active jobs will not finish; unblock the client
      // with the job's current (non-terminal) status instead of hanging.
      return job->state != JobState::State::kActive || impl_->is_draining ||
             impl_->stopping;
    });
  }
  return impl_->job_status_locked(*job);
}

json::Value JobScheduler::watch(
    const std::string& job_id, std::uint64_t every_ms,
    const std::function<bool(const json::Value&)>& emit) {
  std::unique_lock<std::mutex> lock(impl_->mu);
  const auto it = impl_->jobs.find(job_id);
  if (it == impl_->jobs.end())
    return error_response(kCodeNotFound, "unknown job '" + job_id + "'");
  JobState* job = it->second.get();
  // The client may slow the stream down, never speed it past the
  // server's floor — progress frames are a courtesy, not a load source.
  const std::uint64_t interval = std::max<std::uint64_t>(
      std::max(every_ms, impl_->limits.progress_every_ms), 1);
  const auto settled = [&] {
    return job->state != JobState::State::kActive || impl_->is_draining ||
           impl_->stopping;
  };
  std::string last_frame;
  while (!settled()) {
    json::Value frame = impl_->progress_frame_locked(*job);
    std::string dump = frame.dump();
    if (dump != last_frame) {  // only push frames that carry news
      last_frame = std::move(dump);
      lock.unlock();
      // Emit outside the lock: a slow client socket must not stall
      // workers or other watchers.
      const bool keep_streaming = !emit || emit(frame);
      lock.lock();
      if (!keep_streaming) break;  // client hung up
    }
    impl_->job_cv.wait_for(lock, ms(interval), settled);
  }
  return impl_->job_status_locked(*job);
}

json::Value JobScheduler::status() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->status_locked();
}

void JobScheduler::export_metrics(MetricsRegistry& reg) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  reg.counter("serve.jobs.submitted").set(impl_->submitted);
  reg.counter("serve.jobs.done").set(impl_->done_jobs);
  reg.counter("serve.jobs.quarantined").set(impl_->quarantined_jobs);
  reg.counter("serve.cache.hits").set(impl_->cache_hits);
  reg.counter("serve.rejected").set(impl_->rejected);
  reg.counter("serve.tasks.completed").set(impl_->tasks_completed);
  reg.counter("serve.tasks.recovered").set(impl_->tasks_recovered);
  reg.counter("serve.tasks.retries").set(impl_->retries);
  reg.counter("serve.tasks.timeouts").set(impl_->timeouts);
  reg.counter("serve.tasks.preemptions").set(impl_->preemptions);
  reg.gauge("serve.jobs.active")
      .set(static_cast<double>(impl_->active_jobs));
  reg.gauge("serve.tasks.pending")
      .set(static_cast<double>(impl_->pending_tasks));
  reg.gauge("serve.tasks.running")
      .set(static_cast<double>(impl_->running_tasks));
}

void JobScheduler::drain() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (!impl_->is_draining) {
      impl_->is_draining = true;
      for (auto& [id, job] : impl_->jobs) {
        if (job->state != JobState::State::kActive) continue;
        for (TaskState& t : job->tasks)
          if (t.running) t.token.request_stop();
      }
    }
  }
  impl_->job_cv.notify_all();
  // Queued closures observe is_draining and fall through; running tasks
  // stop at their next cancellation poll (checkpointing themselves).
  impl_->pool->wait_idle();
}

bool JobScheduler::draining() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->is_draining;
}

}  // namespace nocs::serve
