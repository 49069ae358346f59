// Crash-safe job scheduler: the heart of the serve daemon.
//
// Jobs expand into tasks that run on a shared common/parallel ThreadPool
// with per-job priority lanes.  Robustness is the contract:
//
//  - admission control: bounded job and task queues; a full queue is an
//    explicit 429-style reject, never unbounded memory growth;
//  - write-ahead ledger: submissions are durable before they are
//    acknowledged, task completions before they are aggregated, so a
//    `kill -9` at any point resumes with no lost or duplicated tasks;
//  - supervision: a watchdog thread enforces per-task wall-clock
//    timeouts via cancellation tokens, retries failures with
//    capped-exponential backoff, and quarantines a job whose task keeps
//    failing after max_attempts;
//  - result cache: completed jobs are cached by spec fingerprint, so an
//    identical resubmission replays the stored JSON bit-identically for
//    zero simulation cycles; a finished job keeps its result only as
//    that compact dump (the bytes of its ledger `done` record);
//  - preemption: a high-priority submission that finds every worker busy
//    with lower-priority tasks cancels enough of them through their
//    tokens; the victims checkpoint, re-queue in their own lanes without
//    consuming an attempt, and later resume bit-identically from their
//    per-task snapshots;
//  - streaming progress: watch() pushes rate-limited per-job progress
//    frames (cycle counts reported by runners, queue position, attempt)
//    to a client callback until the job settles;
//  - graceful drain: stop admitting, cancel running tasks cooperatively
//    (simulation runners checkpoint via CheckpointConfig), and leave the
//    ledger positioned so the next start finishes the campaign.
//
// The scheduler is transport- and workload-agnostic: the server wires in
// the socket front end, serve/runner.hpp the actual simulations, and
// tests wire in synthetic runners to exercise every failure path.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "serve/ledger.hpp"
#include "serve/protocol.hpp"

namespace nocs::serve {

/// Scheduler capacity and supervision policy (CLI `serve_*` keys).
struct ServeLimits {
  int workers = 2;                    ///< pool worker threads
  std::size_t max_jobs = 64;          ///< non-terminal jobs admitted at once
  std::size_t max_pending_tasks = 1024;  ///< queued-but-not-running tasks
  int max_attempts = 3;               ///< attempts before quarantine
  std::uint64_t task_timeout_ms = 0;  ///< per-attempt wall clock (0 = off)
  std::uint64_t backoff_base_ms = 100;   ///< first retry delay
  std::uint64_t backoff_cap_ms = 5000;   ///< exponential backoff ceiling
  std::uint64_t supervise_every_ms = 20;  ///< watchdog poll period
  std::uint64_t wait_default_ms = 60000;  ///< `wait` op default timeout
  /// Floor on the interval between `watch` progress frames: a client may
  /// ask for a coarser cadence but never a finer one (rate limiting is
  /// the server's call, not the client's).
  std::uint64_t progress_every_ms = 100;

  /// Reads `serve_workers=`, `serve_max_jobs=`, `serve_max_pending=`,
  /// `serve_max_attempts=`, `serve_task_timeout_ms=`,
  /// `serve_backoff_ms=`, `serve_backoff_cap_ms=`,
  /// `serve_progress_every_ms=` (validated: throws
  /// std::invalid_argument on non-positive workers/attempts).
  static ServeLimits from_config(const Config& cfg);
};

/// Retry delay before attempt `attempt + 1`, i.e. after `attempt` failed
/// attempts: min(cap_ms, base_ms << (attempt - 1)), computed without the
/// uint64 shift overflow a naive `base << exp` hits for large attempt
/// counts — any product past the cap saturates at the cap.
std::uint64_t backoff_delay_ms(std::uint64_t base_ms, std::uint64_t cap_ms,
                               int attempt);

/// Result of one task attempt.
struct TaskOutcome {
  enum class Status {
    kOk,         ///< result is valid
    kCancelled,  ///< stopped at the cancellation token (timeout or drain)
    kError,      ///< attempt failed; retry or quarantine per policy
  };
  Status status = Status::kError;
  json::Value result;  ///< kOk only
  std::string error;   ///< kError only

  static TaskOutcome ok(json::Value r);
  static TaskOutcome cancelled();
  static TaskOutcome failed(std::string why);
};

/// Everything one task attempt needs from the scheduler.
struct TaskContext {
  std::string job_id;
  std::size_t task_index = 0;
  int attempt = 1;
  /// Must be polled; the runner returns kCancelled promptly once it
  /// fires — the timeout watchdog, graceful drain, and high-priority
  /// preemption all ride on this token.
  CancellationToken cancel;
  /// Optional progress sink: the runner reports its current simulated
  /// cycle (or any monotonic work counter) and `watch` streams it to
  /// clients.  Thread-safe and cheap (an atomic store); may be empty.
  std::function<void(std::uint64_t)> report_progress;
};

/// Executes one task attempt.  Must poll `ctx.cancel` and return
/// kCancelled promptly once it fires — the timeout watchdog, graceful
/// drain, and preemption all ride on that token.
using TaskRunner =
    std::function<TaskOutcome(const JobSpec& spec, const TaskContext& ctx)>;

/// Combines a completed job's per-task results into its final result.
using Aggregator = std::function<json::Value(
    const JobSpec& spec, const std::vector<json::Value>& task_results)>;

/// submit() outcome, mapped onto wire replies by the server.
struct SubmitOutcome {
  enum class Code {
    kAccepted,  ///< durably ledgered and queued
    kCached,    ///< identical completed job: result replayed, zero cycles
    kRejected,  ///< admission control (429)
    kDraining,  ///< daemon is shutting down (503)
  };
  Code code = Code::kRejected;
  std::string job_id;      ///< kAccepted: the new job; kCached: the donor
  json::Value cached;      ///< kCached: the stored result, parsed back
  std::string error;       ///< kRejected / kDraining
};

class JobScheduler {
 public:
  /// Starts workers and the supervisor.  `ledger` may be null (a purely
  /// in-memory scheduler, used by some tests); with a ledger, its
  /// replayed records are recovered first: terminal jobs seed the result
  /// cache, interrupted jobs re-enqueue their unfinished tasks.
  JobScheduler(const ServeLimits& limits, TaskRunner runner,
               Aggregator aggregate, Ledger* ledger);
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  SubmitOutcome submit(const JobSpec& spec);

  /// Status object for one job ({"ok":false,...} 404-style when unknown).
  json::Value job_status(const std::string& job_id) const;

  /// Blocks until the job is terminal or the timeout elapsed, then
  /// returns its status object.  nullopt uses
  /// ServeLimits::wait_default_ms; an explicit 0 is a true non-blocking
  /// poll (returns the current status immediately).
  json::Value wait(const std::string& job_id,
                   std::optional<std::uint64_t> timeout_ms = std::nullopt);

  /// Emits a progress frame through `emit` whenever the job's progress
  /// changes — at most once per max(every_ms, progress_every_ms) — until
  /// the job is terminal, the daemon drains, or `emit` returns false
  /// (client hung up).  Frames are `{"ok":true,"event":"progress",...}`
  /// with cycle counts, completed/running task counts, queue position,
  /// and the highest attempt number; the returned value is the job's
  /// final status object (no "event" field), which the server sends as
  /// the stream's last line.  `emit` is invoked without internal locks
  /// held, so it may block on a slow socket without stalling workers.
  json::Value watch(const std::string& job_id, std::uint64_t every_ms,
                    const std::function<bool(const json::Value&)>& emit);

  /// Daemon-level status: queue depth, running tasks, retry/timeout/
  /// quarantine/cache counters, draining flag.
  json::Value status() const;

  /// Registers the same numbers as "serve.*" metrics.
  void export_metrics(MetricsRegistry& reg) const;

  /// Graceful drain: stop admitting and dequeuing, cancel running tasks
  /// cooperatively, and return once every worker settled.  Idempotent.
  /// The scheduler stays queryable (status/job/wait) afterwards.
  void drain();
  bool draining() const;

  /// Jobs recovered from the ledger that are being re-run (for startup
  /// logging; 0 on a fresh ledger).
  std::size_t recovered_jobs() const { return recovered_jobs_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::size_t recovered_jobs_ = 0;
};

}  // namespace nocs::serve
