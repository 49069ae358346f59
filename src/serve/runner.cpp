#include "serve/runner.hpp"

#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "common/log.hpp"

namespace nocs::serve {

namespace {

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

std::string snapshot_path(const std::string& dir, const std::string& job_id,
                          std::size_t index) {
  return dir + "/" + job_id + ".task" + std::to_string(index) + ".nocsnap";
}

/// Runs `attempt_run(allow_restore)`, retrying once from scratch when the
/// first attempt blew up while a snapshot existed — a stale or corrupt
/// per-task snapshot must cost one fresh run, never quarantine the job.
template <typename Fn>
TaskOutcome with_snapshot_recovery(const std::string& snap, Fn attempt_run) {
  try {
    return attempt_run(true);
  } catch (const std::exception& e) {
    if (!snap.empty() && file_exists(snap)) {
      log_message(LogLevel::kWarn,
                  "serve: discarding unusable snapshot %s (%s); re-running "
                  "the task from scratch",
                  snap.c_str(), e.what());
      std::remove(snap.c_str());
      return attempt_run(false);
    }
    throw;
  }
}

/// kind=simulate|sweep: task `ctx.task_index` of the spec's Scenario —
/// the very code path of the CLI's mode of the same name, so a daemon
/// result equals a direct run bit for bit.
TaskOutcome run_scenario_task(const JobSpec& spec, const std::string& snap,
                              const TaskContext& ctx) {
  const sprint::Scenario scenario = scenario_of(spec);
  return with_snapshot_recovery(snap, [&](bool allow_restore) {
    noc::CheckpointConfig ckpt;
    ckpt.stop_flag = ctx.cancel.flag();
    ckpt.on_progress = ctx.report_progress;
    if (!snap.empty()) {
      ckpt.save_path = snap;
      if (allow_restore && file_exists(snap)) ckpt.restore_path = snap;
    }
    json::Value result = scenario.run_task(ctx.task_index, ckpt);
    if (result.is_null()) return TaskOutcome::cancelled();
    if (!snap.empty()) std::remove(snap.c_str());
    return TaskOutcome::ok(std::move(result));
  });
}

/// kind=selftest: no simulator, just deterministic sleep/fail/hang knobs
/// so tests and smoke checks can exercise retry, timeout, and drain paths
/// in milliseconds.
TaskOutcome run_selftest(const JobSpec& spec, const TaskContext& ctx) {
  const Config cfg = params_config(spec);
  (void)cfg.get_int("tasks", 1);  // consumed by task_count
  const long long sleep_ms = cfg.get_int("sleep_ms", 5);
  const long long fail_attempts = cfg.get_int("fail_attempts", 0);
  const bool hang = cfg.get_bool("hang", false);
  cfg.reject_unknown();

  if (ctx.attempt <= fail_attempts)
    return TaskOutcome::failed("selftest: induced failure on attempt " +
                               std::to_string(ctx.attempt));
  const auto slice = std::chrono::milliseconds(1);
  if (hang) {
    while (!ctx.cancel.stop_requested()) std::this_thread::sleep_for(slice);
    return TaskOutcome::cancelled();
  }
  for (long long slept = 0; slept < sleep_ms; ++slept) {
    if (ctx.cancel.stop_requested()) return TaskOutcome::cancelled();
    std::this_thread::sleep_for(slice);
    // Progress in "cycles" of one ms each: gives watch streams something
    // real to report without touching the simulator.
    if (ctx.report_progress)
      ctx.report_progress(static_cast<std::uint64_t>(slept + 1));
  }
  json::Value doc = json::Value::object();
  doc.set("task", static_cast<double>(ctx.task_index));
  doc.set("attempt", ctx.attempt);
  return TaskOutcome::ok(std::move(doc));
}

}  // namespace

TaskRunner make_sim_runner(std::string state_dir) {
  return [dir = std::move(state_dir)](const JobSpec& spec,
                                      const TaskContext& ctx) -> TaskOutcome {
    if (spec.kind == "selftest") return run_selftest(spec, ctx);
    const std::string snap =
        dir.empty() ? "" : snapshot_path(dir, ctx.job_id, ctx.task_index);
    return run_scenario_task(spec, snap, ctx);
  };
}

Aggregator make_sim_aggregator() {
  return [](const JobSpec& spec,
            const std::vector<json::Value>& results) -> json::Value {
    if (spec.kind == "selftest") {
      json::Value doc = json::Value::object();
      doc.set("kind", spec.kind);
      json::Value arr = json::Value::array();
      for (const json::Value& r : results) arr.push_back(r);
      doc.set("tasks", std::move(arr));
      return doc;
    }
    // A sweep's "kind" leads the document; a simulate result keeps the
    // run's own key order and gains "kind" last.
    if (spec.kind == "sweep")
      return scenario_of(spec).aggregate(results, "kind");
    json::Value doc = scenario_of(spec).aggregate(results);
    doc.set("kind", spec.kind);
    return doc;
  };
}

}  // namespace nocs::serve
