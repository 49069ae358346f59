// The serve daemon's real workloads: TaskRunner/Aggregator implementations
// that run `simulate` and `sweep` jobs as the sprint::Scenario of the CLI
// mode of the same name (so a daemon campaign is bit-identical to a
// direct run), plus the `selftest` kind, a simulator-free exercise of the
// scheduler's retry/timeout/cancellation machinery for tests and smoke
// checks.
#pragma once

#include <string>

#include "serve/scheduler.hpp"

namespace nocs::serve {

/// TaskRunner executing simulations.  `state_dir` ("" = off) holds one
/// snapshot per in-flight task: a cancelled task (drain or timeout)
/// checkpoints there via CheckpointConfig::stop_flag and the next attempt
/// resumes from it, so a drained campaign loses no simulated cycles.
TaskRunner make_sim_runner(std::string state_dir);

/// Aggregator shaping final results as Scenario::aggregate does, labelled
/// with the job's "kind": `simulate` lifts its single task's report to the
/// top level, `sweep` collects `points` in rate order, `selftest` collects
/// per-task echoes.
Aggregator make_sim_aggregator();

}  // namespace nocs::serve
