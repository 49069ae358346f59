// The one driver for embarrassingly-parallel simulation batches: the
// injection-rate sweeps behind the latency-throughput curves, fig11's
// random-mapping samples, and the PARSEC suite runs.
//
// Each task builds its own Network inside the caller-supplied body — the
// simulator is single-threaded by design, so parallelism comes from running
// independent simulations, never from sharing one.  Seeds are the caller's:
// a sweep derives task i's seed as nocs::task_seed(base_seed, i), which
// makes the batch bit-identical to running the same body serially in task
// order, regardless of thread count or completion order.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/snapshot.hpp"

namespace nocs::noc {

/// Runs fn(0) .. fn(n-1) across `num_threads` workers (0 = default thread
/// count; 1 = the plain serial loop) and returns the results in index
/// order.
///
/// `manifest` (optional) makes the batch resumable: a task already
/// recorded there is replayed from its stored result instead of run (the
/// JSON layer round-trips doubles bit-exactly), and each finished task is
/// recorded immediately, so a killed batch restarts from the last
/// completed task.  A null or disabled manifest is the plain batch.
///
/// `stop` (optional) is a cooperative shutdown flag (common/shutdown's
/// process flag, or a CancellationToken's): once set, no new task starts.
/// A body that was cut short returns a null Value, which is *not*
/// recorded; tasks that never started are null too.  The manifest
/// therefore only ever holds complete, bit-exact task results.
std::vector<json::Value> run_resumable(
    std::size_t n, int num_threads, snapshot::TaskManifest* manifest,
    const std::atomic<bool>* stop,
    const std::function<json::Value(std::size_t)>& fn);

/// Canonical manifest fingerprint for an injection sweep whose tasks
/// record one report point each (SimResults plus its injection_rate): task
/// count, base seed, and every rate, formatted bit-exactly.  Reusing a
/// manifest whose fingerprint differs (rates, seed, count, or payload
/// changed) starts fresh.
std::string sweep_fingerprint(const std::vector<double>& rates,
                              std::uint64_t base_seed);

}  // namespace nocs::noc
