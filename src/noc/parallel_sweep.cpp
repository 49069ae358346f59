#include "noc/parallel_sweep.hpp"

#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"

namespace nocs::noc {

std::vector<json::Value> run_resumable(
    std::size_t n, int num_threads, snapshot::TaskManifest* manifest,
    const std::atomic<bool>* stop,
    const std::function<json::Value(std::size_t)>& fn) {
  NOCS_EXPECTS(fn != nullptr);
  std::vector<json::Value> results(n);
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < n; ++i) {
    if (manifest != nullptr && manifest->completed(i))
      results[i] = manifest->result(i);
    else
      todo.push_back(i);
  }
  ParallelFor(
      todo.size(),
      [&](std::size_t k) {
        const std::size_t i = todo[k];
        // Shutdown: claim no new work.
        if (stop != nullptr && stop->load(std::memory_order_acquire)) return;
        const trace::HostScope span("task[" + std::to_string(i) + "]",
                                    "sweep", static_cast<int>(i));
        results[i] = fn(i);
        // A run the shutdown flag cut short is partial — keep it out of
        // the manifest so the resumed batch redoes it from scratch.
        if (!results[i].is_null() && manifest != nullptr)
          manifest->record(i, results[i]);
      },
      num_threads);
  return results;
}

std::string sweep_fingerprint(const std::vector<double>& rates,
                              std::uint64_t base_seed) {
  // "sweep-point": each task records a whole report point.
  std::string fp = "sweep-point:n=" + std::to_string(rates.size()) +
                   ";seed=" + std::to_string(base_seed) + ";rates=";
  for (std::size_t i = 0; i < rates.size(); ++i) {
    if (i != 0) fp += ',';
    fp += json::format_number(rates[i]);
  }
  return fp;
}

}  // namespace nocs::noc
