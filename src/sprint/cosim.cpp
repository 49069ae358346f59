#include "sprint/cosim.hpp"

#include <algorithm>

#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "sprint/scenario.hpp"

namespace nocs::sprint {

CosimResult cosimulate(const noc::NetworkParams& params,
                       const cmp::WorkloadParams& workload,
                       const cmp::PerfModel& perf, const CosimConfig& cfg) {
  CosimResult out;
  out.level = perf.optimal_level(workload);

  // The two configurations are independent points (own network, own
  // seed); run them as parallel tasks writing their own result slot.
  DesignPoint points[2];
  for (DesignPoint& p : points) {
    p.params = params;
    p.seed = cfg.seed;
    p.sim.warmup = cfg.warmup;
    p.sim.measure = cfg.measure;
    p.sim.injection_rate = workload.injection_rate;
  }
  points[0].scheme = NetworkScheme::kFull;
  points[0].level = params.num_nodes();
  points[1].level = std::max(out.level, 2);  // simulated at >= 2
  noc::SimResults results[2];
  Watts power[2];
  ParallelFor(
      2,
      [&](std::size_t i) {
        const trace::HostScope span(
            (i == 0 ? "cosim full " : "cosim noc ") + workload.name, "cosim");
        const TaskRun t = run_point(points[i]);
        results[i] = t.results;
        power[i] = t.power.total();
      },
      cfg.num_threads);
  out.full_latency = results[0].avg_packet_latency;
  out.full_saturated = results[0].saturated;
  out.full_noc_power = power[0];
  out.noc_latency = results[1].avg_packet_latency;
  out.noc_saturated = results[1].saturated;
  out.noc_noc_power = power[1];

  // Feedback: full-sprinting's measured latency is the reference (the
  // off-line profiling ran with the whole network powered), so its
  // adjusted time equals the base model; the sprint region's shorter
  // latency speeds the parallel portion up through comm_gamma.
  out.exec_full = perf.exec_time(workload, params.num_nodes(),
                                 out.full_latency, out.full_latency);
  out.exec_noc = perf.exec_time(workload, out.level, out.noc_latency,
                                out.full_latency);
  return out;
}

json::Value to_json(const CosimResult& r) {
  json::Value o = json::Value::object();
  o.set("level", r.level);
  o.set("full_latency", r.full_latency);
  o.set("full_noc_power", r.full_noc_power);
  o.set("full_saturated", r.full_saturated);
  o.set("noc_latency", r.noc_latency);
  o.set("noc_noc_power", r.noc_noc_power);
  o.set("noc_saturated", r.noc_saturated);
  o.set("exec_full", r.exec_full);
  o.set("exec_noc", r.exec_noc);
  return o;
}

CosimResult cosim_result_from_json(const json::Value& v) {
  CosimResult r;
  r.level = static_cast<int>(v.at("level").as_number());
  r.full_latency = v.at("full_latency").as_number();
  r.full_noc_power = v.at("full_noc_power").as_number();
  r.full_saturated = v.at("full_saturated").as_bool();
  r.noc_latency = v.at("noc_latency").as_number();
  r.noc_noc_power = v.at("noc_noc_power").as_number();
  r.noc_saturated = v.at("noc_saturated").as_bool();
  r.exec_full = v.at("exec_full").as_number();
  r.exec_noc = v.at("exec_noc").as_number();
  return r;
}

}  // namespace nocs::sprint
