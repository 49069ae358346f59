#include "noc/simulator.hpp"

#include <algorithm>

#include "common/trace.hpp"

namespace nocs::noc {

namespace {

/// One per-window trace sample: in-flight packets, hot routers,
/// cumulative retransmissions, and per-router buffer occupancy.
void emit_trace_sample(const Network& net) {
  const double ts = static_cast<double>(net.now());
  const StatsCollector& s = net.stats();

  json::Value activity = json::Value::object();
  const auto generated = s.generated_packets();
  const auto ejected = s.ejected_packets();
  activity.set("in_flight",
               generated > ejected
                   ? static_cast<double>(generated - ejected)
                   : 0.0);
  activity.set("hot_routers", static_cast<double>(net.hot_routers()));
  trace::counter("network_activity", trace::kSimPid, ts, std::move(activity));

  json::Value retx = json::Value::object();
  retx.set("retransmissions",
           static_cast<double>(s.resilience().retransmissions));
  trace::counter("retransmissions", trace::kSimPid, ts, std::move(retx));

  // Per-router occupancy renders as one stacked counter track; cap the
  // series count so large meshes do not bloat the trace.
  if (net.num_nodes() <= 64) {
    json::Value occ = json::Value::object();
    for (NodeId id = 0; id < net.num_nodes(); ++id)
      occ.set("r" + std::to_string(id),
              static_cast<double>(net.router(id).buffered_flits()));
    trace::counter("router_occupancy", trace::kSimPid, ts, std::move(occ));
  }
}

}  // namespace

SimResults run_simulation(Network& net, const SimConfig& cfg) {
  return run_simulation(net, cfg, CheckpointConfig{});
}

SimResults run_simulation(Network& net, const SimConfig& cfg,
                          const CheckpointConfig& ckpt) {
  NOCS_EXPECTS(cfg.measure > 0);

  // Run progress through the warmup (0) / measure (1) / drain (2) state
  // machine.  All of it is serialized into checkpoints so a restored run
  // continues exactly where the saved one stopped.
  int phase = 0;
  Cycle done_in_phase = 0;
  Cycle drained_cycles = 0;
  bool hung = false;
  std::string diagnostic;
  std::uint64_t last_sig = 0;
  Cycle last_change = net.now();

  const bool restoring = !ckpt.restore_path.empty();
  if (!restoring) {
    net.reset_counters();
    net.stats().reset();
  }
  net.set_injection_rate(cfg.injection_rate);

  // Tracing is observational only: when no session is active every hook
  // below is a single predictable branch and the run takes the exact seed
  // code paths (bit-identical results).
  const bool tracing = trace::enabled();
  const Cycle sample_every =
      tracing && cfg.trace_sample > 0 ? cfg.trace_sample : 0;
  if (tracing) {
    trace::process_name(trace::kSimPid, "simulation (ts = cycles)");
    trace::process_name(trace::kHostPid, "host (ts = wall clock us)");
    trace::process_name(trace::kCtrlPid, "online controller (ts = bursts)");
  }

  // Livelock/deadlock watchdog: sample the flit-movement signature every
  // `poll` cycles; if it sits still for watchdog_cycles while flits are
  // still in flight, declare the run hung and capture a diagnostic.  With
  // watchdog_cycles == 0 and no tracing the phase chunks below reduce to
  // net.run(n) and the fault-free path is untouched.
  const Cycle poll =
      cfg.watchdog_cycles > 0
          ? std::max<Cycle>(1, std::min<Cycle>(cfg.watchdog_cycles / 4, 256))
          : 0;
  auto watchdog_check = [&]() {
    const std::uint64_t sig = net.progress_signature();
    if (sig != last_sig) {
      last_sig = sig;
      last_change = net.now();
    } else if (net.now() - last_change >= cfg.watchdog_cycles &&
               !net.drained()) {
      hung = true;
      diagnostic = net.debug_snapshot();
      if (tracing)
        trace::instant("watchdog_fired", "sim.fault", trace::kSimPid, 0,
                       static_cast<double>(net.now()));
    }
  };

  auto save_checkpoint = [&]() {
    snapshot::Writer w;
    // SimConfig echo: restoring under different phase lengths or load
    // would silently desynchronize the state machine, so restore verifies
    // this section against its own SimConfig.
    w.begin_section("config");
    w.u64(cfg.warmup);
    w.u64(cfg.measure);
    w.u64(cfg.drain_max);
    w.f64(cfg.injection_rate);
    w.u64(cfg.watchdog_cycles);
    w.end_section();
    w.begin_section("progress");
    w.i64(phase);
    w.u64(done_in_phase);
    w.u64(drained_cycles);
    w.b(hung);
    w.str(diagnostic);
    w.u64(last_sig);
    w.u64(last_change);
    w.end_section();
    net.save_state(w);
    w.i64(static_cast<std::int64_t>(ckpt.extras.size()));
    for (const auto& [name, comp] : ckpt.extras) {
      w.str(name);
      comp->save_state(w);
    }
    snapshot::save_file(ckpt.save_path, w);
  };

  if (restoring) {
    snapshot::Reader r = snapshot::load_file(ckpt.restore_path);
    r.begin_section("config");
    const bool config_ok =
        r.u64() == cfg.warmup && r.u64() == cfg.measure &&
        r.u64() == cfg.drain_max && r.f64() == cfg.injection_rate &&
        r.u64() == cfg.watchdog_cycles;
    if (!config_ok)
      throw snapshot::SnapshotError(
          "checkpoint was taken under a different SimConfig (warmup/"
          "measure/drain/injection/watchdog); refusing to resume");
    r.end_section();
    r.begin_section("progress");
    phase = static_cast<int>(r.i64());
    done_in_phase = r.u64();
    drained_cycles = r.u64();
    hung = r.b();
    diagnostic = r.str();
    last_sig = r.u64();
    last_change = r.u64();
    r.end_section();
    net.load_state(r);
    if (r.i64() != static_cast<std::int64_t>(ckpt.extras.size()))
      throw snapshot::SnapshotError(
          "checkpoint extra-component count disagrees with this run's "
          "CheckpointConfig");
    for (const auto& [name, comp] : ckpt.extras) {
      if (r.str() != name)
        throw snapshot::SnapshotError(
            "checkpoint extra-component order/name disagrees with this "
            "run's CheckpointConfig");
      comp->load_state(r);
    }
    if (r.remaining() != 0)
      throw snapshot::SnapshotError(
          "checkpoint has unread payload after all components");
  } else if (poll != 0) {
    last_sig = net.progress_signature();
  }

  auto run_chunk = [&](Cycle n) {
    if (poll == 0 && sample_every == 0) {
      net.run(n);
      return;
    }
    for (Cycle i = 0; i < n && !hung; ++i) {
      net.tick();
      if (poll != 0 && net.now() % poll == 0) watchdog_check();
      if (sample_every != 0 && net.now() % sample_every == 0)
        emit_trace_sample(net);
    }
  };

  const Cycle ckpt_every =
      !ckpt.save_path.empty() && ckpt.every > 0 ? ckpt.every : 0;
  bool interrupted = false;

  // Writes a periodic/stop checkpoint when the current cycle is a
  // boundary; returns true when the run must stop here.  Called only at
  // chunk boundaries, *after* phase transitions, so a snapshot taken
  // exactly at the end of warmup restores into the measure phase with the
  // measuring flag already on.
  auto checkpoint_boundary = [&]() {
    if (ckpt.on_progress) ckpt.on_progress(net.now());
    const bool stop_requested =
        ckpt.stop_flag != nullptr &&
        ckpt.stop_flag->load(std::memory_order_acquire);
    const bool at_stop =
        (ckpt.stop_at != 0 && net.now() >= ckpt.stop_at) || stop_requested;
    const bool at_period =
        ckpt_every != 0 && net.now() % ckpt_every == 0;
    if (!ckpt.save_path.empty() && (at_period || at_stop)) save_checkpoint();
    return at_stop;
  };

  const Cycle phase_lengths[2] = {cfg.warmup, cfg.measure};
  auto apply_transitions = [&]() {
    while (phase < 2 && done_in_phase >= phase_lengths[phase]) {
      const Cycle len = phase_lengths[phase];
      if (tracing)
        trace::complete(phase == 0 ? "warmup" : "measure", "sim.phase",
                        trace::kSimPid, 0,
                        static_cast<double>(net.now() - len),
                        static_cast<double>(len));
      net.stats().set_measuring(phase == 0);
      // Flit, credit and packet-record conservation are checked at every
      // phase boundary (and after the drain below) in every build: each is
      // O(buffers), once per phase.
      net.check_flit_conservation();
      net.check_credit_conservation();
      net.check_packet_records();
      done_in_phase -= len;
      ++phase;
    }
  };

  apply_transitions();  // cfg.warmup == 0, or restored at a boundary
  while (!hung && !interrupted && phase < 2) {
    Cycle stride = phase_lengths[phase] - done_in_phase;
    if (ckpt_every != 0)
      stride = std::min(stride, ckpt_every - net.now() % ckpt_every);
    if (ckpt.stop_at > net.now())
      stride = std::min(stride, ckpt.stop_at - net.now());
    // Keep chunks short enough that a stop request is noticed within a
    // few thousand cycles; re-chunking net.run() never changes results.
    if (ckpt.stop_flag != nullptr) stride = std::min<Cycle>(stride, 2048);
    const Cycle before = net.now();
    run_chunk(stride);
    done_in_phase += net.now() - before;
    apply_transitions();
    if (checkpoint_boundary()) interrupted = true;
  }

  // Drain: keep injecting background (unmeasured) traffic so the network
  // stays under load while the tagged packets finish.
  if (!hung && !interrupted && phase == 2) {
    const Cycle drain_start = net.now() - drained_cycles;
    while (!net.stats().all_drained() && drained_cycles < cfg.drain_max &&
           !hung && !interrupted) {
      net.tick();
      ++drained_cycles;
      if (poll != 0 && net.now() % poll == 0) watchdog_check();
      if (sample_every != 0 && net.now() % sample_every == 0)
        emit_trace_sample(net);
      if (checkpoint_boundary()) interrupted = true;
    }
    if (tracing)
      trace::complete("drain", "sim.phase", trace::kSimPid, 0,
                      static_cast<double>(drain_start),
                      static_cast<double>(net.now() - drain_start));
    net.check_flit_conservation();
    net.check_credit_conservation();
    net.check_packet_records();
  }

  SimResults r;
  r.hung = hung;
  r.interrupted = interrupted;
  r.diagnostic = std::move(diagnostic);
  const StatsCollector& s = net.stats();
  r.avg_packet_latency = s.packet_latency().mean();
  r.avg_network_latency = s.network_latency().mean();
  r.p50_latency = s.latency_quantile(0.5);
  r.p99_latency = s.latency_quantile(0.99);
  r.avg_hops = s.hops().mean();
  r.packets_generated = s.generated_packets();
  r.packets_ejected = s.ejected_packets();
  // ejected_flits() counts only measurement-tagged flits (those generated
  // inside the measurement window), so the normalization base is the window
  // length: the drain phase merely lets tagged flits finish and offers no
  // additional tagged load.  Dividing by measure + drain understated
  // throughput whenever draining took a while (i.e. near saturation).
  const auto active = static_cast<double>(net.endpoints().size());
  r.accepted_rate = active > 0
                        ? static_cast<double>(s.ejected_flits()) /
                              (static_cast<double>(cfg.measure) * active)
                        : 0.0;
  r.saturated = !s.all_drained();
  r.histogram_saturated = s.histogram_saturated();
  r.max_packet_latency = s.packet_latency().max();
  // Cycles actually simulated by this run: full phases behind the current
  // one plus progress within it (equals warmup + measure + drained_cycles
  // for any run that reached the drain phase).
  r.cycles = phase == 0 ? done_in_phase
             : phase == 1 ? cfg.warmup + done_in_phase
                          : cfg.warmup + cfg.measure + drained_cycles;
  r.counters = net.total_counters();
  r.resilience = s.resilience();
  return r;
}

void SimResults::export_metrics(MetricsRegistry& reg) const {
  reg.gauge("sim.avg_packet_latency").set(avg_packet_latency);
  reg.gauge("sim.avg_network_latency").set(avg_network_latency);
  reg.gauge("sim.p50_latency").set(p50_latency);
  reg.gauge("sim.p99_latency").set(p99_latency);
  reg.gauge("sim.max_packet_latency").set(max_packet_latency);
  reg.gauge("sim.avg_hops").set(avg_hops);
  reg.gauge("sim.accepted_rate").set(accepted_rate);
  reg.counter("sim.packets_generated").set(packets_generated);
  reg.counter("sim.packets_ejected").set(packets_ejected);
  reg.counter("sim.cycles").set(cycles);
  reg.counter("sim.saturated").set(saturated ? 1 : 0);
  reg.counter("sim.histogram_saturated").set(histogram_saturated ? 1 : 0);
  reg.counter("sim.hung").set(hung ? 1 : 0);
  counters.export_metrics(reg);
  resilience.export_metrics(reg);
}

json::Value to_json(const SimResults& r) {
  json::Value o = json::Value::object();
  o.set("avg_packet_latency", r.avg_packet_latency);
  o.set("avg_network_latency", r.avg_network_latency);
  o.set("p50_latency", r.p50_latency);
  o.set("p99_latency", r.p99_latency);
  o.set("max_packet_latency", r.max_packet_latency);
  o.set("avg_hops", r.avg_hops);
  o.set("packets_generated", r.packets_generated);
  o.set("packets_ejected", r.packets_ejected);
  o.set("accepted_rate", r.accepted_rate);
  o.set("saturated", r.saturated);
  o.set("histogram_saturated", r.histogram_saturated);
  o.set("hung", r.hung);
  if (r.hung) o.set("diagnostic", r.diagnostic);
  o.set("interrupted", r.interrupted);
  o.set("cycles", r.cycles);

  json::Value c = json::Value::object();
  for (const auto& f : kRouterCounterFields)
    c.set(f.name, r.counters.*f.member);
  o.set("counters", std::move(c));

  json::Value res = json::Value::object();
  for (const auto& f : kResilienceCounterFields)
    res.set(f.name, r.resilience.*f.member);
  o.set("resilience", std::move(res));
  return o;
}

SimResults sim_results_from_json(const json::Value& v) {
  SimResults r;
  r.avg_packet_latency = v.at("avg_packet_latency").as_number();
  r.avg_network_latency = v.at("avg_network_latency").as_number();
  r.p50_latency = v.at("p50_latency").as_number();
  r.p99_latency = v.at("p99_latency").as_number();
  r.max_packet_latency = v.at("max_packet_latency").as_number();
  r.avg_hops = v.at("avg_hops").as_number();
  r.packets_generated =
      static_cast<std::uint64_t>(v.at("packets_generated").as_number());
  r.packets_ejected =
      static_cast<std::uint64_t>(v.at("packets_ejected").as_number());
  r.accepted_rate = v.at("accepted_rate").as_number();
  r.saturated = v.at("saturated").as_bool();
  r.histogram_saturated = v.at("histogram_saturated").as_bool();
  r.hung = v.at("hung").as_bool();
  if (const json::Value* d = v.find("diagnostic")) r.diagnostic = d->as_string();
  if (const json::Value* i = v.find("interrupted"))
    r.interrupted = i->as_bool();
  r.cycles = static_cast<Cycle>(v.at("cycles").as_number());

  const json::Value& c = v.at("counters");
  const auto u64_of = [](const json::Value& field) {
    return static_cast<std::uint64_t>(field.as_number());
  };
  for (const auto& f : kRouterCounterFields)
    r.counters.*f.member = u64_of(c.at(f.name));
  const json::Value& res = v.at("resilience");
  for (const auto& f : kResilienceCounterFields)
    r.resilience.*f.member = u64_of(res.at(f.name));
  return r;
}

}  // namespace nocs::noc
