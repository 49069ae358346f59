#include "sprint/scenario.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "noc/traffic.hpp"

namespace nocs::sprint {

namespace {

void require(bool ok, const std::string& what) {
  if (!ok) throw std::invalid_argument(what);
}

/// Router geometry keys shared by every kind.
noc::NetworkParams network_params(const Config& cfg) {
  noc::NetworkParams p;
  p.num_classes = static_cast<int>(cfg.get_int("classes", 1));
  p.pipeline_stages = static_cast<int>(cfg.get_int("pipeline", 5));
  require(p.num_classes >= 1 && p.num_vcs % p.num_classes == 0,
          "classes must divide the " + std::to_string(p.num_vcs) +
              " virtual channels");
  require(p.pipeline_stages == 3 || p.pipeline_stages == 5,
          "pipeline must be 3 or 5");
  p.validate();
  return p;
}

json::Value power_json(const power::NocPowerEstimate& p) {
  json::Value pw = json::Value::object();
  pw.set("total_mw", p.total() * 1e3);
  pw.set("routers_mw", p.routers.total() * 1e3);
  pw.set("links_mw", (p.link_dynamic + p.link_leakage) * 1e3);
  return pw;
}

}  // namespace

std::vector<double> parse_rates(const std::string& spec) {
  double start = 0, step = 0, end = 0;
  if (std::sscanf(spec.c_str(), "%lf:%lf:%lf", &start, &step, &end) != 3)
    throw std::invalid_argument("rates must be start:step:end");
  if (!(step > 0) || !(start > 0) || end < start)
    throw std::invalid_argument(
        "rates must satisfy start > 0, step > 0, end >= start");
  std::vector<double> rates;
  for (double r = start; r <= end + 1e-12; r += step) {
    rates.push_back(r);
    if (rates.size() > kMaxSweepPoints)
      throw std::invalid_argument("rates expand to too many points");
  }
  return rates;
}

Scenario::Scenario(DesignPoint point, std::vector<double> rates)
    : point_(std::move(point)), rates_(std::move(rates)) {
  NOCS_EXPECTS(!sweep() || !point_.topology);
}

Scenario Scenario::from_config(const std::string& kind, const Config& cfg) {
  if (kind != "simulate" && kind != "sweep" && kind != "topo")
    throw std::invalid_argument("unknown scenario kind '" + kind +
                                "' (simulate | sweep | topo)");
  DesignPoint p;
  p.params = network_params(cfg);
  if (kind == "topo") {
    // topology= picks a generator (docs/TOPOLOGY.md); topology=file loads
    // the documented text format from topo_file=.
    const std::string topo = cfg.get_string("topology", "mesh");
    const int width = static_cast<int>(cfg.get_int("width", 4));
    const int height = static_cast<int>(cfg.get_int("height", 4));
    const int ring_skip = static_cast<int>(cfg.get_int("ring_skip", 4));
    p.topology =
        topo == "file"
            ? noc::Topology::from_file(cfg.get_string("topo_file", ""))
            : noc::Topology::make(topo, width, height, ring_skip);
    if (p.topology->is_mesh()) {
      p.params.width = p.topology->mesh_shape().width();
      p.params.height = p.topology->mesh_shape().height();
    } else {
      // Only num_nodes() matters off the mesh; keep validate() happy.
      p.params.width = p.topology->num_nodes();
      p.params.height = 1;
    }
    p.params.validate();
  }
  const int num_nodes = p.params.num_nodes();

  p.level = static_cast<int>(cfg.get_int("level", 4));
  require(p.level >= 2 && p.level <= num_nodes,
          "level must be in [2, " + std::to_string(num_nodes) + "]");
  std::vector<double> rates;
  if (kind == "sweep")
    rates = parse_rates(cfg.get_string("rates", "0.05:0.05:0.5"));
  p.traffic = cfg.get_string("traffic", "uniform");
  (void)noc::make_traffic(p.traffic, p.level);  // throws on a bad name
  p.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));

  if (kind == "simulate") {
    const std::string scheme = cfg.get_string("scheme", "noc");
    require(scheme == "noc" || scheme == "full", "scheme must be noc or full");
    if (scheme == "full") p.scheme = NetworkScheme::kFull;
    p.request_reply =
        cfg.get_bool("protocol", false) && p.params.num_classes >= 2;
  }
  if (kind != "topo")
    p.sim_threads = static_cast<int>(cfg.get_int("sim_threads", 0));

  if (kind == "sweep") {
    p.sim.warmup = 1000;
    p.sim.measure = 6000;
  } else {
    const long long warmup = cfg.get_int("warmup", 2000);
    const long long measure = cfg.get_int("measure", 10000);
    require(warmup >= 0 && measure >= 1,
            "warmup must be >= 0 and measure >= 1");
    p.sim.warmup = static_cast<Cycle>(warmup);
    p.sim.measure = static_cast<Cycle>(measure);
    p.sim.injection_rate = cfg.get_double("injection", 0.1);
    require(p.sim.injection_rate >= 0.0, "injection must be >= 0");
  }

  if (kind != "topo") {
    p.faults = fault::FaultParams::from_config(cfg);
    for (NodeId id : p.faults.stuck)
      require(id >= 0 && id < num_nodes,
              "fault_stuck node " + std::to_string(id) + " is off the mesh");
    const auto watchdog = static_cast<Cycle>(cfg.get_int("watchdog", 50000));
    if (p.faults.enabled) p.sim.watchdog_cycles = watchdog;
  }
  return Scenario(std::move(p), std::move(rates));
}

std::size_t Scenario::task_count() const {
  return sweep() ? rates_.size() : 1;
}

std::string Scenario::fingerprint() const {
  std::string text = kind_name();
  const auto add = [&text](const char* key, const std::string& value) {
    text += ';';
    text += key;
    text += '=';
    text += value;
  };
  const auto num = [](double v) { return json::format_number(v); };
  const noc::NetworkParams& p = point_.params;
  for (const auto& [key, value] :
       {std::pair{"width", p.width}, {"height", p.height},
        {"vcs", p.num_vcs}, {"vc_depth", p.vc_depth},
        {"packet_length", p.packet_length}, {"flit_bytes", p.flit_bytes},
        {"link_latency", p.link_latency},
        {"wakeup_latency", p.wakeup_latency},
        {"gate_idle", p.gate_idle_threshold},
        {"pipeline", p.pipeline_stages}, {"classes", p.num_classes}})
    add(key, std::to_string(value));
  if (point_.topology)
    add("topology", std::to_string(point_.topology->fingerprint()));
  add("scheme", point_.scheme == NetworkScheme::kFull ? "full" : "noc");
  add("level", std::to_string(point_.level));
  add("traffic", point_.traffic);
  add("seed", std::to_string(point_.seed));
  add("protocol", point_.request_reply ? "1" : "0");
  const noc::SimConfig& sim = point_.sim;
  add("warmup", std::to_string(sim.warmup));
  add("measure", std::to_string(sim.measure));
  add("drain_max", std::to_string(sim.drain_max));
  add("injection", num(sim.injection_rate));
  add("watchdog", std::to_string(sim.watchdog_cycles));
  const fault::FaultParams& f = point_.faults;
  add("faults", f.enabled ? "1" : "0");
  if (f.enabled) {
    add("fault_seed", std::to_string(f.seed));
    add("flip", num(f.flip_rate));
    add("drop", num(f.drop_rate));
    add("link_down", num(f.link_down_rate));
    add("link_down_cycles", std::to_string(f.link_down_cycles));
    add("wake_fail", num(f.wake_fail_prob));
    add("wake_retry", std::to_string(f.wake_retry));
    add("wake_max_retries", std::to_string(f.wake_max_retries));
    std::string stuck;
    for (const NodeId id : f.stuck) stuck += std::to_string(id) + ',';
    add("stuck", stuck);
    add("stuck_from", std::to_string(f.stuck_from));
    add("ack_timeout", std::to_string(f.ack_timeout));
    add("max_backoff", std::to_string(f.max_backoff));
  }
  std::string rates;
  for (const double r : rates_) rates += num(r) + ',';
  add("rates", rates);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(snapshot::fnv1a(
                    reinterpret_cast<const std::uint8_t*>(text.data()),
                    text.size())));
  return std::string("scenario:") + hex;
}

const char* Scenario::kind_name() const {
  if (sweep()) return "sweep";
  return point_.topology ? "topo" : "simulate";
}

TaskRun run_point(const DesignPoint& point,
                  const noc::CheckpointConfig& ckpt) {
  TaskRun t;
  const noc::NetworkParams& params = point.params;
  t.bundle = make_sprinting_network(
      params,
      point.topology ? *point.topology
                     : noc::Topology::mesh(params.width, params.height),
      point.scheme, point.level, point.traffic, point.seed);
  // Only a named graph may be one the user wrote; certify it before the
  // first tick.
  if (point.topology) t.deadlock = require_deadlock_free(t.bundle, point.level);
  noc::Network& net = *t.bundle.network;
  if (point.request_reply) net.set_request_reply(1, 5);
  net.set_sim_threads(point.sim_threads);

  // The fault injector's RNG streams are simulation state: they ride
  // along in every checkpoint as an extra snapshot component.
  noc::CheckpointConfig task_ckpt = ckpt;
  if (point.faults.enabled) {
    t.injector = std::make_unique<fault::FaultInjector>(params.shape(),
                                                        point.faults);
    const noc::ProtectionParams prot = point.faults.protection();
    net.enable_resilience(t.injector.get(), &prot);
    task_ckpt.extras.emplace_back("fault", t.injector.get());
  }

  t.results = noc::run_simulation(net, point.sim, task_ckpt);
  if (!t.results.interrupted)
    t.power = power::estimate_noc_power(net, t.results.cycles);
  return t;
}

DesignPoint Scenario::point(std::size_t i) const {
  NOCS_EXPECTS(i < task_count());
  DesignPoint p = point_;
  if (sweep()) {
    p.sim.injection_rate = rates_[i];
    p.seed = task_seed(point_.seed, i);
  }
  return p;
}

json::Value Scenario::run_task(std::size_t i,
                               const noc::CheckpointConfig& ckpt,
                               TaskRun* run) const {
  const DesignPoint p = point(i);
  TaskRun t = run_point(p, ckpt);
  json::Value doc;
  if (!t.results.interrupted) {
    doc = noc::to_json(t.results);
    if (sweep()) {
      doc.set("injection_rate", p.sim.injection_rate);
    } else if (p.topology) {
      doc.set("topology", p.topology->kind());
      doc.set("level", p.level);
      doc.set("traffic", p.traffic);
      doc.set("injection_rate", p.sim.injection_rate);
      doc.set("seed", p.seed);
      doc.set("topology_fingerprint", p.topology->fingerprint());
      doc.set("deadlock_channels", t.deadlock.channels_used);
      doc.set("deadlock_dependencies", t.deadlock.dependencies);
    } else {
      doc.set("scheme", p.scheme == NetworkScheme::kFull ? "full" : "noc");
      doc.set("level", p.level);
      doc.set("traffic", p.traffic);
      doc.set("injection_rate", p.sim.injection_rate);
      doc.set("seed", p.seed);
      doc.set("power", power_json(t.power));
    }
  }
  if (run != nullptr) *run = std::move(t);
  return doc;
}

json::Value Scenario::aggregate(const std::vector<json::Value>& results,
                                const char* label) const {
  NOCS_EXPECTS(results.size() == task_count());
  json::Value doc = json::Value::object();
  if (sweep()) {
    if (label != nullptr) doc.set(label, kind_name());
    doc.set("level", point_.level);
    doc.set("traffic", point_.traffic);
    doc.set("seed", point_.seed);
    json::Value points = json::Value::array();
    for (const json::Value& r : results) points.push_back(r);
    doc.set("points", std::move(points));
    return doc;
  }
  // A single run's result leads with its SimResults fields; the label
  // goes right before the scenario keys that follow them.
  const std::string first = point_.topology ? "topology" : "scheme";
  for (const auto& [key, value] : results.front().members()) {
    if (label != nullptr && key == first) doc.set(label, kind_name());
    doc.set(key, value);
  }
  return doc;
}

}  // namespace nocs::sprint
