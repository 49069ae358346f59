#include "sprint/scenario.hpp"

#include <cstdio>
#include <stdexcept>

#include "common/assert.hpp"
#include "common/rng.hpp"
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

Scenario Scenario::from_config(const std::string& kind, const Config& cfg) {
  Scenario s;
  if (kind == "simulate") s.kind_ = Kind::kSimulate;
  else if (kind == "sweep") s.kind_ = Kind::kSweep;
  else if (kind == "topo") s.kind_ = Kind::kTopo;
  else
    throw std::invalid_argument("unknown scenario kind '" + kind +
                                "' (simulate | sweep | topo)");

  s.params_ = network_params(cfg);
  if (s.kind_ == Kind::kTopo) {
    // topology= picks a generator (docs/TOPOLOGY.md); topology=file loads
    // the documented text format from topo_file=.
    const std::string topo = cfg.get_string("topology", "mesh");
    const int width = static_cast<int>(cfg.get_int("width", 4));
    const int height = static_cast<int>(cfg.get_int("height", 4));
    const int ring_skip = static_cast<int>(cfg.get_int("ring_skip", 4));
    s.topology_ =
        topo == "file"
            ? noc::Topology::from_file(cfg.get_string("topo_file", ""))
            : noc::Topology::make(topo, width, height, ring_skip);
    if (s.topology_->is_mesh()) {
      s.params_.width = s.topology_->mesh_shape().width();
      s.params_.height = s.topology_->mesh_shape().height();
    } else {
      // Only num_nodes() matters off the mesh; keep validate() happy.
      s.params_.width = s.topology_->num_nodes();
      s.params_.height = 1;
    }
    s.params_.validate();
  }
  const int num_nodes = s.params_.num_nodes();

  s.level_ = static_cast<int>(cfg.get_int("level", 4));
  require(s.level_ >= 2 && s.level_ <= num_nodes,
          "level must be in [2, " + std::to_string(num_nodes) + "]");
  if (s.kind_ == Kind::kSweep)
    s.rates_ = parse_rates(cfg.get_string("rates", "0.05:0.05:0.5"));
  s.traffic_ = cfg.get_string("traffic", "uniform");
  (void)noc::make_traffic(s.traffic_, s.level_);  // throws on a bad name
  s.seed_ = static_cast<std::uint64_t>(cfg.get_int("seed", 1));

  if (s.kind_ == Kind::kSimulate) {
    const std::string scheme = cfg.get_string("scheme", "noc");
    require(scheme == "noc" || scheme == "full", "scheme must be noc or full");
    if (scheme == "full") s.scheme_ = NetworkScheme::kFull;
    s.request_reply_ =
        cfg.get_bool("protocol", false) && s.params_.num_classes >= 2;
  }
  if (s.kind_ != Kind::kTopo)
    s.sim_threads_ = static_cast<int>(cfg.get_int("sim_threads", 0));

  if (s.kind_ == Kind::kSweep) {
    s.sim_.warmup = 1000;
    s.sim_.measure = 6000;
  } else {
    const long long warmup = cfg.get_int("warmup", 2000);
    const long long measure = cfg.get_int("measure", 10000);
    require(warmup >= 0 && measure >= 1,
            "warmup must be >= 0 and measure >= 1");
    s.sim_.warmup = static_cast<Cycle>(warmup);
    s.sim_.measure = static_cast<Cycle>(measure);
    s.sim_.injection_rate = cfg.get_double("injection", 0.1);
    require(s.sim_.injection_rate >= 0.0, "injection must be >= 0");
  }

  if (s.kind_ != Kind::kTopo) {
    s.faults_ = fault::FaultParams::from_config(cfg);
    for (NodeId id : s.faults_.stuck)
      require(id >= 0 && id < num_nodes,
              "fault_stuck node " + std::to_string(id) + " is off the mesh");
    const auto watchdog = static_cast<Cycle>(cfg.get_int("watchdog", 50000));
    if (s.faults_.enabled) s.sim_.watchdog_cycles = watchdog;
  }
  return s;
}

std::size_t Scenario::task_count() const {
  return kind_ == Kind::kSweep ? rates_.size() : 1;
}

const char* Scenario::kind_name() const {
  switch (kind_) {
    case Kind::kSweep: return "sweep";
    case Kind::kTopo: return "topo";
    default: return "simulate";
  }
}

json::Value Scenario::run_task(std::size_t i,
                               const noc::CheckpointConfig& ckpt,
                               TaskRun* run) const {
  NOCS_EXPECTS(i < task_count());
  TaskRun local;
  TaskRun& t = run != nullptr ? *run : local;
  noc::SimConfig sim = sim_;
  // A sweep point runs on its own network seeded per task, so the points
  // are identical for any worker count and completion order.
  std::uint64_t seed = seed_;
  if (kind_ == Kind::kSweep) {
    sim.injection_rate = rates_[i];
    seed = task_seed(seed_, i);
  }

  t.bundle = make_sprinting_network(
      params_,
      topology_ ? *topology_
                : noc::Topology::mesh(params_.width, params_.height),
      scheme_, level_, traffic_, seed);
  // Only the topo kind accepts graphs the user wrote; certify it before
  // the first tick.
  noc::DeadlockCheckResult deadlock;
  if (kind_ == Kind::kTopo) deadlock = require_deadlock_free(t.bundle, level_);
  noc::Network& net = *t.bundle.network;
  if (request_reply_) net.set_request_reply(1, 5);
  // Shards tick() across threads; results are bit-identical for any value
  // (0 defers to NOCS_SIM_THREADS, else serial).
  net.set_sim_threads(sim_threads_);

  // The fault injector's RNG streams are simulation state: they ride
  // along in every checkpoint as an extra snapshot component.
  noc::CheckpointConfig task_ckpt = ckpt;
  if (faults_.enabled) {
    t.injector = std::make_unique<fault::FaultInjector>(params_.shape(),
                                                        faults_);
    const noc::ProtectionParams prot = faults_.protection();
    net.enable_resilience(t.injector.get(), &prot);
    task_ckpt.extras.emplace_back("fault", t.injector.get());
  }

  t.results = noc::run_simulation(net, sim, task_ckpt);
  if (t.results.interrupted) return json::Value();
  t.power = power::estimate_noc_power(net, t.results.cycles);

  json::Value doc = noc::to_json(t.results);
  switch (kind_) {
    case Kind::kSimulate:
      doc.set("scheme", scheme_ == NetworkScheme::kFull ? "full" : "noc");
      doc.set("level", level_);
      doc.set("traffic", traffic_);
      doc.set("injection_rate", sim.injection_rate);
      doc.set("seed", seed_);
      doc.set("power", power_json(t.power));
      break;
    case Kind::kSweep:
      doc.set("injection_rate", sim.injection_rate);
      break;
    case Kind::kTopo:
      doc.set("topology", topology_->kind());
      doc.set("level", level_);
      doc.set("traffic", traffic_);
      doc.set("injection_rate", sim.injection_rate);
      doc.set("seed", seed_);
      doc.set("topology_fingerprint", topology_->fingerprint());
      doc.set("deadlock_channels", deadlock.channels_used);
      doc.set("deadlock_dependencies", deadlock.dependencies);
      break;
  }
  return doc;
}

json::Value Scenario::aggregate(const std::vector<json::Value>& results,
                                const char* label) const {
  NOCS_EXPECTS(results.size() == task_count());
  json::Value doc = json::Value::object();
  if (kind_ == Kind::kSweep) {
    if (label != nullptr) doc.set(label, kind_name());
    doc.set("level", level_);
    doc.set("traffic", traffic_);
    doc.set("seed", seed_);
    json::Value points = json::Value::array();
    for (const json::Value& r : results) points.push_back(r);
    doc.set("points", std::move(points));
    return doc;
  }
  // A single run's result leads with its SimResults fields; the label
  // goes right before the scenario keys that follow them.
  const std::string first = kind_ == Kind::kTopo ? "topology" : "scheme";
  for (const auto& [key, value] : results.front().members()) {
    if (label != nullptr && key == first) doc.set(label, kind_name());
    doc.set(key, value);
  }
  return doc;
}

}  // namespace nocs::sprint
