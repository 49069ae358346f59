#include "fault/fault_injector.hpp"

#include <algorithm>
#include <stdexcept>

namespace nocs::fault {

namespace {

std::vector<NodeId> parse_node_list(const std::string& s) {
  std::vector<NodeId> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok =
        s.substr(pos, comma == std::string::npos ? std::string::npos
                                                 : comma - pos);
    if (!tok.empty()) {
      std::size_t used = 0;
      const long v = std::stol(tok, &used);
      if (used != tok.size())
        throw std::invalid_argument("bad node id in fault_stuck: '" + tok +
                                    "'");
      out.push_back(static_cast<NodeId>(v));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

FaultParams FaultParams::from_config(const Config& cfg) {
  FaultParams p;
  p.enabled = cfg.get_bool("faults", false);
  p.seed = static_cast<std::uint64_t>(cfg.get_int("fault_seed", 1));
  p.flip_rate = cfg.get_double("fault_flip_rate", 0.0);
  p.drop_rate = cfg.get_double("fault_drop_rate", 0.0);
  p.link_down_rate = cfg.get_double("fault_link_down_rate", 0.0);
  p.link_down_cycles =
      static_cast<int>(cfg.get_int("fault_link_down_cycles", 100));
  p.wake_fail_prob = cfg.get_double("fault_wake_fail_prob", 0.0);
  p.wake_retry = static_cast<int>(cfg.get_int("fault_wake_retry", 50));
  p.wake_max_retries =
      static_cast<int>(cfg.get_int("fault_wake_max_retries", 20));
  p.stuck = parse_node_list(cfg.get_string("fault_stuck", ""));
  p.stuck_from = static_cast<Cycle>(cfg.get_int("fault_stuck_from", 0));
  p.ack_timeout = static_cast<int>(cfg.get_int("fault_ack_timeout", 256));
  p.max_backoff = static_cast<int>(cfg.get_int("fault_max_backoff", 4096));
  // Bad values are the user's error, not a broken contract: report them
  // as std::invalid_argument before validate() would abort on them.
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(what);
  };
  const auto probability = [](double x) { return x >= 0.0 && x <= 1.0; };
  require(probability(p.flip_rate) && probability(p.drop_rate) &&
              probability(p.link_down_rate) && probability(p.wake_fail_prob),
          "fault rates and probabilities must lie in [0, 1]");
  require(p.link_down_cycles >= 1 && p.wake_retry >= 1,
          "fault_link_down_cycles and fault_wake_retry must be >= 1");
  require(p.ack_timeout >= 1 && p.max_backoff >= p.ack_timeout,
          "fault_ack_timeout must be >= 1 and <= fault_max_backoff");
  p.validate();
  return p;
}

void FaultParams::validate() const {
  NOCS_EXPECTS(flip_rate >= 0.0 && flip_rate <= 1.0);
  NOCS_EXPECTS(drop_rate >= 0.0 && drop_rate <= 1.0);
  NOCS_EXPECTS(link_down_rate >= 0.0 && link_down_rate <= 1.0);
  NOCS_EXPECTS(link_down_cycles >= 1);
  NOCS_EXPECTS(wake_fail_prob >= 0.0 && wake_fail_prob <= 1.0);
  NOCS_EXPECTS(wake_retry >= 1);
  protection().validate();
}

FaultInjector::FaultInjector(const MeshShape& mesh, const FaultParams& params)
    : mesh_(mesh), params_(params) {
  params_.validate();
  const int n = mesh_.size();
  for (NodeId id : params_.stuck) {
    NOCS_EXPECTS(mesh_.valid(id));
    stuck_set_.insert(id);
  }
  // Stream families are spaced far apart in task_seed index space so the
  // per-entity streams never collide.
  flip_rngs_.reserve(static_cast<std::size_t>(n));
  drop_rngs_.reserve(static_cast<std::size_t>(n));
  wake_rngs_.reserve(static_cast<std::size_t>(n));
  for (NodeId id = 0; id < n; ++id) {
    const auto i = static_cast<std::uint64_t>(id);
    flip_rngs_.emplace_back(task_seed(params_.seed, 0x10000 + i));
    drop_rngs_.emplace_back(task_seed(params_.seed, 0x20000 + i));
    wake_rngs_.emplace_back(task_seed(params_.seed, 0x30000 + i));
  }
}

FaultInjector::LinkSchedule& FaultInjector::schedule_for(NodeId from,
                                                         NodeId to) {
  const std::uint64_t key = link_key(from, to);
  const std::lock_guard<std::mutex> lock(schedules_mu_);
  const auto it = link_schedules_.find(key);
  if (it != link_schedules_.end()) return it->second;
  return link_schedules_
      .emplace(key, LinkSchedule(task_seed(params_.seed, 0x40000 + key)))
      .first->second;
}

void FaultInjector::advance_schedule(LinkSchedule& s, Cycle now) {
  // Outages arrive with mean inter-arrival 1/rate; the uniform gap keeps
  // the schedule platform-independent (no libm calls).
  const auto mean_gap = static_cast<std::uint64_t>(
      std::max(1.0, 1.0 / params_.link_down_rate));
  while (s.down_end <= now) {
    const Cycle gap =
        1 + static_cast<Cycle>(s.rng.uniform_int(2 * mean_gap));
    s.down_start = s.down_end + gap;
    s.down_end = s.down_start + static_cast<Cycle>(params_.link_down_cycles);
  }
}

bool FaultInjector::link_down(NodeId from, NodeId to, Cycle now) {
  if (params_.link_down_rate <= 0.0) return false;
  LinkSchedule& s = schedule_for(from, to);
  advance_schedule(s, now);
  return s.down_start <= now && now < s.down_end;
}

bool FaultInjector::corrupt_link_flit(NodeId from, NodeId to, Cycle now) {
  // Traffic already committed to a down link crosses, but corrupted.
  if (link_down(from, to, now)) return true;
  if (params_.flip_rate <= 0.0) return false;
  return flip_rngs_[static_cast<std::size_t>(from)].bernoulli(
      params_.flip_rate);
}

bool FaultInjector::drop_packet(NodeId src, Cycle now) {
  (void)now;
  if (params_.drop_rate <= 0.0) return false;
  return drop_rngs_[static_cast<std::size_t>(src)].bernoulli(
      params_.drop_rate);
}

bool FaultInjector::wake_fails(NodeId node, int attempt, Cycle now) {
  (void)now;
  if (params_.wake_fail_prob <= 0.0) return false;
  // Force success after the retry budget so a wake-on-arrival router cannot
  // strand in-flight flits forever (a permanently dead node is modeled with
  // wake_max_retries < 0 instead).
  if (params_.wake_max_retries >= 0 && attempt > params_.wake_max_retries)
    return false;
  return wake_rngs_[static_cast<std::size_t>(node)].bernoulli(
      params_.wake_fail_prob);
}

bool FaultInjector::router_stuck(NodeId node, Cycle now) {
  return now >= params_.stuck_from && stuck_set_.count(node) != 0;
}

void FaultInjector::save_state(snapshot::Writer& w) const {
  w.begin_section("fault_injector");
  const auto save_rngs = [&w](const std::vector<Rng>& rngs) {
    w.i64(static_cast<std::int64_t>(rngs.size()));
    for (const Rng& rng : rngs)
      for (const std::uint64_t s : rng.state()) w.u64(s);
  };
  save_rngs(flip_rngs_);
  save_rngs(drop_rngs_);
  save_rngs(wake_rngs_);

  // unordered_map iteration order is not deterministic; serialize sorted
  // by link key so equal states produce byte-identical snapshots.
  std::vector<std::uint64_t> keys;
  keys.reserve(link_schedules_.size());
  for (const auto& [key, sched] : link_schedules_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  w.i64(static_cast<std::int64_t>(keys.size()));
  for (const std::uint64_t key : keys) {
    const LinkSchedule& s = link_schedules_.at(key);
    w.u64(key);
    for (const std::uint64_t st : s.rng.state()) w.u64(st);
    w.u64(s.down_start);
    w.u64(s.down_end);
  }
  w.end_section();
}

void FaultInjector::load_state(snapshot::Reader& r) {
  r.begin_section("fault_injector");
  const auto load_rngs = [&r](std::vector<Rng>& rngs) {
    const auto n = r.i64();
    if (n != static_cast<std::int64_t>(rngs.size()))
      throw snapshot::SnapshotError(
          "fault injector RNG pool size in checkpoint disagrees with the "
          "mesh size");
    for (Rng& rng : rngs) {
      std::array<std::uint64_t, 4> st{};
      for (auto& s : st) s = r.u64();
      rng.set_state(st);
    }
  };
  load_rngs(flip_rngs_);
  load_rngs(drop_rngs_);
  load_rngs(wake_rngs_);

  link_schedules_.clear();
  const auto num_links = r.i64();
  for (std::int64_t i = 0; i < num_links; ++i) {
    const std::uint64_t key = r.u64();
    LinkSchedule s(0);
    std::array<std::uint64_t, 4> st{};
    for (auto& v : st) v = r.u64();
    s.rng.set_state(st);
    s.down_start = r.u64();
    s.down_end = r.u64();
    link_schedules_.emplace(key, s);
  }
  r.end_section();
}

}  // namespace nocs::fault
