#include "serve/protocol.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace nocs::serve {

namespace {

/// Hard ceiling on how many tasks one job may expand to; a request past
/// it is a client error, not an admission-control condition.
constexpr std::size_t kMaxTasksPerJob = 4096;

bool is_scalar(const json::Value& v) {
  return v.is_string() || v.is_number() || v.is_bool();
}

std::string dump_scalar(const json::Value& v) {
  if (v.is_string()) return v.as_string();
  if (v.is_bool()) return v.as_bool() ? "true" : "false";
  return json::format_number(v.as_number());
}

const char* priority_name(TaskPriority p) {
  switch (p) {
    case TaskPriority::kHigh: return "high";
    case TaskPriority::kLow: return "low";
    default: return "normal";
  }
}

}  // namespace

std::string fingerprint(const JobSpec& spec) {
  // Sorted keys make the fingerprint insensitive to client key order;
  // values go through the same shortest-round-trip formatter as reports,
  // so numerically identical numbers fingerprint identically.
  std::vector<std::pair<std::string, std::string>> kv;
  for (const auto& [key, value] : spec.params.members())
    kv.emplace_back(key, dump_scalar(value));
  std::sort(kv.begin(), kv.end());
  std::string fp = "serve:kind=" + spec.kind;
  for (const auto& [key, value] : kv) fp += ';' + key + '=' + value;
  return fp;
}

std::size_t task_count(const JobSpec& spec) {
  if (spec.kind == "selftest") {
    const json::Value* t = spec.params.find("tasks");
    if (t == nullptr) return 1;
    // Params arrive as JSON numbers or as numeric strings (the client
    // forwards command-line values verbatim); both are documented as
    // equivalent, so both must expand.
    if (t->is_number()) return static_cast<std::size_t>(t->as_number());
    if (t->is_string()) {
      const std::string& s = t->as_string();
      char* end = nullptr;
      const long long v = std::strtoll(s.c_str(), &end, 10);
      if (!s.empty() && end == s.c_str() + s.size() && v >= 0)
        return static_cast<std::size_t>(v);
    }
    throw std::invalid_argument("selftest 'tasks' must be a number");
  }
  return scenario_of(spec).task_count();
}

Config params_config(const JobSpec& spec) {
  Config cfg;
  for (const auto& [key, value] : spec.params.members())
    cfg.set(key, dump_scalar(value));
  return cfg;
}

sprint::Scenario scenario_of(const JobSpec& spec) {
  const Config cfg = params_config(spec);
  sprint::Scenario scenario = sprint::Scenario::from_config(spec.kind, cfg);
  cfg.reject_unknown();
  return scenario;
}

namespace {

/// Validates a submit's spec; returns an error string ("" = valid).
std::string validate_spec(const JobSpec& spec) {
  if (spec.kind != "simulate" && spec.kind != "sweep" &&
      spec.kind != "selftest")
    return "unknown kind '" + spec.kind +
           "' (simulate | sweep | selftest)";
  for (const auto& [key, value] : spec.params.members()) {
    if (key.empty()) return "params keys must be non-empty strings";
    if (!is_scalar(value))
      return "params values must be scalars (param '" + key + "' is not)";
  }
  try {
    const std::size_t tasks = task_count(spec);
    if (tasks == 0 || tasks > kMaxTasksPerJob)
      return "job expands to " + std::to_string(tasks) +
             " tasks (limit " + std::to_string(kMaxTasksPerJob) + ")";
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

}  // namespace

ParseResult parse_request(const std::string& line) {
  ParseResult out;
  json::Value doc;
  try {
    doc = json::Value::parse(line);
  } catch (const std::exception& e) {
    out.error = std::string("malformed JSON: ") + e.what();
    return out;
  }
  if (!doc.is_object()) {
    out.error = "request must be a JSON object";
    return out;
  }

  const json::Value* op = doc.find("op");
  if (op == nullptr || !op->is_string()) {
    out.error = "missing string field 'op'";
    return out;
  }
  Request& req = out.request;
  req.op = op->as_string();

  if (req.op == "submit") {
    const json::Value* kind = doc.find("kind");
    if (kind == nullptr || !kind->is_string()) {
      out.error = "submit requires a string field 'kind'";
      return out;
    }
    req.spec.kind = kind->as_string();
    if (const json::Value* params = doc.find("params")) {
      if (!params->is_object()) {
        out.error = "'params' must be an object";
        return out;
      }
      req.spec.params = *params;
    }
    if (const json::Value* pri = doc.find("priority")) {
      if (!pri->is_string()) {
        out.error = "'priority' must be \"high\" | \"normal\" | \"low\"";
        return out;
      }
      const std::string& name = pri->as_string();
      if (name == "high") req.spec.priority = TaskPriority::kHigh;
      else if (name == "normal") req.spec.priority = TaskPriority::kNormal;
      else if (name == "low") req.spec.priority = TaskPriority::kLow;
      else {
        out.error = "unknown priority '" + name + "'";
        return out;
      }
    }
    const std::string spec_error = validate_spec(req.spec);
    if (!spec_error.empty()) {
      out.error = spec_error;
      return out;
    }
  } else if (req.op == "job" || req.op == "wait" || req.op == "watch") {
    const json::Value* job = doc.find("job");
    if (job == nullptr || !job->is_string() || job->as_string().empty()) {
      out.error = "'" + req.op + "' requires a string field 'job'";
      return out;
    }
    req.job_id = job->as_string();
    if (const json::Value* t = doc.find("timeout_ms")) {
      if (!t->is_number() || t->as_number() < 0) {
        out.error = "'timeout_ms' must be a non-negative number";
        return out;
      }
      req.timeout_ms = static_cast<std::uint64_t>(t->as_number());
      req.has_timeout = true;
    }
    if (const json::Value* nw = doc.find("nowait")) {
      if (!nw->is_bool()) {
        out.error = "'nowait' must be a boolean";
        return out;
      }
      if (nw->as_bool()) {
        // Sugar for timeout_ms:0 — a true non-blocking poll.
        req.timeout_ms = 0;
        req.has_timeout = true;
      }
    }
    if (const json::Value* e = doc.find("every_ms")) {
      if (!e->is_number() || e->as_number() < 0) {
        out.error = "'every_ms' must be a non-negative number";
        return out;
      }
      req.every_ms = static_cast<std::uint64_t>(e->as_number());
    }
  } else if (req.op != "status" && req.op != "metrics" &&
             req.op != "drain" && req.op != "ping") {
    out.error =
        "unknown op '" + req.op +
        "' (submit | job | wait | watch | status | metrics | drain | ping)";
    return out;
  }

  out.ok = true;
  return out;
}

json::Value spec_to_json(const JobSpec& spec) {
  json::Value v = json::Value::object();
  v.set("kind", spec.kind);
  v.set("params", spec.params);
  v.set("priority", priority_name(spec.priority));
  return v;
}

JobSpec spec_from_json(const json::Value& v) {
  if (!v.is_object()) throw std::invalid_argument("spec must be an object");
  JobSpec spec;
  spec.kind = v.at("kind").as_string();
  if (const json::Value* params = v.find("params")) {
    if (!params->is_object())
      throw std::invalid_argument("spec params must be an object");
    spec.params = *params;
  }
  if (const json::Value* pri = v.find("priority")) {
    const std::string& name = pri->as_string();
    if (name == "high") spec.priority = TaskPriority::kHigh;
    else if (name == "normal") spec.priority = TaskPriority::kNormal;
    else if (name == "low") spec.priority = TaskPriority::kLow;
    else throw std::invalid_argument("unknown priority '" + name + "'");
  }
  const std::string error = validate_spec(spec);
  if (!error.empty()) throw std::invalid_argument(error);
  return spec;
}

json::Value ok_response() {
  json::Value v = json::Value::object();
  v.set("ok", true);
  return v;
}

json::Value error_response(int code, const std::string& message) {
  json::Value v = json::Value::object();
  v.set("ok", false);
  v.set("code", code);
  v.set("error", message);
  return v;
}

// priority_name is also needed by the scheduler's status dumps; expose it
// through a tiny accessor instead of duplicating the switch there.
std::string priority_to_string(TaskPriority p) { return priority_name(p); }

}  // namespace nocs::serve
