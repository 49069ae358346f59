// Wire protocol of the sprint-as-a-service daemon (`mode=serve`).
//
// Transport is line-delimited JSON over a byte stream: every request is
// one JSON object on one line, every reply is one JSON object on one
// line, in order.  The full schema (ops, error codes, examples) is
// specified in docs/SERVE.md.
//
// This header is transport-free on purpose: parse_request consumes a
// string and never throws, so the parser can be fuzzed directly
// (tests/test_fuzz) and the server loop treats any malformed line as a
// well-formed error reply rather than a crash.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "sprint/scenario.hpp"

namespace nocs::serve {

/// Error codes carried in `{"ok": false, "code": N}` replies.  Numbers
/// deliberately mirror HTTP so operators need no legend: 400 bad request,
/// 404 unknown job, 429 admission control, 503 draining.
inline constexpr int kCodeBadRequest = 400;
inline constexpr int kCodeNotFound = 404;
inline constexpr int kCodeRejected = 429;
inline constexpr int kCodeDraining = 503;

/// One job as submitted by a client: what to run and how urgently.
struct JobSpec {
  /// `simulate` (one cycle-accurate run), `sweep` (one task per injection
  /// rate), or `selftest` (scheduler exercise: cheap, no simulator).
  std::string kind;
  /// Flat object of scalar parameters (the same keys the CLI's batch
  /// mode of the same name accepts; see docs/SERVE.md).
  json::Value params = json::Value::object();
  TaskPriority priority = TaskPriority::kNormal;
};

/// Canonical fingerprint of a spec: kind + params with sorted keys,
/// compact-dumped.  Two requests that differ only in key order or
/// priority share a fingerprint — priority changes scheduling, never
/// results — so the result cache and the ledger replay both key on it.
std::string fingerprint(const JobSpec& spec);

/// Number of tasks the job expands to (the scenario's task count: one
/// per rate for a sweep; `tasks=` for selftest).  Specs that reach here
/// have passed validation, so this never throws.
std::size_t task_count(const JobSpec& spec);

/// The spec's params as a Config (the typed accessor layer the runners
/// share with the CLI batch modes).
Config params_config(const JobSpec& spec);

/// The sprint::Scenario a `simulate` or `sweep` spec describes, parsed
/// from exactly the keys the CLI's mode of the same name accepts.  Throws
/// std::invalid_argument on a bad value or an unknown key.
sprint::Scenario scenario_of(const JobSpec& spec);

/// One parsed client request.
struct Request {
  /// `submit` | `job` | `wait` | `watch` | `status` | `metrics` |
  /// `drain` | `ping`.
  std::string op;
  JobSpec spec;              ///< submit only
  std::string job_id;        ///< job/wait/watch
  /// wait only.  Meaningful when has_timeout: 0 is an immediate
  /// non-blocking poll, N > 0 blocks up to N ms.  Without has_timeout
  /// the server default applies.
  std::uint64_t timeout_ms = 0;
  bool has_timeout = false;  ///< wait: `timeout_ms` was present on the wire
  /// watch only: requested progress-frame interval (0 = server default;
  /// the server clamps it up to `serve_progress_every_ms`).
  std::uint64_t every_ms = 0;
};

/// parse_request outcome: either a request or a client-facing error.
struct ParseResult {
  bool ok = false;
  Request request;
  std::string error;  ///< set when !ok; safe to echo to the client
};

/// Parses and validates one wire line.  Never throws: every malformed
/// input (bad JSON, wrong types, unknown op/kind/priority, nested params,
/// out-of-range rates/tasks) comes back as an error string.
ParseResult parse_request(const std::string& line);

/// A spec as stored in ledger `submit` records:
/// {"kind":...,"params":{...},"priority":"normal"}.
json::Value spec_to_json(const JobSpec& spec);

/// Inverse of spec_to_json, with the same validation submit applies on the
/// wire.  Throws std::invalid_argument on a malformed or invalid object —
/// a ledger from a newer format version must not replay as garbage.
JobSpec spec_from_json(const json::Value& v);

/// Reply builders (one-line compact dumps are the caller's job).
json::Value ok_response();
json::Value error_response(int code, const std::string& message);

/// "high" | "normal" | "low" (status dumps and client echoes).
std::string priority_to_string(TaskPriority p);

}  // namespace nocs::serve
