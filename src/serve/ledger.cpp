#include "serve/ledger.hpp"

#include <map>
#include <string>
#include <vector>

#include "common/log.hpp"

namespace nocs::serve {

namespace {

json::Value ledger_header() {
  json::Value open = json::Value::object();
  open.set("type", "open");
  open.set("magic", "nocs-serve-ledger");
  open.set("version", kLedgerVersion);
  return open;
}

}  // namespace

Ledger::Ledger(const std::string& path, std::uint64_t compact_bytes)
    : log_(path, ledger_header()),
      replayed_(log_.take_records()),
      compact_bytes_(compact_bytes) {}

bool Ledger::healthy() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return log_.healthy();
}

bool Ledger::append(const json::Value& record) {
  const std::string text = record.dump();
  const std::lock_guard<std::mutex> lock(mu_);
  if (!log_.append(text)) return false;
  ++appended_;
  const std::uint64_t size = log_.size_bytes();
  if (compact_bytes_ > 0 && size >= compact_bytes_ &&
      size >= 2 * last_compacted_bytes_)
    compact_locked();  // best effort: failure keeps the intact old log
  return true;
}

bool Ledger::compact() {
  const std::lock_guard<std::mutex> lock(mu_);
  return compact_locked();
}

// Snapshot + tail rewrite.  Payload bytes are copied verbatim (records
// are classified by parsing, but the original frames are re-written
// byte-for-byte), so replay semantics — including the first-record-wins
// rule for duplicate task indices — are exactly preserved.
bool Ledger::compact_locked() {
  if (!log_.healthy()) return false;
  const snapshot::RecordScan scan = snapshot::scan_records(log_.path());
  if (scan.damaged) {
    // append() fsyncs every frame, so a damaged tail mid-life means the
    // device is lying or failing; rewriting on top of that would risk
    // the one good copy.
    log_message(LogLevel::kError,
                "ledger: %s scan found damage during compaction (%s); "
                "leaving the log as-is",
                log_.path().c_str(), scan.damage.c_str());
    return false;
  }
  if (scan.records.empty()) return false;  // no header: nothing to rewrite

  using Bytes = snapshot::RecordLog::Bytes;
  struct Group {
    const Bytes* submit = nullptr;
    const Bytes* terminal = nullptr;
    std::map<std::uint64_t, const Bytes*> tasks;  // first record wins
  };
  std::vector<std::string> order;          // jobs in first-submit order
  std::map<std::string, Group> groups;
  std::vector<const Bytes*> misc;          // anything we cannot classify

  for (std::size_t i = 1; i < scan.records.size(); ++i) {  // 0 = header
    const Bytes& bytes = scan.records[i];
    json::Value rec;
    try {
      rec = json::Value::parse(std::string(bytes.begin(), bytes.end()));
    } catch (const std::exception&) {
      misc.push_back(&bytes);
      continue;
    }
    const json::Value* type = rec.find("type");
    const json::Value* jobf = rec.find("job");
    const std::string t =
        type != nullptr && type->is_string() ? type->as_string() : "";
    if (jobf == nullptr || !jobf->is_string() ||
        (t != "submit" && t != "task" && t != "done" && t != "failed")) {
      misc.push_back(&bytes);
      continue;
    }
    Group& g = groups[jobf->as_string()];
    if (t == "submit") {
      if (g.submit == nullptr) {
        g.submit = &bytes;
        order.push_back(jobf->as_string());
      }
    } else if (t == "task") {
      const json::Value* idx = rec.find("task");
      if (idx == nullptr || !idx->is_number()) {
        misc.push_back(&bytes);
        continue;
      }
      g.tasks.emplace(static_cast<std::uint64_t>(idx->as_number()), &bytes);
    } else {
      if (g.terminal == nullptr) g.terminal = &bytes;
    }
  }

  std::vector<const Bytes*> out = {&scan.records[0]};  // the header
  for (const std::string& id : order) {
    const Group& g = groups.at(id);
    out.push_back(g.submit);
    if (g.terminal != nullptr) {
      // Finished job: its per-task records are dead weight — the replay
      // only needs the terminal result to seed the cache.
      out.push_back(g.terminal);
    } else {
      for (const auto& [index, bytes] : g.tasks) out.push_back(bytes);
    }
  }
  // Task/terminal records whose job has no submit record are unreplayable
  // either way; groups without a submit only arise from hand-damaged
  // logs.  Preserve their bytes at the tail rather than dropping data.
  for (const auto& [id, g] : groups) {
    if (g.submit != nullptr) continue;
    if (g.terminal != nullptr) out.push_back(g.terminal);
    for (const auto& [index, bytes] : g.tasks) out.push_back(bytes);
  }
  out.insert(out.end(), misc.begin(), misc.end());

  const std::uint64_t before = log_.size_bytes();
  if (!log_.rewrite(out)) return false;
  last_compacted_bytes_ = log_.size_bytes();
  ++compactions_;
  log_message(LogLevel::kInfo,
              "ledger: compacted %s (%llu -> %llu bytes, %zu job(s))",
              log_.path().c_str(), static_cast<unsigned long long>(before),
              static_cast<unsigned long long>(last_compacted_bytes_),
              order.size());
  return true;
}

std::size_t Ledger::appended_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return appended_;
}

std::uint64_t Ledger::size_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return log_.size_bytes();
}

std::size_t Ledger::compactions() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return compactions_;
}

}  // namespace nocs::serve
