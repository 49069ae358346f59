// Write-ahead job ledger: the serve daemon's source of truth.
//
// Every state transition that must survive a crash is appended as one
// JSON record to a snapshot::RecordLog (checksummed, fsynced frames)
// *before* the transition is acknowledged to a client: `submit` before
// the accept reply, `task` after each task completes, `done`/`failed`
// when a job reaches a terminal state.  Startup replays the log: terminal
// jobs seed the result cache, non-terminal jobs are re-enqueued minus
// their already-recorded tasks — so a `kill -9` at any byte loses at most
// the record that was mid-append (the frame checksum catches it, and the
// record log truncates the damaged tail before new appends).
//
// Record types (all objects with a "type" field):
//   {"type":"open","magic":"nocs-serve-ledger","version":1}
//   {"type":"submit","job":"job-3","spec":{"kind":...,"params":{...},
//    "priority":"normal"},"fingerprint":"serve:..."}
//   {"type":"task","job":"job-3","task":2,"result":{...}}
//   {"type":"done","job":"job-3","result":{...}}
//   {"type":"failed","job":"job-3","error":"..."}
//
// Compaction.  The log grows by one record per completed task; a
// long-lived daemon would otherwise replay (and store) every task of
// every finished campaign forever.  compact() rewrites the file as a
// snapshot of live state — per job: the `submit` record, then either its
// terminal record (task records of finished jobs are dead weight) or its
// completed `task` records — through RecordLog::rewrite's tmp + rename
// (`<path>.compact.tmp`), so a kill -9 at any instant leaves either the
// complete old log or the complete new one.  Record payload bytes are
// copied verbatim, never re-serialized, so a replay after compaction is
// byte-identical to one before it.  With a threshold (`compact_bytes`),
// append() self-compacts when the file crosses it *and* has at least
// doubled since the last compaction (the regrowth guard keeps steady
// appends from turning every write into an O(file) rewrite).
#pragma once

#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/snapshot.hpp"

namespace nocs::serve {

/// Current ledger format version (the "open" record's `version`).
inline constexpr int kLedgerVersion = 1;

/// Append-only, checksummed, replayable record log with snapshot
/// compaction.
class Ledger {
 public:
  /// Opens (creating if absent) the ledger at `path` as a RecordLog:
  /// a damaged tail is truncated so the file is clean again.  Throws
  /// std::runtime_error when the file cannot be opened for appending or
  /// is not a serve ledger (its bytes are then left alone).  When the
  /// damaged-tail truncation itself fails the ledger opens read-only
  /// (`healthy() == false`): the valid prefix still replays, but every
  /// append is refused rather than buried after corrupt bytes.
  /// `compact_bytes` > 0 arms automatic compaction at that file size
  /// (0 = only explicit compact() calls).
  explicit Ledger(const std::string& path, std::uint64_t compact_bytes = 0);

  const std::string& path() const { return log_.path(); }

  /// Records replayed from disk at open (excluding the "open" header),
  /// in append order.  Unparseable-JSON records inside valid frames are
  /// skipped during the scan (logged), not fatal.
  const std::vector<json::Value>& replayed() const { return replayed_; }

  /// Hands the replayed records over, leaving none here: the scheduler
  /// reads them once at startup, and a daemon holding every replayed
  /// record for its whole life grows with the ledger it was opened on.
  std::vector<json::Value> take_replayed() {
    return std::exchange(replayed_, {});
  }

  /// True when the open-time scan found and truncated a damaged tail.
  bool truncated_on_open() const { return log_.truncated_on_open(); }

  /// False once the ledger has failed closed: the damaged tail could not
  /// be truncated at open, or an append suffered a short write.  An
  /// unhealthy ledger refuses all further appends (the daemon surfaces
  /// 503 on submit) because acknowledging work it cannot persist would
  /// silently break crash recovery.
  bool healthy() const;

  /// Appends one record and flushes it to the device before returning.
  /// Thread-safe.  Returns false (after logging) when the ledger is
  /// unhealthy or the write fails — a failed write marks the ledger
  /// unhealthy, since the file now ends in a torn frame.
  bool append(const json::Value& record);

  /// Rewrites the log as snapshot + tail (see the header comment).
  /// Thread-safe; returns false after logging when compaction cannot
  /// complete (the old log remains intact and appendable in that case,
  /// unless reopening after the rename failed — then the ledger fails
  /// closed).
  bool compact();

  /// Records appended by this process (not counting replayed ones).
  std::size_t appended_count() const;

  /// Current on-disk size in bytes (updated after every append/compact).
  std::uint64_t size_bytes() const;

  /// Number of completed compactions in this process lifetime.
  std::size_t compactions() const;

 private:
  bool compact_locked();

  mutable std::mutex mu_;
  snapshot::RecordLog log_;
  std::vector<json::Value> replayed_;
  std::size_t appended_ = 0;
  std::uint64_t compact_bytes_ = 0;
  std::uint64_t last_compacted_bytes_ = 0;
  std::size_t compactions_ = 0;
};

}  // namespace nocs::serve
