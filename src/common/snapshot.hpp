// Versioned, deterministic binary serialization for checkpoint/restore.
//
// A snapshot file is a fixed little-endian header (magic "NOCSNAP1",
// format version, payload length, FNV-1a checksum of the payload) followed
// by a flat byte payload produced by Writer and consumed by Reader.  The
// payload is organized into named, length-prefixed sections so a loader
// can verify it is reading the component it expects and so corruption
// never turns into silent misinterpretation — every decode error throws
// SnapshotError.  Files are written atomically (tmp file + rename), which
// makes periodic autosave safe against being killed mid-write.  The format
// is documented in docs/SNAPSHOT_FORMAT.md.
//
// RecordLog is the one crash-safe append-only log: checksummed record
// frames, fsynced one at a time, a torn tail truncated on open.  The serve
// daemon's job ledger and the companion TaskManifest (the sweep-level
// resume mechanism: one record per finished task) both sit on it, so an
// interrupted campaign restarts from the last finished task instead of
// from zero.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace nocs::snapshot {

/// Current snapshot format version.  Bump on any incompatible payload
/// change; load_file rejects files whose version differs (the compat
/// policy, per docs/SNAPSHOT_FORMAT.md, is exact-match — checkpoints are
/// short-lived artifacts of one experiment campaign, not archives).
inline constexpr std::uint32_t kFormatVersion = 3;

/// Magic bytes opening every snapshot file.
inline constexpr char kMagic[8] = {'N', 'O', 'C', 'S', 'N', 'A', 'P', '1'};

/// Thrown on any malformed, truncated, corrupted, or mismatched snapshot.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error(what) {}
};

/// FNV-1a 64-bit hash (the payload checksum).
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size);

/// Appends typed values to a flat little-endian byte buffer.  Sections
/// frame component payloads: begin_section writes the name and reserves a
/// length slot that end_section patches, so Reader can verify both the
/// component identity and that the component consumed exactly its bytes.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  void f64(double v);  ///< bit pattern, exact round-trip
  void str(const std::string& s);

  void begin_section(const std::string& name);
  void end_section();

  const std::vector<std::uint8_t>& bytes() const { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::vector<std::size_t> open_;  ///< offsets of unpatched length slots
};

/// Decodes a Writer payload; throws SnapshotError on underflow or on a
/// section-name/length mismatch instead of returning garbage.
class Reader {
 public:
  explicit Reader(std::vector<std::uint8_t> bytes)
      : buf_(std::move(bytes)) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  /// i64() of a field that must lie in [lo, hi]; otherwise throws
  /// "<owner> <field> in checkpoint is out of range".
  std::int64_t i64_in(std::int64_t lo, std::int64_t hi, const char* owner,
                      const char* field);
  bool b() { return u8() != 0; }
  double f64();
  std::string str();

  /// Enters the section that must come next; throws when the name differs.
  void begin_section(const std::string& name);
  /// Leaves the innermost section; throws when the bytes consumed do not
  /// match the recorded section length.
  void end_section();

  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  void need(std::size_t n) const;

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  std::vector<std::size_t> ends_;  ///< expected end offsets of open sections
};

/// A component that can serialize its dynamic state.  Configuration
/// (topology, rates, wiring) is *not* serialized — the caller reconstructs
/// the component from the same configuration, then load_state restores the
/// dynamic state on top.
class Serializable {
 public:
  virtual ~Serializable() = default;
  virtual void save_state(Writer& w) const = 0;
  virtual void load_state(Reader& r) = 0;
};

/// Writes header + payload to `path` atomically (path.tmp, fsync-free
/// rename).  Returns false after logging to stderr when the file cannot
/// be written.
bool save_file(const std::string& path, const Writer& w);

// --- append-only record log -------------------------------------------------
//
// The framing under RecordLog (the serve daemon's job ledger and the
// sweep task manifests): each record is `magic u32 | payload length u64 |
// FNV-1a-64 checksum u64 | payload bytes`, appended and flushed/fsynced
// one record at a time.  A process killed mid-append leaves a truncated
// or garbage tail; scan_records recovers the valid prefix and reports the
// damage instead of failing the whole log, so replay after `kill -9`
// loses at most the record that was being written.

/// Magic opening every log record ("NSRL", little-endian).
inline constexpr std::uint32_t kRecordMagic = 0x4C52534Eu;

/// Appends one framed record to an open (binary, append-mode) stream and
/// flushes it through to the kernel (fflush + fsync).  Returns false on a
/// short write.
bool append_record(std::FILE* f, const std::uint8_t* data, std::size_t size);

/// Result of scanning a record log.
struct RecordScan {
  std::vector<std::vector<std::uint8_t>> records;  ///< valid prefix, in order
  /// Byte length of the valid prefix; truncating the file here makes it
  /// clean again (appending after garbage would hide it mid-file).
  std::size_t valid_bytes = 0;
  bool damaged = false;   ///< a truncated/corrupt tail was dropped
  /// The file does not begin with a record frame (or a prefix of one):
  /// it is no record log at all, so nothing in it is a torn tail.
  bool foreign = false;
  std::string damage;     ///< human-readable description when `damaged`
};

/// Reads every valid record from the head of `path`.  A missing file is
/// an empty, undamaged scan (first start); truncation, a checksum
/// mismatch, or foreign bytes end the scan at the last good record.
RecordScan scan_records(const std::string& path);

/// A durable log of framed JSON records whose first record is a header
/// object naming the log's kind in its "magic" field.  The mechanics
/// shared by the serve daemon's job ledger and the sweep task manifest;
/// what the records mean is theirs.  Not thread-safe: owners serialize
/// calls.
class RecordLog {
 public:
  using Bytes = std::vector<std::uint8_t>;

  /// Opens (creating if absent) the log at `path`, removing a stale
  /// `<path>.compact.tmp` left by an interrupted rewrite.  The file is
  /// refused (SnapshotError, its bytes untouched) when it does not begin
  /// with a record frame, or when its first record is not a JSON object
  /// with `header`'s "magic".  A damaged tail is truncated to the valid
  /// prefix; when that cut fails the log fails closed: its records still
  /// replay, appends are refused.  A log without a valid record gets
  /// `header` as its first.  A checksummed record that is not JSON (a
  /// writer bug, not a torn tail) is logged and skipped.  Throws
  /// SnapshotError when the file cannot be opened for appending.
  RecordLog(std::string path, const json::Value& header);
  ~RecordLog();

  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  const std::string& path() const { return path_; }
  /// The header record as found at open (or as written there).
  const json::Value& header() const { return header_; }
  /// Hands over the records after the header, in append order.
  std::vector<json::Value> take_records() {
    return std::exchange(records_, {});
  }
  /// True when the open-time scan found and truncated a damaged tail.
  bool truncated_on_open() const { return truncated_on_open_; }
  /// False once the log has failed closed (see append and rewrite).
  bool healthy() const { return file_ != nullptr; }
  /// On-disk size in bytes, updated after every append and rewrite.
  std::uint64_t size_bytes() const { return size_bytes_; }

  /// Appends one record and fsyncs it.  Returns false when the log is
  /// unhealthy or the write fails; a failed write fails the log closed
  /// (after logging), since the file now ends in a torn frame.
  bool append(std::string_view payload);

  /// Replaces the file with `records` (header first): written to
  /// `<path>.compact.tmp`, fsynced, renamed over the log, and reopened
  /// for appending, so a kill at any instant leaves the complete old log
  /// or the complete new one.  Returns false after logging when it
  /// cannot complete; the old log then stays appendable unless it cannot
  /// be reopened either, which fails the log closed.
  bool rewrite(const std::vector<const Bytes*>& records);

 private:
  std::string path_;
  std::string tmp_path_;
  std::FILE* file_ = nullptr;
  json::Value header_;
  std::vector<json::Value> records_;
  bool truncated_on_open_ = false;
  std::uint64_t size_bytes_ = 0;
};

/// Reads and validates a snapshot file: magic, version, payload length,
/// and checksum.  Throws SnapshotError on any mismatch (missing file,
/// truncation, bit rot, foreign format, version skew).
Reader load_file(const std::string& path);

/// Per-task completion ledger for resumable parallel sweeps.
///
/// With an empty path the manifest is disabled: completed() is always
/// false and record() is a no-op, so call sites need no branching.  With a
/// path, the manifest is a RecordLog: a header record carrying the
/// sweep's fingerprint, then one `{"task":i,"result":...}` record per
/// finished task (the last record of a task wins on replay).  Opening a
/// manifest written under another fingerprint — different rates, seed,
/// or configuration — logs a warning and starts fresh; a file that is no
/// sweep manifest is refused (SnapshotError).  record() appends one
/// fsynced record, so progress survives a kill at any point, and is
/// thread-safe: parallel sweep workers call it concurrently.
class TaskManifest {
 public:
  TaskManifest() = default;  ///< disabled
  TaskManifest(const std::string& path, const std::string& fingerprint);

  bool enabled() const { return log_.has_value(); }
  std::size_t completed_count() const;
  bool completed(std::size_t index) const;
  /// The recorded result of a completed task (throws when not completed).
  json::Value result(std::size_t index) const;
  /// Records a task result and appends it to the log (no-op when
  /// disabled).
  void record(std::size_t index, json::Value result);

 private:
  mutable std::mutex mu_;
  std::optional<RecordLog> log_;
  std::map<std::size_t, json::Value> results_;
};

}  // namespace nocs::snapshot
