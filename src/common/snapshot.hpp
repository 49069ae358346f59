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
// The companion TaskManifest is the sweep-level resume mechanism: a JSON
// ledger of per-task results keyed by task index, rewritten atomically
// after every completion, so an interrupted parallel sweep restarts from
// the last finished task instead of from zero.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
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
// The framing under write-ahead ledgers (the serve daemon's job ledger):
// each record is `magic u32 | payload length u64 | FNV-1a-64 checksum u64 |
// payload bytes`, appended and flushed/fsynced one record at a time.  A
// process killed mid-append leaves a truncated or garbage tail;
// scan_records recovers the valid prefix and reports the damage instead
// of failing the whole log, so replay after `kill -9` loses at most the
// record that was being written.

/// Magic opening every log record ("NSRL", little-endian).
inline constexpr std::uint32_t kRecordMagic = 0x4C52534Eu;

/// Writes one framed record to an open binary stream without flushing.
/// The bulk-rewrite path (ledger compaction) frames many records and
/// syncs once at the end; durable appends go through append_record.
bool write_record(std::FILE* f, const std::uint8_t* data, std::size_t size);

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
  std::string damage;     ///< human-readable description when `damaged`
};

/// Reads every valid record from the head of `path`.  A missing file is
/// an empty, undamaged scan (first start); truncation, a checksum
/// mismatch, or foreign bytes end the scan at the last good record.
RecordScan scan_records(const std::string& path);

/// Reads and validates a snapshot file: magic, version, payload length,
/// and checksum.  Throws SnapshotError on any mismatch (missing file,
/// truncation, bit rot, foreign format, version skew).
Reader load_file(const std::string& path);

/// Best-effort recovery of a sweep-manifest JSON document that no longer
/// parses (half-written, truncated, or tail-corrupted): verifies the
/// magic and fingerprint textually, then re-parses completed-task records
/// one by one and returns every record of the valid prefix.  An
/// unverifiable fingerprint (or none recovered) yields an empty map.
/// TaskManifest falls back to this instead of discarding the whole
/// ledger, so a damaged manifest costs at most the record being written.
std::map<std::size_t, json::Value> recover_manifest_prefix(
    const std::string& text, const std::string& fingerprint);

/// Per-task completion ledger for resumable parallel sweeps.
///
/// With an empty path the manifest is disabled: completed() is always
/// false and record() is a no-op, so call sites need no branching.  With a
/// path, construction loads any existing ledger whose fingerprint matches
/// (a mismatched fingerprint — different rates, seed, or configuration —
/// is logged and the ledger starts fresh), and record() rewrites the file
/// atomically after every task, making progress survive a kill at any
/// point.  record() is thread-safe; parallel sweep workers call it
/// concurrently.
class TaskManifest {
 public:
  TaskManifest() = default;  ///< disabled
  TaskManifest(const std::string& path, const std::string& fingerprint);

  bool enabled() const { return !path_.empty(); }
  std::size_t completed_count() const;
  bool completed(std::size_t index) const;
  /// The recorded result of a completed task (throws when not completed).
  json::Value result(std::size_t index) const;
  /// Records a task result and persists the ledger (no-op when disabled).
  void record(std::size_t index, json::Value result);

 private:
  void persist_locked() const;

  mutable std::mutex mu_;
  std::string path_;
  std::string fingerprint_;
  std::map<std::size_t, json::Value> results_;
};

}  // namespace nocs::snapshot
