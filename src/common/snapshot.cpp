#include "common/snapshot.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace nocs::snapshot {

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// --- Writer -----------------------------------------------------------------

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::str(const std::string& s) {
  u64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::begin_section(const std::string& name) {
  str(name);
  open_.push_back(buf_.size());
  u64(0);  // length slot, patched by end_section
}

void Writer::end_section() {
  NOCS_EXPECTS(!open_.empty());
  const std::size_t at = open_.back();
  open_.pop_back();
  const std::uint64_t len = buf_.size() - (at + 8);
  for (int i = 0; i < 8; ++i)
    buf_[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
}

// --- Reader -----------------------------------------------------------------

void Reader::need(std::size_t n) const {
  if (buf_.size() - pos_ < n)
    throw SnapshotError("snapshot truncated: needed " + std::to_string(n) +
                        " bytes, " + std::to_string(buf_.size() - pos_) +
                        " left");
}

std::int64_t Reader::i64_in(std::int64_t lo, std::int64_t hi,
                           const char* owner, const char* field) {
  const std::int64_t v = i64();
  if (v < lo || v > hi)
    throw SnapshotError(std::string(owner) + " " + field +
                        " in checkpoint is out of range");
  return v;
}

std::uint8_t Reader::u8() {
  need(1);
  return buf_[pos_++];
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(buf_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(buf_[pos_++]) << (8 * i);
  return v;
}

double Reader::f64() { return std::bit_cast<double>(u64()); }

std::string Reader::str() {
  const std::uint64_t n = u64();
  if (n > buf_.size() - pos_)
    throw SnapshotError("snapshot truncated inside a string");
  std::string s(reinterpret_cast<const char*>(buf_.data()) +
                    static_cast<std::ptrdiff_t>(pos_),
                static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

void Reader::begin_section(const std::string& name) {
  const std::string got = str();
  if (got != name)
    throw SnapshotError("snapshot section mismatch: expected '" + name +
                        "', found '" + got + "'");
  const std::uint64_t len = u64();
  if (len > buf_.size() - pos_)
    throw SnapshotError("snapshot section '" + name +
                        "' longer than remaining payload");
  ends_.push_back(pos_ + static_cast<std::size_t>(len));
}

void Reader::end_section() {
  NOCS_EXPECTS(!ends_.empty());
  const std::size_t expected = ends_.back();
  ends_.pop_back();
  if (pos_ != expected)
    throw SnapshotError(
        "snapshot section length mismatch: component read " +
        std::to_string(pos_) + " bytes, section ends at " +
        std::to_string(expected));
}

// --- files ------------------------------------------------------------------

namespace {

/// Header: magic[8] | version u32 | payload length u64 | checksum u64.
constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 8;

void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}
std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

bool save_file(const std::string& path, const Writer& w) {
  const auto& payload = w.bytes();
  std::uint8_t header[kHeaderSize];
  std::memcpy(header, kMagic, 8);
  put_u32(header + 8, kFormatVersion);
  put_u64(header + 12, payload.size());
  put_u64(header + 20, fnv1a(payload.data(), payload.size()));

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    log_message(LogLevel::kError, "snapshot: cannot open %s for writing",
                tmp.c_str());
    return false;
  }
  bool ok = std::fwrite(header, 1, kHeaderSize, f) == kHeaderSize;
  if (ok && !payload.empty())
    ok = std::fwrite(payload.data(), 1, payload.size(), f) == payload.size();
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) {
    log_message(LogLevel::kError, "snapshot: short write to %s",
                tmp.c_str());
    std::remove(tmp.c_str());
    return false;
  }
  // Atomic publish: a reader sees either the complete old file or the
  // complete new one, never a half-written checkpoint.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    log_message(LogLevel::kError, "snapshot: cannot rename %s to %s",
                tmp.c_str(), path.c_str());
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

Reader load_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    throw SnapshotError("cannot open snapshot file: " + path);

  std::uint8_t header[kHeaderSize];
  if (std::fread(header, 1, kHeaderSize, f) != kHeaderSize) {
    std::fclose(f);
    throw SnapshotError("snapshot file too short for its header: " + path);
  }
  if (std::memcmp(header, kMagic, 8) != 0) {
    std::fclose(f);
    throw SnapshotError("bad snapshot magic (not a NOCSNAP1 file): " + path);
  }
  const std::uint32_t version = get_u32(header + 8);
  if (version != kFormatVersion) {
    std::fclose(f);
    throw SnapshotError("snapshot format version " + std::to_string(version) +
                        " != supported " + std::to_string(kFormatVersion) +
                        ": " + path);
  }
  const std::uint64_t length = get_u64(header + 12);
  const std::uint64_t checksum = get_u64(header + 20);

  std::vector<std::uint8_t> payload(static_cast<std::size_t>(length));
  const std::size_t got =
      payload.empty() ? 0 : std::fread(payload.data(), 1, payload.size(), f);
  // Trailing garbage is as suspect as truncation.
  const bool at_eof = std::fgetc(f) == EOF;
  std::fclose(f);
  if (got != payload.size())
    throw SnapshotError("snapshot payload truncated (" + std::to_string(got) +
                        " of " + std::to_string(length) + " bytes): " + path);
  if (!at_eof)
    throw SnapshotError("snapshot has trailing bytes after payload: " + path);
  if (fnv1a(payload.data(), payload.size()) != checksum)
    throw SnapshotError("snapshot checksum mismatch (corrupted file): " +
                        path);
  return Reader(std::move(payload));
}

// --- append-only record log -------------------------------------------------

namespace {

constexpr std::size_t kFrameSize = 4 + 8 + 8;

/// Writes one framed record without flushing: a rewrite frames many
/// records and syncs once at the end.
bool write_record(std::FILE* f, const std::uint8_t* data, std::size_t size) {
  NOCS_EXPECTS(f != nullptr);
  std::uint8_t frame[kFrameSize];
  put_u32(frame, kRecordMagic);
  put_u64(frame + 4, size);
  put_u64(frame + 12, fnv1a(data, size));
  if (std::fwrite(frame, 1, sizeof frame, f) != sizeof frame) return false;
  if (size != 0 && std::fwrite(data, 1, size, f) != size) return false;
  return true;
}

// The stream's end-of-file offset (0 on error).  "ab" streams report
// position 0 until the first write, so size tracking seeks explicitly.
std::uint64_t file_size_bytes(std::FILE* f) {
  if (std::fseek(f, 0, SEEK_END) != 0) return 0;
  const long at = std::ftell(f);
  return at > 0 ? static_cast<std::uint64_t>(at) : 0;
}

}  // namespace

bool append_record(std::FILE* f, const std::uint8_t* data, std::size_t size) {
  if (!write_record(f, data, size)) return false;
  if (std::fflush(f) != 0) return false;
  // Push through to the device: a ledger's whole point is surviving an
  // unclean death, so buffered-in-page-cache is the floor, not the goal.
  ::fsync(::fileno(f));
  return true;
}

RecordScan scan_records(const std::string& path) {
  RecordScan scan;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return scan;  // first start: empty, undamaged

  std::fseek(f, 0, SEEK_END);
  const long file_size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);

  std::uint8_t frame[kFrameSize];
  std::uint8_t magic[4];
  put_u32(magic, kRecordMagic);
  for (;;) {
    const std::size_t at = scan.valid_bytes;
    const std::size_t got = std::fread(frame, 1, sizeof frame, f);
    if (got == 0) break;  // clean EOF
    if (at == 0 && std::memcmp(frame, magic, std::min(got, sizeof magic)) != 0) {
      scan.damaged = true;
      scan.foreign = true;
      scan.damage = "no record frame at byte 0";
      break;
    }
    if (got < sizeof frame) {
      scan.damaged = true;
      scan.damage = "truncated record header at byte " + std::to_string(at);
      break;
    }
    if (get_u32(frame) != kRecordMagic) {
      scan.damaged = true;
      scan.damage = "bad record magic at byte " + std::to_string(at);
      break;
    }
    const std::uint64_t len = get_u64(frame + 4);
    const std::uint64_t checksum = get_u64(frame + 12);
    if (file_size >= 0 &&
        len > static_cast<std::uint64_t>(file_size) - at - sizeof frame) {
      scan.damaged = true;
      scan.damage = "record at byte " + std::to_string(at) +
                    " longer than the remaining file";
      break;
    }
    std::vector<std::uint8_t> payload(static_cast<std::size_t>(len));
    if (!payload.empty() &&
        std::fread(payload.data(), 1, payload.size(), f) != payload.size()) {
      scan.damaged = true;
      scan.damage = "truncated record payload at byte " + std::to_string(at);
      break;
    }
    if (fnv1a(payload.data(), payload.size()) != checksum) {
      scan.damaged = true;
      scan.damage =
          "record checksum mismatch at byte " + std::to_string(at);
      break;
    }
    scan.records.push_back(std::move(payload));
    scan.valid_bytes = at + sizeof frame + static_cast<std::size_t>(len);
  }
  std::fclose(f);
  return scan;
}

// --- RecordLog --------------------------------------------------------------

RecordLog::RecordLog(std::string path, const json::Value& header)
    : path_(std::move(path)), tmp_path_(path_ + ".compact.tmp") {
  // A temp file left behind by a rewrite that died before its rename is
  // garbage by definition: the rename is the commit point, so the old
  // log is still the authoritative one.
  if (std::remove(tmp_path_.c_str()) == 0)
    log_message(LogLevel::kWarn,
                "removed stale rewrite temp %s (a rewrite was interrupted; "
                "the log itself is intact)",
                tmp_path_.c_str());

  RecordScan scan = scan_records(path_);
  const std::string& magic = header.at("magic").as_string();
  const std::string foreign = path_ + " is not a " + magic + " record log";
  if (scan.foreign)
    throw SnapshotError(foreign + " (no record frame at byte 0)");
  for (std::size_t i = 0; i < scan.records.size(); ++i) {
    const Bytes& bytes = scan.records[i];
    json::Value record;
    try {
      record = json::Value::parse(std::string(bytes.begin(), bytes.end()));
    } catch (const std::exception& e) {
      if (i == 0) throw SnapshotError(foreign);
      // A frame whose checksum held but whose payload is not JSON means a
      // writer bug, not bit rot; skip it rather than dropping the rest.
      log_message(LogLevel::kWarn, "%s record %zu is not JSON (%s); skipping",
                  path_.c_str(), i, e.what());
      continue;
    }
    if (i > 0) {
      records_.push_back(std::move(record));
      continue;
    }
    const json::Value* found = record.find("magic");
    if (found == nullptr || !found->is_string() ||
        found->as_string() != magic)
      throw SnapshotError(foreign);
    header_ = std::move(record);
  }

  if (scan.damaged) {
    log_message(LogLevel::kWarn,
                "%s has a damaged tail (%s); keeping the valid prefix of "
                "%zu record(s) and truncating",
                path_.c_str(), scan.damage.c_str(), scan.records.size());
    truncated_on_open_ = true;
    // Appending after garbage would bury the damage mid-file where the
    // next replay stops early; cut the file back to its valid prefix.
    // When the cut itself fails there is no safe place to append, so the
    // log fails closed: replay still works, writes are refused.
    if (::truncate(path_.c_str(), static_cast<off_t>(scan.valid_bytes)) !=
        0) {
      log_message(LogLevel::kError,
                  "cannot truncate the damaged tail of %s; refusing "
                  "further appends",
                  path_.c_str());
      return;
    }
  }

  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr)
    throw SnapshotError("cannot open record log for append: " + path_);
  if (scan.records.empty()) {
    header_ = header;
    if (!append(header.dump()))
      throw SnapshotError("cannot write record log header: " + path_);
  }
  size_bytes_ = file_size_bytes(file_);
}

RecordLog::~RecordLog() {
  if (file_ != nullptr) std::fclose(file_);
}

bool RecordLog::append(std::string_view payload) {
  if (file_ == nullptr) return false;
  if (!append_record(file_,
                     reinterpret_cast<const std::uint8_t*>(payload.data()),
                     payload.size())) {
    log_message(LogLevel::kError,
                "short write to %s; refusing further appends", path_.c_str());
    std::fclose(file_);
    file_ = nullptr;
    return false;
  }
  size_bytes_ = file_size_bytes(file_);
  return true;
}

bool RecordLog::rewrite(const std::vector<const Bytes*>& records) {
  if (file_ == nullptr) return false;
  std::FILE* out = std::fopen(tmp_path_.c_str(), "wb");
  if (out == nullptr) {
    log_message(LogLevel::kError, "cannot open %s for a rewrite",
                tmp_path_.c_str());
    return false;
  }
  bool ok = true;
  for (const Bytes* r : records)
    ok = ok && write_record(out, r->data(), r->size());
  ok = ok && std::fflush(out) == 0;
  if (ok) ::fsync(::fileno(out));
  ok = std::fclose(out) == 0 && ok;
  if (!ok) {
    log_message(LogLevel::kError, "short write rewriting to %s",
                tmp_path_.c_str());
    std::remove(tmp_path_.c_str());
    return false;
  }

  // The commit point.  Close the old handle first: after the rename it
  // would reference the unlinked inode and appends would vanish.
  std::fclose(file_);
  const bool renamed = std::rename(tmp_path_.c_str(), path_.c_str()) == 0;
  if (!renamed) {
    log_message(LogLevel::kError, "cannot rename %s over %s",
                tmp_path_.c_str(), path_.c_str());
    std::remove(tmp_path_.c_str());
  }
  // Renamed or not, the file at path_ is a complete log.
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    log_message(LogLevel::kError,
                "cannot reopen %s after a rewrite; refusing further appends",
                path_.c_str());
    return false;
  }
  size_bytes_ = file_size_bytes(file_);
  return renamed;
}

// --- TaskManifest -----------------------------------------------------------

TaskManifest::TaskManifest(const std::string& path,
                           const std::string& fingerprint) {
  if (path.empty()) return;
  json::Value header = json::Value::object();
  header.set("magic", "nocs-sweep-manifest");
  // Version 1 was a single JSON document, which RecordLog refuses.
  header.set("version", 2);
  header.set("fingerprint", fingerprint);
  log_.emplace(path, header);
  if (log_->header().dump() != header.dump()) {
    log_message(LogLevel::kWarn,
                "sweep manifest %s was written for a different sweep "
                "configuration; starting fresh",
                path.c_str());
    const std::string text = header.dump();
    const RecordLog::Bytes bytes(text.begin(), text.end());
    log_->rewrite({&bytes});
    return;
  }
  for (const json::Value& rec : log_->take_records()) {
    try {
      const double task = rec.at("task").as_number();
      if (!(task >= 0))
        throw std::invalid_argument("negative task index");
      results_[static_cast<std::size_t>(task)] = rec.at("result");
    } catch (const std::exception& e) {
      // A record that parsed but is no task record means a writer bug,
      // not a torn tail; skip it, keep the rest.
      log_message(LogLevel::kWarn,
                  "sweep manifest %s: skipping an unreadable task record "
                  "(%s)",
                  path.c_str(), e.what());
    }
  }
}

std::size_t TaskManifest::completed_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return results_.size();
}

bool TaskManifest::completed(std::size_t index) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return results_.count(index) != 0;
}

json::Value TaskManifest::result(std::size_t index) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = results_.find(index);
  if (it == results_.end())
    throw SnapshotError("manifest has no result for task " +
                        std::to_string(index));
  return it->second;
}

void TaskManifest::record(std::size_t index, json::Value result) {
  if (!enabled()) return;
  json::Value rec = json::Value::object();
  rec.set("task", static_cast<std::uint64_t>(index));
  rec.set("result", result);
  const std::string text = rec.dump();
  const std::lock_guard<std::mutex> lock(mu_);
  results_[index] = std::move(result);
  log_->append(text);
}

}  // namespace nocs::snapshot
