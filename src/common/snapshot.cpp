#include "common/snapshot.hpp"

#include <unistd.h>

#include <bit>
#include <cctype>
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

bool write_record(std::FILE* f, const std::uint8_t* data, std::size_t size) {
  NOCS_EXPECTS(f != nullptr);
  std::uint8_t frame[4 + 8 + 8];
  put_u32(frame, kRecordMagic);
  put_u64(frame + 4, size);
  put_u64(frame + 12, fnv1a(data, size));
  if (std::fwrite(frame, 1, sizeof frame, f) != sizeof frame) return false;
  if (size != 0 && std::fwrite(data, 1, size, f) != size) return false;
  return true;
}

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

  std::uint8_t frame[4 + 8 + 8];
  for (;;) {
    const std::size_t at = scan.valid_bytes;
    const std::size_t got = std::fread(frame, 1, sizeof frame, f);
    if (got == 0) break;  // clean EOF
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

// --- TaskManifest -----------------------------------------------------------

namespace {

std::size_t skip_ws(const std::string& s, std::size_t pos) {
  while (pos < s.size() &&
         std::isspace(static_cast<unsigned char>(s[pos])) != 0)
    ++pos;
  return pos;
}

/// Extent of one JSON value starting at `pos`: tracks brace/bracket depth
/// and string state, so a complete value of any type is spanned exactly.
/// Returns std::string::npos when the value never closes (truncation).
std::size_t value_end(const std::string& s, std::size_t pos) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = pos; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;  // skip the escaped character
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (depth == 0) return i;  // primitive ended by the container close
      if (--depth == 0) return i + 1;
    } else if (depth == 0 && (c == ',' || c == '\n')) {
      return i;  // primitive value ends at the separator
    }
  }
  // Ran off the end: even a parseable primitive here may itself be
  // truncated (a number missing digits still parses), so treat it as
  // damage rather than risk recovering a wrong value.
  return std::string::npos;
}

}  // namespace

std::map<std::size_t, json::Value> recover_manifest_prefix(
    const std::string& text, const std::string& fingerprint) {
  std::map<std::size_t, json::Value> recovered;
  // The header fields precede the completed map in every manifest this
  // code writes; without a textually intact magic + matching fingerprint
  // nothing after them can be trusted.
  if (text.find("\"magic\": \"nocs-sweep-manifest\"") == std::string::npos)
    return recovered;
  if (text.find("\"fingerprint\": " + json::escape(fingerprint)) ==
      std::string::npos)
    return recovered;
  std::size_t pos = text.find("\"completed\"");
  if (pos == std::string::npos) return recovered;
  pos = text.find('{', pos);
  if (pos == std::string::npos) return recovered;
  ++pos;

  for (;;) {
    pos = skip_ws(text, pos);
    if (pos >= text.size() || text[pos] == '}') break;
    if (text[pos] == ',') {
      ++pos;
      continue;
    }
    // One "index": value entry; keys are plain decimal strings.
    if (text[pos] != '"') break;
    const std::size_t key_end = text.find('"', pos + 1);
    if (key_end == std::string::npos) break;
    const std::string key = text.substr(pos + 1, key_end - pos - 1);
    pos = skip_ws(text, key_end + 1);
    if (pos >= text.size() || text[pos] != ':') break;
    pos = skip_ws(text, pos + 1);
    const std::size_t end = value_end(text, pos);
    if (end == std::string::npos) break;
    try {
      json::Value value = json::Value::parse(text.substr(pos, end - pos));
      recovered[static_cast<std::size_t>(std::stoull(key))] =
          std::move(value);
    } catch (const std::exception&) {
      break;  // first unparseable record ends the valid prefix
    }
    pos = end;
  }
  return recovered;
}

TaskManifest::TaskManifest(const std::string& path,
                           const std::string& fingerprint)
    : path_(path), fingerprint_(fingerprint) {
  if (path_.empty()) return;
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) return;  // no prior run: start fresh
  std::string text;
  char chunk[4096];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) text.append(chunk, n);
  std::fclose(f);
  try {
    const json::Value doc = json::Value::parse(text);
    if (doc.at("magic").as_string() != "nocs-sweep-manifest" ||
        doc.at("version").as_number() != 1.0)
      throw SnapshotError("not a sweep manifest");
    if (doc.at("fingerprint").as_string() != fingerprint_) {
      log_message(LogLevel::kWarn,
                  "sweep manifest %s was written for a different sweep "
                  "configuration; starting fresh",
                  path_.c_str());
      return;
    }
    for (const auto& [key, value] : doc.at("completed").members())
      results_.emplace(static_cast<std::size_t>(std::stoull(key)), value);
  } catch (const std::exception& e) {
    // Truncated or half-written (e.g. the process died while a non-atomic
    // copy was in flight, or the filesystem ate the tail): salvage the
    // valid prefix of completed-task records rather than redoing the
    // whole sweep.
    results_ = recover_manifest_prefix(text, fingerprint_);
    if (!results_.empty()) {
      log_message(LogLevel::kWarn,
                  "sweep manifest %s is damaged (%s); recovered the valid "
                  "prefix of %zu completed task(s)",
                  path_.c_str(), e.what(), results_.size());
    } else {
      log_message(LogLevel::kWarn,
                  "ignoring unreadable sweep manifest %s: %s", path_.c_str(),
                  e.what());
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
  const std::lock_guard<std::mutex> lock(mu_);
  results_[index] = std::move(result);
  persist_locked();
}

void TaskManifest::persist_locked() const {
  json::Value doc = json::Value::object();
  doc.set("magic", "nocs-sweep-manifest");
  doc.set("version", 1);
  doc.set("fingerprint", fingerprint_);
  json::Value done = json::Value::object();
  for (const auto& [index, value] : results_)
    done.set(std::to_string(index), value);
  doc.set("completed", std::move(done));

  // Same atomic tmp + rename discipline as binary snapshots: a sweep
  // killed mid-record leaves the previous complete ledger behind.
  const std::string tmp = path_ + ".tmp";
  if (!json::write_file(tmp, doc)) return;
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    log_message(LogLevel::kError, "manifest: cannot rename %s to %s",
                tmp.c_str(), path_.c_str());
    std::remove(tmp.c_str());
  }
}

}  // namespace nocs::snapshot
