// Socket front end of the serve daemon: line-delimited JSON over TCP on
// 127.0.0.1 (one request line in, one reply line out, in order), wired to
// the crash-safe JobScheduler.  The listener polls the process shutdown
// flag, so SIGTERM/SIGINT (or the `drain` op) turns into a graceful
// drain: running simulations checkpoint, the ledger stays consistent, and
// the next start resumes the campaign.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/config.hpp"
#include "common/json.hpp"
#include "serve/scheduler.hpp"

namespace nocs::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";  ///< bind address (loopback by default)
  int port = 0;                    ///< 0 = kernel-assigned ephemeral port
  /// State directory: job ledger (`ledger.nsrl`) plus per-task drain
  /// snapshots live here; created when missing.
  std::string dir = "serve-state";
  /// When set, the bound port is written here (one line) after listen —
  /// how scripts find an ephemeral port.
  std::string port_file;
  int max_connections = 32;  ///< concurrent clients; excess get a 429
  /// Ledger auto-compaction threshold in bytes: once the write-ahead log
  /// grows past it (and has at least doubled since the last rewrite), it
  /// is rewritten as snapshot + tail.  0 disables auto-compaction.
  std::uint64_t ledger_compact_bytes = 4u << 20;
  ServeLimits limits;

  /// Reads `serve_host=`, `serve_port=`, `serve_dir=`, `serve_port_file=`,
  /// `serve_max_connections=`, `serve_ledger_compact_bytes=` plus every
  /// ServeLimits key.
  static ServerOptions from_config(const Config& cfg);
};

/// Owns the ledger, the scheduler (recovery runs in the constructor), and
/// the listening socket.  Construction throws std::runtime_error when the
/// state directory or socket cannot be set up.
class Server {
 public:
  explicit Server(const ServerOptions& opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  int port() const;  ///< actual bound port (after ephemeral assignment)
  JobScheduler& scheduler();
  /// The daemon's write-ahead job ledger (recovery has taken its
  /// replayed records by the time the constructor returns).
  const Ledger& ledger() const;

  /// Accept/serve loop; returns after a shutdown request (signal or
  /// `drain` op) once the scheduler has drained.
  void run();

  /// One protocol line to one reply — the transport-free core of the
  /// connection loop, exposed so tests can drive the full daemon without
  /// sockets.  Thread-safe.  A `watch` request blocks like it does on a
  /// socket but only the final status is returned (no transport to
  /// stream the intermediate frames over); pass an emit callback via
  /// handle_line's streaming sibling in Impl for those.
  json::Value handle_line(const std::string& line);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace nocs::serve
