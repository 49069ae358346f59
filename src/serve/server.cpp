#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/shutdown.hpp"
#include "serve/protocol.hpp"
#include "serve/runner.hpp"

namespace nocs::serve {

namespace {

/// mkdir -p: creates every missing component; throws on a real failure.
void ensure_dir(const std::string& dir) {
  std::string prefix;
  for (std::size_t i = 0; i <= dir.size(); ++i) {
    if (i < dir.size() && dir[i] != '/') {
      prefix += dir[i];
      continue;
    }
    if (!prefix.empty() && prefix != "." && prefix != "..") {
      if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST)
        throw std::runtime_error("cannot create state directory " + prefix +
                                 ": " + std::strerror(errno));
    }
    if (i < dir.size()) prefix += '/';
  }
}

bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

ServerOptions ServerOptions::from_config(const Config& cfg) {
  ServerOptions o;
  o.host = cfg.get_string("serve_host", o.host);
  o.port = static_cast<int>(cfg.get_int("serve_port", o.port));
  if (o.port < 0 || o.port > 65535)
    throw std::invalid_argument("serve_port must be in [0, 65535]");
  o.dir = cfg.get_string("serve_dir", o.dir);
  o.port_file = cfg.get_string("serve_port_file", o.port_file);
  o.max_connections = static_cast<int>(
      cfg.get_int("serve_max_connections", o.max_connections));
  if (o.max_connections < 1)
    throw std::invalid_argument("serve_max_connections must be >= 1");
  const long long compact = cfg.get_int(
      "serve_ledger_compact_bytes",
      static_cast<long long>(o.ledger_compact_bytes));
  if (compact < 0)
    throw std::invalid_argument("serve_ledger_compact_bytes must be >= 0");
  o.ledger_compact_bytes = static_cast<std::uint64_t>(compact);
  o.limits = ServeLimits::from_config(cfg);
  return o;
}

struct Server::Impl {
  ServerOptions opts;
  std::unique_ptr<Ledger> ledger;
  std::unique_ptr<JobScheduler> sched;
  int listen_fd = -1;
  int bound_port = 0;
  std::atomic<int> active_connections{0};
  std::mutex threads_mu;
  std::vector<std::thread> threads;

  /// Sends one reply line; false when the peer is gone.
  using Emit = std::function<bool(const json::Value&)>;

  json::Value dispatch(const Request& req, const Emit& emit = nullptr) {
    if (req.op == "ping") {
      json::Value v = ok_response();
      v.set("pong", true);
      return v;
    }
    if (req.op == "submit") {
      const SubmitOutcome out = sched->submit(req.spec);
      switch (out.code) {
        case SubmitOutcome::Code::kAccepted: {
          json::Value v = ok_response();
          v.set("job", out.job_id);
          v.set("state", "queued");
          return v;
        }
        case SubmitOutcome::Code::kCached: {
          json::Value v = ok_response();
          v.set("job", out.job_id);
          v.set("cached", true);
          v.set("result", out.cached);
          return v;
        }
        case SubmitOutcome::Code::kRejected:
          return error_response(kCodeRejected, out.error);
        case SubmitOutcome::Code::kDraining:
          return error_response(kCodeDraining, out.error);
      }
      return error_response(kCodeBadRequest, "unreachable");
    }
    if (req.op == "job") return sched->job_status(req.job_id);
    if (req.op == "wait")
      return sched->wait(req.job_id,
                         req.has_timeout
                             ? std::optional<std::uint64_t>(req.timeout_ms)
                             : std::nullopt);
    if (req.op == "watch")
      return sched->watch(req.job_id, req.every_ms, emit);
    if (req.op == "status") {
      json::Value v = sched->status();
      json::Value s = json::Value::object();
      s.set("host", opts.host);
      s.set("port", bound_port);
      s.set("dir", opts.dir);
      s.set("connections", active_connections.load());
      s.set("recovered_jobs",
            static_cast<double>(sched->recovered_jobs()));
      v.set("server", std::move(s));
      return v;
    }
    if (req.op == "metrics") {
      MetricsRegistry reg;
      sched->export_metrics(reg);
      json::Value v = ok_response();
      v.set("metrics", reg.to_json());
      v.set("text", reg.to_text());
      return v;
    }
    // "drain": parse_request admits no other op.
    request_shutdown();
    json::Value v = ok_response();
    v.set("draining", true);
    return v;
  }

  void serve_connection(int fd) {
    std::string buffer;
    char chunk[4096];
    struct pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    while (true) {
      // Bail between requests once a drain begins *and* the scheduler has
      // settled; until then keep answering status/wait polls.
      if (shutdown_requested() && buffer.empty() && sched->draining())
        break;
      const int ready = ::poll(&pfd, 1, 200);
      if (ready < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (ready == 0) continue;
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n == 0) break;  // client closed
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t nl;
      bool dead = false;
      while ((nl = buffer.find('\n')) != std::string::npos) {
        std::string line = buffer.substr(0, nl);
        buffer.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) continue;
        // `watch` streams progress frames over this connection before its
        // final reply; every other op is one line in, one line out.
        const Emit emit = [fd](const json::Value& frame) {
          const std::string text = frame.dump() + "\n";
          return write_all(fd, text.data(), text.size());
        };
        const std::string reply = handle_line_impl(line, emit).dump() + "\n";
        if (!write_all(fd, reply.data(), reply.size())) {
          dead = true;
          break;
        }
      }
      if (dead) break;
      if (buffer.size() > (1u << 20)) {
        // A megabyte without a newline is not our protocol; cut it off
        // rather than buffering without bound.
        const std::string reply =
            error_response(kCodeBadRequest, "request line too long").dump() +
            "\n";
        write_all(fd, reply.data(), reply.size());
        break;
      }
    }
    ::close(fd);
    --active_connections;
  }

  json::Value handle_line_impl(const std::string& line,
                               const Emit& emit = nullptr) {
    const ParseResult parsed = parse_request(line);
    if (!parsed.ok) return error_response(kCodeBadRequest, parsed.error);
    return dispatch(parsed.request, emit);
  }
};

Server::Server(const ServerOptions& opts)
    : impl_(std::make_unique<Impl>()) {
  impl_->opts = opts;
  ensure_dir(opts.dir);
  impl_->ledger = std::make_unique<Ledger>(opts.dir + "/ledger.nsrl",
                                           opts.ledger_compact_bytes);
  impl_->sched = std::make_unique<JobScheduler>(
      opts.limits, make_sim_runner(opts.dir), make_sim_aggregator(),
      impl_->ledger.get());
  if (impl_->ledger->truncated_on_open())
    log_message(LogLevel::kWarn,
                "serve: ledger had a damaged tail (see above); state is the "
                "last durable prefix");

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("cannot create socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(opts.port));
  if (::inet_pton(AF_INET, opts.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("bad serve_host address: " + opts.host);
  }
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) !=
      0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("cannot bind " + opts.host + ":" +
                             std::to_string(opts.port) + ": " + why);
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot listen");
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len);
  impl_->bound_port = ntohs(addr.sin_port);
  impl_->listen_fd = fd;

  if (!opts.port_file.empty()) {
    std::FILE* f = std::fopen(opts.port_file.c_str(), "w");
    if (f == nullptr)
      throw std::runtime_error("cannot write port file " + opts.port_file);
    std::fprintf(f, "%d\n", impl_->bound_port);
    std::fclose(f);
  }
}

Server::~Server() {
  if (impl_->listen_fd >= 0) ::close(impl_->listen_fd);
  {
    const std::lock_guard<std::mutex> lock(impl_->threads_mu);
    for (std::thread& t : impl_->threads)
      if (t.joinable()) t.join();
  }
}

int Server::port() const { return impl_->bound_port; }

JobScheduler& Server::scheduler() { return *impl_->sched; }

const Ledger& Server::ledger() const { return *impl_->ledger; }

json::Value Server::handle_line(const std::string& line) {
  return impl_->handle_line_impl(line);
}

void Server::run() {
  struct pollfd pfd{};
  pfd.fd = impl_->listen_fd;
  pfd.events = POLLIN;
  while (!shutdown_requested()) {
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("poll failed on the listen socket");
    }
    if (ready == 0) continue;
    const int fd = ::accept(impl_->listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    if (impl_->active_connections.load() >= impl_->opts.max_connections) {
      const std::string reply =
          error_response(kCodeRejected, "too many connections").dump() +
          "\n";
      write_all(fd, reply.data(), reply.size());
      ::close(fd);
      continue;
    }
    ++impl_->active_connections;
    const std::lock_guard<std::mutex> lock(impl_->threads_mu);
    impl_->threads.emplace_back(
        [this, fd] { impl_->serve_connection(fd); });
  }

  log_message(LogLevel::kInfo,
              "serve: shutdown requested%s; draining (running tasks "
              "checkpoint and resume on next start)",
              shutdown_signal() != 0 ? " by signal" : "");
  impl_->sched->drain();
  // Connections notice the drain within a poll period and close; join
  // them so the dtor never races a live handler.
  {
    const std::lock_guard<std::mutex> lock(impl_->threads_mu);
    for (std::thread& t : impl_->threads)
      if (t.joinable()) t.join();
    impl_->threads.clear();
  }
}

}  // namespace nocs::serve
