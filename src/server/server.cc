#include "server/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <string>

#include "obs/metrics.h"
#include "server/protocol.h"

namespace orpheus::server {

namespace {

// Handler tick: how often a blocked handler re-checks the stop flag
// and its idle deadline.
constexpr int kPollMs = 100;

// Server-layer metrics. Frames/bytes are counted here rather than in
// protocol.cc so that the client side of an in-process test does not
// double-count the server's traffic.
struct ServerMetrics {
  obs::Counter* sessions_opened;
  obs::Counter* sessions_closed;
  obs::Gauge* sessions_active;
  obs::Counter* frames_in;
  obs::Counter* frames_out;
  obs::Counter* bytes_in;
  obs::Counter* bytes_out;
};

const ServerMetrics& SM() {
  obs::MetricsRegistry& reg = obs::GlobalMetrics();
  static const ServerMetrics m = {
      reg.GetCounter("orpheus_sessions_opened_total",
                     "Server sessions accepted."),
      reg.GetCounter("orpheus_sessions_closed_total",
                     "Server sessions closed."),
      reg.GetGauge("orpheus_sessions_active", "Currently connected sessions."),
      reg.GetCounter("orpheus_frames_total", "Protocol frames, by direction.",
                     {{"dir", "in"}}),
      reg.GetCounter("orpheus_frames_total", "Protocol frames, by direction.",
                     {{"dir", "out"}}),
      reg.GetCounter("orpheus_net_bytes_total",
                     "Frame payload bytes, by direction.", {{"dir", "in"}}),
      reg.GetCounter("orpheus_net_bytes_total",
                     "Frame payload bytes, by direction.", {{"dir", "out"}})};
  return m;
}

}  // namespace

Server::Server(core::EngineApi* api, ServerOptions options)
    : api_(api), options_(options), sessions_(api) {
  options_.workers = std::max(1, options_.workers);
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (listen_fd_ >= 0) return Status::InvalidArgument("server already started");
  ORPHEUS_ASSIGN_OR_RETURN(listen_fd_, ListenLoopback(options_.port));
  auto port = BoundPort(listen_fd_);
  if (!port.ok()) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    return port.status();
  }
  port_ = port.value();
  pool_ = std::make_unique<ThreadPool>(options_.workers);
  acceptor_ = std::thread([this, fd = listen_fd_] { AcceptLoop(fd); });
  return Status::OK();
}

void Server::Stop() {
  if (stopping_.exchange(true)) {
    // Second caller: the first one is (or was) tearing down; just make
    // sure the acceptor is joined before returning.
    if (acceptor_.joinable()) acceptor_.join();
    return;
  }
  // Wake the acceptor out of accept() with an error, and close the fd
  // only once it has exited, so the number cannot be reused under it.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
  }
  {
    // Nudge handlers blocked in poll/read: a shutdown() makes their
    // next read return 0 and the handler exits its loop.
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  pool_.reset();  // drains queued handlers, joins workers
  sessions_.CloseAll();
}

void Server::AcceptLoop(int listen_fd) {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      continue;  // EINTR / transient accept failure
    }
    int on = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      conn_fds_.insert(fd);
    }
    pool_->Post([this, fd] { HandleConnection(fd); });
  }
}

void Server::HandleConnection(int fd) {
  std::shared_ptr<core::SessionContext> session = sessions_.Create();
  SM().sessions_opened->Inc();
  SM().sessions_active->Add(1);
  std::string hello = std::string(kHelloPrefix) + " session " +
                      std::to_string(session->id());
  bool alive = WriteFrame(fd, hello).ok();
  if (alive) {
    SM().frames_out->Inc();
    SM().bytes_out->Inc(hello.size());
  }

  while (alive && !stopping_.load(std::memory_order_acquire)) {
    // Wait for a request with a short tick so shutdown and the idle
    // deadline are noticed while the client is quiet.
    pollfd pfd{fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0) break;
    if (ready == 0) {
      if (options_.idle_timeout_sec > 0 &&
          session->IdleSeconds() > options_.idle_timeout_sec) {
        break;  // idle session: close without a response frame
      }
      continue;
    }
    Result<std::string> request = ReadFrame(fd);
    if (!request.ok()) break;  // EOF or protocol violation
    SM().frames_in->Inc();
    SM().bytes_in->Inc(request.value().size());

    Result<std::string> result = api_->Execute(session.get(), request.value());
    bool closed = session->exited();
    std::string response =
        result.ok() ? EncodeResponse(Status::OK(), closed, result.value())
                    : EncodeResponse(result.status(), closed,
                                     std::string_view());
    Status write_st = WriteFrame(fd, response);
    if (write_st.ok()) {
      SM().frames_out->Inc();
      SM().bytes_out->Inc(response.size());
    }
    alive = write_st.ok() && !closed;
  }

  sessions_.Close(session->id());
  SM().sessions_closed->Inc();
  SM().sessions_active->Add(-1);
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_fds_.erase(fd);
  }
  CloseFd(fd);
}

}  // namespace orpheus::server
