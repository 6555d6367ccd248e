// Server: the TCP front-end that makes one OrpheusDB engine serve many
// concurrent sessions (the phase-1 "versioning server" of the
// roadmap).
//
// Architecture:
//
//   acceptor thread ──▶ ThreadPool (common/thread_pool, Post()) ──▶
//     one connection handler per client, each driving one
//     SessionContext through core::EngineApi
//
// Each handler loops: read a frame (server/protocol.h), dispatch the
// command line through EngineApi::Execute — which takes the engine's
// shared or exclusive lock as the command requires — and write the
// response frame. Handlers poll with a short tick so they notice both
// server shutdown and their session's idle timeout without holding a
// worker hostage in a blocking read.
//
// Capacity: at most `workers` connections are served concurrently;
// further accepted connections wait in the pool queue until a handler
// finishes. Stop() is graceful — it closes the listener, signals the
// handlers, force-closes lingering connection sockets, tears down
// every session (discarding staged tables), and joins the pool.

#ifndef ORPHEUS_SERVER_SERVER_H_
#define ORPHEUS_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "common/thread_pool.h"
#include "core/engine_api.h"
#include "server/session_manager.h"

namespace orpheus::server {

struct ServerOptions {
  uint16_t port = 0;         // 0 = ephemeral (read back via port())
  int workers = 8;           // connection worker pool (>= 1)
  double idle_timeout_sec = 300.0;  // 0 = sessions never idle out
};

class Server {
 public:
  // `api` must outlive the server.
  Server(core::EngineApi* api, ServerOptions options);
  ~Server();  // Stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, and starts the acceptor. Non-blocking; serving
  // happens on the pool threads.
  Status Start();

  // Graceful shutdown; idempotent. Safe to call from any thread.
  void Stop();

  // The bound port (valid after Start()).
  uint16_t port() const { return port_; }

  SessionManager* sessions() { return &sessions_; }

 private:
  // Runs on the acceptor thread with its own copy of the listening fd;
  // Stop() closes listen_fd_ only after joining it.
  void AcceptLoop(int listen_fd);
  void HandleConnection(int fd);

  core::EngineApi* api_;
  ServerOptions options_;
  SessionManager sessions_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::unique_ptr<ThreadPool> pool_;
  std::thread acceptor_;

  // Live connection sockets, so Stop() can shutdown() stragglers.
  std::mutex conn_mu_;
  std::set<int> conn_fds_;
};

}  // namespace orpheus::server

#endif  // ORPHEUS_SERVER_SERVER_H_
