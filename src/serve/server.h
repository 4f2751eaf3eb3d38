#pragma once

/// \file server.h
/// \brief The serving daemon's core: listening sockets (Unix domain + TCP),
/// per-connection reader threads feeding the coalescing Batcher over a
/// shared PlanRegistry, and graceful drain.
///
/// Connection model: one accept thread polls the listening fds; each
/// accepted connection gets a reader thread that decodes frames and
/// dispatches them. Transform requests are admitted to the Batcher with a
/// callback that serializes the response and writes it back on the
/// requesting connection — writes are serialized per connection by a write
/// mutex, so responses from concurrent flushes never interleave mid-frame.
/// Responses may arrive out of request order (coalescing reorders across
/// plans); the request_id echoes back so clients can pipeline.
///
/// Error containment: a corrupt frame (bad magic/version, oversized length
/// prefix, checksum mismatch) or an unparseable payload gets a typed
/// kError frame back on a best-effort basis, then the connection closes —
/// the stream cannot be resynchronized — while the daemon and every other
/// connection keep serving. A request for an unknown or unloadable plan
/// fails only that request (kTransformResponse with the load's Status);
/// the connection stays usable.
///
/// Graceful drain (Shutdown, or SIGTERM via EnableSignalDrain): the
/// listening sockets close first — new connections are refused — then the
/// batcher drains (every admitted request's response is written), then
/// reader threads are woken by closing their sockets and joined. Wait()
/// blocks until a drain completes, so `feataug_serve` is just
/// Start + EnableSignalDrain + Wait.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "serve/batcher.h"
#include "serve/plan_registry.h"

namespace featlib {
namespace serve {

struct ServerOptions {
  /// Unix-domain listening socket path; empty disables. An existing socket
  /// file at the path is replaced (the common daemon-restart case).
  std::string unix_socket_path;
  /// TCP listening port on 127.0.0.1; -1 disables, 0 binds an ephemeral
  /// port (read it back via tcp_port() — how the tests avoid collisions).
  int tcp_port = -1;
  BatcherOptions batcher;
};

class Server {
 public:
  /// `registry` is borrowed and must outlive the server.
  Server(PlanRegistry* registry, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the configured sockets and starts the accept loop. Fails if
  /// neither listener is configured or a bind fails.
  Status Start();

  /// The TCP port actually bound (after Start); -1 when TCP is disabled.
  int tcp_port() const { return bound_tcp_port_; }

  /// Graceful drain: refuse new connections, deliver every in-flight
  /// response, close connections, join threads. Idempotent; safe from any
  /// thread (including the signal-watcher thread).
  void Shutdown();

  /// Installs a SIGTERM/SIGINT handler (signal-safe: a flag plus a
  /// self-pipe write) and a watcher thread that runs Shutdown() when the
  /// signal arrives. Call at most once, after Start().
  Status EnableSignalDrain();

  /// Blocks until Shutdown() completed (whoever triggered it).
  void Wait();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// \name Introspection.
  /// @{
  const Batcher& batcher() const { return batcher_; }
  uint64_t num_connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  uint64_t num_requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }
  uint64_t num_protocol_errors() const {
    return protocol_errors_.load(std::memory_order_relaxed);
  }
  /// @}

 private:
  /// One accepted connection. Reader thread + mutex-serialized writes;
  /// shared_ptr-held by the server and by every in-flight batcher
  /// callback, so a response can always be attempted even if the reader
  /// already saw EOF.
  ///
  /// The reader thread owns `fd`: it reads it unlocked and is the only
  /// thread that closes it (Release). Other threads touch it only under a
  /// mutex — writes under `write_mu`, the wake-up shutdown under `fd_mu` —
  /// so no thread can use a descriptor number after it was closed and
  /// possibly reused.
  struct Connection {
    int fd = -1;
    std::mutex write_mu;
    std::mutex fd_mu;
    std::atomic<bool> closed{false};

    /// Refuses further writes and wakes the reader with EOF; any thread.
    void Close();
    /// Close() and release the descriptor; the reader thread, as it exits.
    void Release();
    /// Best-effort framed write; false when the peer is gone.
    bool Write(MessageType type, const std::string& payload);
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  /// Dispatches one decoded frame; false => unrecoverable for this
  /// connection (an error frame was attempted), reader should close.
  bool HandleFrame(const std::shared_ptr<Connection>& conn, Frame frame);
  void HandleTransform(const std::shared_ptr<Connection>& conn,
                       const std::string& payload);

  PlanRegistry* registry_;
  ServerOptions options_;
  Batcher batcher_;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int bound_tcp_port_ = -1;
  /// Self-pipe waking the accept poll on shutdown.
  int wake_pipe_[2] = {-1, -1};

  std::thread accept_thread_;
  std::thread signal_thread_;

  std::mutex conn_mu_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::thread> reader_threads_;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_complete_ = false;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> protocol_errors_{0};
};

}  // namespace serve
}  // namespace featlib
