#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace featlib {
namespace serve {

namespace {

/// Signal-delivery state for EnableSignalDrain: async-signal-safe (one
/// atomic store + one pipe write). Process-global because sigaction is.
std::atomic<int> g_signal_wake_fd{-1};

void DrainSignalHandler(int /*signo*/) {
  const int fd = g_signal_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    // Best effort; if the pipe is full the watcher is already waking.
    [[maybe_unused]] ssize_t n = ::write(fd, &byte, 1);
  }
}

Status ErrnoStatus(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

}  // namespace

void Server::Connection::Close() {
  bool expected = false;
  if (closed.compare_exchange_strong(expected, true)) {
    // Not under write_mu: the shutdown also unblocks a writer stuck on a
    // full socket buffer.
    std::lock_guard<std::mutex> lock(fd_mu);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
}

void Server::Connection::Release() {
  Close();
  std::lock_guard<std::mutex> write_lock(write_mu);
  std::lock_guard<std::mutex> fd_lock(fd_mu);
  ::close(fd);
  fd = -1;
}

bool Server::Connection::Write(MessageType type, const std::string& payload) {
  std::lock_guard<std::mutex> lock(write_mu);
  if (closed.load(std::memory_order_acquire) || fd < 0) return false;
  return WriteFrame(fd, type, payload).ok();
}

Server::Server(PlanRegistry* registry, ServerOptions options)
    : registry_(registry), options_(std::move(options)),
      batcher_(options_.batcher) {}

Server::~Server() {
  Shutdown();
  if (signal_thread_.joinable()) signal_thread_.join();
  if (signal_pipe_[0] >= 0) {
    int mine = signal_pipe_[1];
    g_signal_wake_fd.compare_exchange_strong(mine, -1);
    ::close(signal_pipe_[0]);
    ::close(signal_pipe_[1]);
  }
}

Status Server::Start() {
  if (options_.unix_socket_path.empty() && options_.tcp_port < 0) {
    return Status::InvalidArgument("no listener configured");
  }
  if (::pipe(wake_pipe_) != 0) return ErrnoStatus("pipe");

  if (!options_.unix_socket_path.empty()) {
    unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_fd_ < 0) return ErrnoStatus("socket(AF_UNIX)");
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (options_.unix_socket_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " +
                                     options_.unix_socket_path);
    }
    std::strncpy(addr.sun_path, options_.unix_socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(options_.unix_socket_path.c_str());  // stale socket from a prior run
    if (::bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return ErrnoStatus("bind(" + options_.unix_socket_path + ")");
    }
    if (::listen(unix_fd_, 64) != 0) return ErrnoStatus("listen(unix)");
  }

  if (options_.tcp_port >= 0) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_fd_ < 0) return ErrnoStatus("socket(AF_INET)");
    const int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
    if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return ErrnoStatus("bind(tcp port " + std::to_string(options_.tcp_port) + ")");
    }
    if (::listen(tcp_fd_, 64) != 0) return ErrnoStatus("listen(tcp)");
    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      return ErrnoStatus("getsockname");
    }
    bound_tcp_port_ = ntohs(bound.sin_port);
  }

  started_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::AcceptLoop() {
  for (;;) {
    pollfd fds[3];
    nfds_t nfds = 0;
    int unix_slot = -1;
    int tcp_slot = -1;
    fds[nfds] = {wake_pipe_[0], POLLIN, 0};
    ++nfds;
    if (unix_fd_ >= 0) {
      unix_slot = static_cast<int>(nfds);
      fds[nfds] = {unix_fd_, POLLIN, 0};
      ++nfds;
    }
    if (tcp_fd_ >= 0) {
      tcp_slot = static_cast<int>(nfds);
      fds[nfds] = {tcp_fd_, POLLIN, 0};
      ++nfds;
    }
    const int rc = ::poll(fds, nfds, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[0].revents != 0 || draining_.load(std::memory_order_acquire)) {
      return;  // shutdown woke us; stop accepting
    }
    for (int slot : {unix_slot, tcp_slot}) {
      if (slot < 0 || (fds[slot].revents & POLLIN) == 0) continue;
      const int client = ::accept(fds[slot].fd, nullptr, nullptr);
      if (client < 0) continue;
      auto conn = std::make_shared<Connection>();
      conn->fd = client;
      connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (draining_.load(std::memory_order_acquire)) {
        // Raced with shutdown: refuse rather than strand a reader.
        ::close(client);
        continue;
      }
      connections_.push_back(conn);
      reader_threads_.emplace_back([this, conn] { ReaderLoop(conn); });
    }
  }
}

void Server::ReaderLoop(std::shared_ptr<Connection> conn) {
  for (;;) {
    auto frame = ReadFrame(conn->fd);
    if (!frame.ok()) {
      // EOF at a frame boundary is the peer hanging up; anything else is a
      // corrupt stream — report it (best effort) before closing, so a
      // well-behaved client learns why instead of seeing a bare hangup.
      const bool clean_eof = frame.status().code() == StatusCode::kIOError &&
                             frame.status().message() == "connection closed";
      if (!clean_eof && !conn->closed.load(std::memory_order_acquire)) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        ErrorMessage msg;
        msg.message = frame.status().ToString();
        conn->Write(MessageType::kError, EncodeErrorMessage(msg));
      }
      conn->Release();
      return;
    }
    if (!HandleFrame(conn, std::move(frame).ValueOrDie())) {
      conn->Release();
      return;
    }
  }
}

bool Server::HandleFrame(const std::shared_ptr<Connection>& conn,
                         Frame frame) {
  switch (frame.type) {
    case MessageType::kPing:
      return conn->Write(MessageType::kPong, frame.payload);
    case MessageType::kListPlans: {
      PlanList list;
      list.plans = registry_->List();
      return conn->Write(MessageType::kPlanList, EncodePlanList(list));
    }
    case MessageType::kTransformRequest:
      HandleTransform(conn, frame.payload);
      return true;
    default: {
      // A syntactically valid frame the server does not expect (responses,
      // errors): the stream is healthy but the peer is confused — answer
      // with a typed error and keep the connection.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      ErrorMessage msg;
      msg.message = "unexpected message type " +
                    std::to_string(static_cast<int>(frame.type));
      return conn->Write(MessageType::kError, EncodeErrorMessage(msg));
    }
  }
}

void Server::HandleTransform(const std::shared_ptr<Connection>& conn,
                             const std::string& payload) {
  auto decoded = DecodeTransformRequest(payload);
  if (!decoded.ok()) {
    // The frame envelope was valid (CRC passed) but the payload does not
    // parse: the stream itself is still synchronized, so fail the request,
    // not the connection. request_id is unknown — echo 0.
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    TransformResponse resp;
    resp.request_id = 0;
    resp.status = decoded.status();
    conn->Write(MessageType::kTransformResponse,
                EncodeTransformResponse(resp));
    return;
  }
  TransformRequest req = std::move(decoded).ValueOrDie();
  const uint64_t request_id = req.request_id;

  auto respond = [this, conn, request_id](Status status, Table table) {
    TransformResponse resp;
    resp.request_id = request_id;
    resp.status = std::move(status);
    resp.table = std::move(table);
    // Count before the write: a client that already read its response must
    // never observe a stale counter.
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    conn->Write(MessageType::kTransformResponse,
                EncodeTransformResponse(resp));
  };

  auto handle = registry_->Acquire(req.plan);
  if (!handle.ok()) {
    respond(handle.status(), Table());
    return;
  }

  Batcher::Request batch_req;
  batch_req.handle = handle.value();
  batch_req.batch = std::move(req.batch);
  if (req.deadline_us > 0) {
    batch_req.deadline = Batcher::Clock::now() +
                         std::chrono::microseconds(req.deadline_us);
  }
  batch_req.done = respond;
  Status admitted = batcher_.Submit(req.plan, std::move(batch_req));
  if (!admitted.ok()) {
    respond(admitted, Table());
  }
}

Status Server::EnableSignalDrain() {
  if (!started_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("EnableSignalDrain before Start");
  }
  // The watcher owns this server's pipe: the handler writes one byte, the
  // watcher blocks on read and runs the drain on its own (non-signal)
  // thread, where locks are safe. A pipe per server keeps a byte meant for
  // one server's watcher from shutting down the next server.
  if (::pipe(signal_pipe_) != 0) return ErrnoStatus("pipe(signal)");
  g_signal_wake_fd.store(signal_pipe_[1], std::memory_order_relaxed);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = DrainSignalHandler;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  if (::sigaction(SIGTERM, &sa, nullptr) != 0 ||
      ::sigaction(SIGINT, &sa, nullptr) != 0) {
    return ErrnoStatus("sigaction");
  }
  signal_thread_ = std::thread([this] {
    char byte;
    while (::read(signal_pipe_[0], &byte, 1) < 0 && errno == EINTR) {
    }
    Shutdown();
  });
  return Status::OK();
}

void Server::Shutdown() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) {
    Wait();  // another thread is draining; join its completion
    return;
  }
  if (!started_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_complete_ = true;
    shutdown_cv_.notify_all();
    return;
  }

  // 1. Refuse new connections: close the listeners, wake the accept poll.
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    ::unlink(options_.unix_socket_path.c_str());
    unix_fd_ = -1;
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }

  // 2. Drain: execute every queued group and deliver every admitted
  // response. Readers are still alive, so responses still have their
  // connections; requests arriving during the drain are refused by the
  // batcher with kCancelled and answered immediately.
  batcher_.Shutdown();

  // 3. Tear down connections (wakes blocked readers with EOF) and join.
  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns.swap(connections_);
    readers.swap(reader_threads_);
  }
  for (auto& conn : conns) conn->Close();
  for (std::thread& reader : readers) {
    if (reader.joinable()) reader.join();
  }

  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;

  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_complete_ = true;
    shutdown_cv_.notify_all();
  }
  // Wake a signal watcher that never saw its signal so ~Server can join it
  // (the watcher's own Shutdown call is an idempotent no-op by then).
  if (signal_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(signal_pipe_[1], &byte, 1);
  }
}

void Server::Wait() {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait(lock, [this] { return shutdown_complete_; });
}

}  // namespace serve
}  // namespace featlib
