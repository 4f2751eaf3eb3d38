/// \file serve_daemon_test.cc
/// \brief End-to-end daemon contract: >= 8 concurrent client connections
/// receive responses byte-identical to direct in-process TransformMany on
/// the same fitted plan, requests that queue behind a busy worker coalesce
/// (>= 2 merged into one fan-out), deadlines travel with requests, TCP
/// works, a client that hangs up before its reply leaves the daemon
/// serving, and SIGTERM drains gracefully — every in-flight response
/// delivered, new connections refused. Runs under TSan in scripts/ci.sh.
///
/// No test sleeps: where requests must be in flight, TrainMapHold blocks
/// the daemon's one batcher worker inside its fan-out until released.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <csignal>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "core/plan_io.h"
#include "serve/client.h"
#include "serve/plan_registry.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve_test_util.h"

namespace featlib {
namespace serve {
namespace {

using serve_test::MakeBatch;
using serve_test::TempDir;
using serve_test::WritePlanPair;

struct DaemonFixture {
  explicit DaemonFixture(const std::string& prefix)
      : tmp(prefix), dir(tmp.path()) {}
  TempDir tmp;  // removed last, after the server has shut down
  std::string dir;
  std::unique_ptr<PlanRegistry> registry;
  std::unique_ptr<Server> server;
  /// Per-batch reference encodings from a direct in-process handle loaded
  /// from the same artifacts the daemon serves.
  std::vector<Table> batches;
  std::vector<std::string> reference;
};

DaemonFixture StartDaemon(const std::string& prefix, ServerOptions options) {
  DaemonFixture f(prefix);
  EXPECT_FALSE(f.dir.empty());
  const Table relevant = WritePlanPair(f.dir, "demo");

  f.registry = std::make_unique<PlanRegistry>();
  size_t found = 0;
  EXPECT_TRUE(f.registry->DiscoverPlans(f.dir, &found).ok());
  EXPECT_EQ(found, 1u);

  if (options.unix_socket_path.empty() && options.tcp_port < 0) {
    options.unix_socket_path = f.dir + "/daemon.sock";
  }
  f.server = std::make_unique<Server>(f.registry.get(), options);
  Status started = f.server->Start();
  EXPECT_TRUE(started.ok()) << started.ToString();

  // Direct in-process reference: same plan file, same CSV-round-tripped
  // relevant table, TransformMany exactly as a non-daemon user would.
  for (uint64_t seed : {101, 202, 303, 404}) {
    f.batches.push_back(MakeBatch(20 + 5 * (seed % 4), seed));
  }
  auto direct = LoadFittedAugmenter(f.dir + "/demo.sql", relevant);
  EXPECT_TRUE(direct.ok()) << direct.status().ToString();
  auto many = direct.value()->TransformMany(f.batches);
  EXPECT_TRUE(many.ok()) << many.status().ToString();
  for (const Table& table : many.value()) {
    f.reference.push_back(EncodeTable(table));
  }
  return f;
}

TEST(ServeDaemonTest, DeadlineTravelsWithTheRequest) {
  DaemonFixture f = StartDaemon("feataug_daemon_", ServerOptions());
  auto client = ServeClient::ConnectUnix(f.dir + "/daemon.sock");
  ASSERT_TRUE(client.ok());

  // 1µs from receipt: expires in the queue or, at the latest, during the
  // fan-out -> typed failure, and the connection remains usable for a
  // follow-up with no deadline.
  auto expired = client.value().Transform("demo", f.batches[0], /*deadline_us=*/1);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded)
      << expired.status().ToString();

  auto fine = client.value().Transform("demo", f.batches[0]);
  ASSERT_TRUE(fine.ok()) << fine.status().ToString();
  EXPECT_EQ(EncodeTable(fine.value()), f.reference[0]);

  f.server->Shutdown();
}

TEST(ServeDaemonTest, TcpLoopbackServes) {
  ServerOptions options;
  options.tcp_port = 0;  // ephemeral
  DaemonFixture f = StartDaemon("feataug_daemon_", std::move(options));
  ASSERT_GT(f.server->tcp_port(), 0);

  auto client = ServeClient::ConnectTcp("127.0.0.1", f.server->tcp_port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client.value().Ping().ok());

  auto plans = client.value().ListPlans();
  ASSERT_TRUE(plans.ok());
  ASSERT_EQ(plans.value().size(), 1u);
  EXPECT_EQ(plans.value()[0].name, "demo");

  auto out = client.value().Transform("demo", f.batches[1]);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(EncodeTable(out.value()), f.reference[1]);
  // The plan loaded on first use; a second listing reports it resident.
  auto after = client.value().ListPlans();
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value()[0].loaded);

  f.server->Shutdown();
}

// A client that hangs up before reading its reply must cost the daemon
// only that connection: the reply's write fails with EPIPE (not SIGPIPE,
// which would kill the process) and the next connection is served.
TEST(ServeDaemonTest, ClientHangingUpBeforeItsReplyLeavesTheDaemonServing) {
  DaemonFixture f = StartDaemon("feataug_daemon_", ServerOptions());
  const std::string socket = f.dir + "/daemon.sock";

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  // Refusing to receive before sending makes the daemon's pong hit a
  // hung-up peer whatever the timing of the close below.
  ASSERT_EQ(::shutdown(fd, SHUT_RD), 0);
  ASSERT_TRUE(WriteFrame(fd, MessageType::kPing, "gone").ok());
  ::close(fd);

  auto client = ServeClient::ConnectUnix(socket);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client.value().Ping().ok());
  auto out = client.value().Transform("demo", f.batches[2]);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(EncodeTable(out.value()), f.reference[2]);

  f.server->Shutdown();
}

#ifdef FEATLIB_FAULT_INJECTION

/// Holds the daemon's batcher worker inside its next fan-out: the next
/// `prepare.train_map` site, which ExecuteServingPlan hits on the
/// executing thread, runs a hook that blocks until Release(). Arm it only
/// after the fixture computed its references (they hit the site too).
class TrainMapHold {
 public:
  TrainMapHold() {
    FaultInjector::Global().Reset();
    FaultInjector::Global().ArmHook("prepare.train_map", 0,
                                    [this] { released_.wait(); });
  }
  ~TrainMapHold() {
    Release();
    FaultInjector::Global().Reset();
  }

  void Release() {
    if (!released_once_) {
      released_once_ = true;
      release_.set_value();
    }
  }

 private:
  std::promise<void> release_;
  std::shared_future<void> released_ = release_.get_future().share();
  bool released_once_ = false;
};

/// Spins until the batcher has admitted `n` requests.
void AwaitAdmitted(const Server& server, size_t n) {
  while (server.batcher().num_requests() < n) std::this_thread::yield();
}

TEST(ServeDaemonTest, EightConcurrentConnectionsAreByteIdenticalAndCoalesce) {
  ServerOptions options;
  options.batcher.num_workers = 1;
  DaemonFixture f = StartDaemon("feataug_daemon_", std::move(options));
  const std::string socket = f.dir + "/daemon.sock";
  ASSERT_TRUE(f.registry->Acquire("demo").ok());
  // The first request to execute holds the worker until every client's
  // first request is admitted; the other seven then queue as one group.
  TrainMapHold hold;

  constexpr int kClients = 8;
  constexpr int kIterations = 3;
  std::vector<int> matches(kClients, 0);
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = ServeClient::ConnectUnix(socket);
      if (!client.ok()) {
        failures[c] = client.status().ToString();
        return;
      }
      for (int it = 0; it < kIterations; ++it) {
        const size_t b = (c + it) % f.batches.size();
        auto out = client.value().Transform("demo", f.batches[b]);
        if (!out.ok()) {
          failures[c] = out.status().ToString();
          return;
        }
        if (EncodeTable(out.value()) != f.reference[b]) {
          failures[c] = "response not byte-identical";
          return;
        }
        ++matches[c];
      }
    });
  }
  AwaitAdmitted(*f.server, kClients);
  hold.Release();
  for (std::thread& client : clients) client.join();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(matches[c], kIterations) << "client " << c << ": " << failures[c];
  }
  EXPECT_EQ(f.server->num_connections_accepted(),
            static_cast<uint64_t>(kClients));
  EXPECT_EQ(f.server->num_requests_served(),
            static_cast<uint64_t>(kClients * kIterations));
  // The acceptance bar: coalescing actually merged concurrent requests.
  EXPECT_GE(f.server->batcher().num_coalesced_flushes(), 1u);
  EXPECT_GE(f.server->batcher().max_flush_size(), 2u);

  f.server->Shutdown();
}

// The ONE test that installs the process-wide signal handler: SIGTERM must
// drain gracefully — every request admitted before the signal gets its
// byte-identical response, then new connections are refused.
TEST(ServeDaemonTest, SigtermDrainsInFlightThenRefusesNewConnections) {
  ServerOptions options;
  options.batcher.num_workers = 1;
  DaemonFixture f = StartDaemon("feataug_daemon_", std::move(options));
  const std::string socket = f.dir + "/daemon.sock";
  ASSERT_TRUE(f.server->EnableSignalDrain().ok());
  ASSERT_TRUE(f.registry->Acquire("demo").ok());
  // One request holds the worker; the rest queue behind it, so all four
  // are genuinely in flight when the signal lands.
  TrainMapHold hold;

  constexpr int kClients = 4;
  std::vector<Status> results(kClients, Status::Internal("never ran"));
  // One byte per client: std::vector<bool> packs the clients' flags into
  // shared words, so concurrent writes from the client threads would race.
  std::vector<char> identical(kClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = ServeClient::ConnectUnix(socket);
      if (!client.ok()) {
        results[c] = client.status();
        return;
      }
      const size_t b = c % f.batches.size();
      auto out = client.value().Transform("demo", f.batches[b]);
      results[c] = out.ok() ? Status::OK() : out.status();
      identical[c] = out.ok() && EncodeTable(out.value()) == f.reference[b];
    });
  }

  AwaitAdmitted(*f.server, kClients);
  EXPECT_EQ(f.server->num_requests_served(), 0u);
  ASSERT_EQ(std::raise(SIGTERM), 0);
  while (!f.server->draining()) std::this_thread::yield();
  hold.Release();
  f.server->Wait();

  // Drain contract: every admitted request completed with its real result.
  for (std::thread& client : clients) client.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(results[c].ok()) << "client " << c << ": "
                                 << results[c].ToString();
    EXPECT_TRUE(identical[c]) << "client " << c;
  }

  // Refusal contract: the listening socket is gone (or closes on contact).
  auto late = ServeClient::ConnectUnix(socket);
  if (late.ok()) {
    EXPECT_FALSE(late.value().Ping().ok());
  }
}

#endif  // FEATLIB_FAULT_INJECTION

}  // namespace
}  // namespace serve
}  // namespace featlib
