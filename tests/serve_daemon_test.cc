/// \file serve_daemon_test.cc
/// \brief End-to-end daemon contract: >= 8 concurrent client connections
/// receive responses byte-identical to direct in-process TransformMany on
/// the same fitted plan, concurrent requests coalesce (>= 2 merged into
/// one fan-out), deadlines travel with requests, TCP works, and SIGTERM
/// drains gracefully — every in-flight response delivered, new
/// connections refused. Runs under TSan in scripts/ci.sh.

#include <gtest/gtest.h>

#include <csignal>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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
using serve_test::MakeTempDir;
using serve_test::WritePlanPair;

struct DaemonFixture {
  std::string dir;
  std::unique_ptr<PlanRegistry> registry;
  std::unique_ptr<Server> server;
  /// Per-batch reference encodings from a direct in-process handle loaded
  /// from the same artifacts the daemon serves.
  std::vector<Table> batches;
  std::vector<std::string> reference;
};

DaemonFixture StartDaemon(const std::string& prefix, ServerOptions options) {
  DaemonFixture f;
  f.dir = MakeTempDir(prefix);
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

TEST(ServeDaemonTest, EightConcurrentConnectionsAreByteIdenticalAndCoalesce) {
  ServerOptions options;
  // A generous window so concurrent requests reliably land in one group.
  options.batcher.max_delay_us = 20 * 1000;
  DaemonFixture f = StartDaemon("feataug_daemon_", std::move(options));
  const std::string socket = f.dir + "/daemon.sock";

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

TEST(ServeDaemonTest, DeadlineTravelsWithTheRequest) {
  DaemonFixture f = StartDaemon("feataug_daemon_", ServerOptions());
  auto client = ServeClient::ConnectUnix(f.dir + "/daemon.sock");
  ASSERT_TRUE(client.ok());

  // 1µs from receipt: expires while coalescing -> typed failure, and the
  // connection remains usable for a follow-up with no deadline.
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

// The ONE test that installs the process-wide signal handler: SIGTERM must
// drain gracefully — every request admitted before the signal gets its
// byte-identical response, then new connections are refused.
TEST(ServeDaemonTest, SigtermDrainsInFlightThenRefusesNewConnections) {
  ServerOptions options;
  // Requests sit in the coalescing window long enough for SIGTERM to land
  // while they are genuinely in flight.
  options.batcher.max_delay_us = 300 * 1000;
  DaemonFixture f = StartDaemon("feataug_daemon_", std::move(options));
  const std::string socket = f.dir + "/daemon.sock";
  ASSERT_TRUE(f.server->EnableSignalDrain().ok());
  // Warm the plan up front so request handling is a map hit — the clients
  // below must reach the batcher window before the signal lands.
  ASSERT_TRUE(f.registry->Acquire("demo").ok());

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

  // Let the requests reach the batcher's pending window, then signal.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(std::raise(SIGTERM), 0);
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

}  // namespace
}  // namespace serve
}  // namespace featlib
