/// \file feataug_serve.cpp
/// \brief The serving daemon: load fitted plans, keep their warm artifacts
/// resident, and serve concurrent Transform requests over a socket — the
/// online half of "fit offline, ship the SQL artifact, serve online".
///
///   feataug_serve --plan-dir=DIR [--socket=/path/daemon.sock] [--tcp-port=N]
///                 [--warm-cap-mb=512] [--max-batch=16]
///                 [--workers=2] [--preload]
///
/// DIR holds one `<name>.sql` + `<name>.relevant.csv` pair per plan (the
/// artifacts `feataug_cli fit --plan-out` ships). Plans compile lazily on
/// first request and stay warm under an LRU byte cap; small requests for
/// the same plan that queue while the workers are busy coalesce into one
/// fan-out (see
/// docs/ARCHITECTURE.md, "Serving daemon"). SIGTERM/SIGINT drain
/// gracefully: new connections are refused, every in-flight request's
/// response is delivered, then the process exits.
///
/// Clients: `feataug_cli transform --socket=/path/daemon.sock
/// --plan-name=NAME --in=batch.csv` or the serve::ServeClient library.

#include <cstdio>
#include <cstring>
#include <string>

#include "serve/client.h"
#include "serve/plan_registry.h"
#include "serve/server.h"

using namespace featlib;

namespace {

struct ServeArgs {
  std::string plan_dir;
  std::string socket_path = "/tmp/feataug_serve.sock";
  int tcp_port = -1;
  long long warm_cap_mb = 512;
  long long max_batch = 16;
  long long workers = 2;
  bool preload = false;
};

bool Parse(int argc, char** argv, ServeArgs* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value_of("--plan-dir=")) args->plan_dir = v;
    else if (const char* v = value_of("--socket=")) args->socket_path = v;
    else if (const char* v = value_of("--tcp-port=")) args->tcp_port = std::atoi(v);
    else if (const char* v = value_of("--warm-cap-mb=")) args->warm_cap_mb = std::atoll(v);
    else if (const char* v = value_of("--max-batch=")) args->max_batch = std::atoll(v);
    else if (const char* v = value_of("--workers=")) args->workers = std::atoll(v);
    else if (arg == "--preload") args->preload = true;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  if (args->plan_dir.empty()) {
    std::fprintf(stderr, "required: --plan-dir=DIR (with <name>.sql + "
                         "<name>.relevant.csv pairs)\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ServeArgs args;
  if (!Parse(argc, argv, &args)) return 2;

  serve::PlanRegistryOptions registry_options;
  registry_options.warm_cap_bytes =
      args.warm_cap_mb <= 0 ? 0 : static_cast<size_t>(args.warm_cap_mb) << 20;
  serve::PlanRegistry registry(registry_options);
  size_t num_plans = 0;
  Status st = registry.DiscoverPlans(args.plan_dir, &num_plans);
  if (!st.ok()) {
    std::fprintf(stderr, "scanning %s: %s\n", args.plan_dir.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  if (num_plans == 0) {
    std::fprintf(stderr, "no plan pairs found in %s\n", args.plan_dir.c_str());
    return 1;
  }
  std::printf("feataug_serve: %zu plan(s) in %s\n", num_plans,
              args.plan_dir.c_str());
  if (args.preload) {
    for (const serve::PlanInfo& info : registry.List()) {
      auto handle = registry.Acquire(info.name);
      if (!handle.ok()) {
        std::fprintf(stderr, "preload %s: %s\n", info.name.c_str(),
                     handle.status().ToString().c_str());
      } else {
        std::printf("preloaded %s (%zu features)\n", info.name.c_str(),
                    handle.value()->num_features());
      }
    }
  }

  serve::ServerOptions options;
  options.unix_socket_path = args.socket_path;
  options.tcp_port = args.tcp_port;
  options.batcher.max_batch_size =
      args.max_batch < 1 ? 1 : static_cast<size_t>(args.max_batch);
  options.batcher.num_workers = args.workers < 1 ? 1 : static_cast<int>(args.workers);

  serve::Server server(&registry, options);
  st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "start: %s\n", st.ToString().c_str());
    return 1;
  }
  if (!args.socket_path.empty()) {
    std::printf("listening on unix socket %s\n", args.socket_path.c_str());
  }
  if (args.tcp_port >= 0) {
    std::printf("listening on 127.0.0.1:%d\n", server.tcp_port());
  }
  st = server.EnableSignalDrain();
  if (!st.ok()) {
    std::fprintf(stderr, "signal handler: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("serving (SIGTERM drains gracefully)\n");
  std::fflush(stdout);
  server.Wait();
  std::printf("drained: %llu connection(s), %llu request(s), "
              "%zu coalesced flush(es)\n",
              static_cast<unsigned long long>(server.num_connections_accepted()),
              static_cast<unsigned long long>(server.num_requests_served()),
              server.batcher().num_coalesced_flushes());
  return 0;
}
