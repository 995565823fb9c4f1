// Sharding proxy for a fleet of rrre_served backends:
//
//   rrre_routed --backends=127.0.0.1:7475,127.0.0.1:7476 --port=7474
//               [--backend_timeout_ms=5000] [--retries=2]
//               [--backoff_us=500] [--health_ms=200]
//               [--max_connections=128] [--read_timeout_ms=0]
//               [--metrics=true]
//
// Clients speak the exact rrre_served line protocol against the router. Pair
// and bare-user catalog requests go whole to the user's home shard, placed
// by rendezvous hashing, and fail over to the next shard in the user's order
// on reset / EOF / deadline or a misaligned answer; a catalog is relayed only
// once all its lines have arrived. RELOAD rolls the whole fleet behind a
// params-fingerprint barrier so no connection ever observes two parameter
// versions. STATS reports fleet-level counters (loadgen's bounds discovery
// works unchanged); METRICS merges the router's own exposition with every
// shard's, relabeled shard="k".
//
// At startup every backend must be reachable and agree on corpus bounds and
// params fingerprint — a fleet already serving two parameter versions is
// refused rather than proxied. SIGHUP triggers the same rolling reload as
// the RELOAD verb. SIGINT/SIGTERM drain gracefully.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/flags.h"
#include "common/logging.h"
#include "common/signals.h"
#include "common/socket.h"
#include "common/strings.h"
#include "serve/router.h"

namespace {

using namespace rrre;  // NOLINT(build/namespaces)

/// "host:port,host:port,..." -> backend list. Bare "port" means localhost.
bool ParseBackends(const std::string& spec,
                   std::vector<serve::RouterOptions::Backend>* out) {
  for (const std::string& part : common::Split(spec, ',')) {
    if (part.empty()) continue;
    serve::RouterOptions::Backend backend;
    const size_t colon = part.rfind(':');
    const std::string port_str =
        colon == std::string::npos ? part : part.substr(colon + 1);
    if (colon != std::string::npos) backend.host = part.substr(0, colon);
    const long long port = std::atoll(port_str.c_str());
    if (port <= 0 || port > 65535) return false;
    backend.port = static_cast<uint16_t>(port);
    out->push_back(std::move(backend));
  }
  return !out->empty();
}

/// The router's rolling reload is driven through its own protocol: connect
/// to ourselves and issue RELOAD, exactly like an operator would.
void TriggerRollingReload(uint16_t port) {
  auto socket = common::Socket::Connect("127.0.0.1", port);
  if (!socket.ok()) return;
  if (!socket.value().SendAll("RELOAD\n").ok()) return;
  common::LineReader reader(&socket.value());
  auto line = reader.ReadLine();
  if (line.ok() && line.value().has_value()) {
    std::printf("rolling reload: %s\n", line.value()->c_str());
    std::fflush(stdout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  common::FlagParser flags;
  flags.AddString("backends", "",
                  "comma-separated host:port shard fleet (required)");
  flags.AddInt("port", 7474, "TCP port to listen on (0 = ephemeral)");
  flags.AddInt("backend_timeout_ms", 5000,
               "per-operation deadline on backend connections");
  flags.AddInt("retries", 2, "failover attempts beyond the first try");
  flags.AddInt("backoff_us", 500, "equal-jitter backoff base between retries");
  flags.AddInt("health_ms", 200, "health-check cadence per backend");
  flags.AddInt("max_connections", 128, "concurrent client connection limit");
  flags.AddInt("read_timeout_ms", 0,
               "drop client connections idle past this deadline (0 = none)");
  flags.AddBool("metrics", true,
                "maintain the router metrics registry and aggregate shard "
                "expositions under METRICS");
  RRRE_CHECK_OK(flags.Parse(argc, argv));
  if (flags.help_requested()) {
    std::printf("usage: %s --backends=HOST:PORT,HOST:PORT --port=PORT\n%s",
                argv[0], flags.Usage(argv[0]).c_str());
    return 0;
  }

  serve::RouterOptions options;
  if (!ParseBackends(flags.GetString("backends"), &options.backends)) {
    std::fprintf(stderr, "--backends is required (see --help)\n");
    return 2;
  }
  options.port = static_cast<uint16_t>(flags.GetInt("port"));
  options.backend_timeout_ms =
      static_cast<int>(flags.GetInt("backend_timeout_ms"));
  options.max_retries = flags.GetInt("retries");
  options.backoff_base_us = flags.GetInt("backoff_us");
  options.backoff_cap_us = options.backoff_base_us * 100;
  options.health_period_ms = static_cast<int>(flags.GetInt("health_ms"));
  options.max_connections = flags.GetInt("max_connections");
  options.read_timeout_ms = static_cast<int>(flags.GetInt("read_timeout_ms"));
  options.enable_metrics = flags.GetBool("metrics");

  common::InstallServeSignalHandlers();

  auto router = serve::Router::Start(options);
  if (!router.ok()) {
    std::fprintf(stderr, "rrre_routed failed to start: %s\n",
                 router.status().ToString().c_str());
    return 1;
  }
  std::printf("rrre_routed listening on port %u (%d shards, fingerprint %llu)\n",
              router.value()->port(),
              static_cast<int>(options.backends.size()),
              static_cast<unsigned long long>(
                  router.value()->fleet_fingerprint()));
  std::fflush(stdout);

  uint64_t reloads_seen = common::ReloadRequestCount();
  while (!common::ShutdownRequested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const uint64_t reloads_now = common::ReloadRequestCount();
    if (reloads_now != reloads_seen) {
      reloads_seen = reloads_now;
      std::printf("SIGHUP: rolling the fleet\n");
      std::fflush(stdout);
      TriggerRollingReload(router.value()->port());
    }
  }

  std::printf("shutting down: draining connections...\n");
  std::fflush(stdout);
  router.value()->Shutdown();
  const serve::RouterStats stats = router.value()->stats();
  std::printf(
      "routed %lld requests over %lld connections "
      "(%lld retries, %lld failovers, %lld catalogs, %lld upstream errors, "
      "%lld reload barriers)\n",
      static_cast<long long>(stats.requests),
      static_cast<long long>(stats.connections_accepted),
      static_cast<long long>(stats.retries),
      static_cast<long long>(stats.failovers),
      static_cast<long long>(stats.fanouts),
      static_cast<long long>(stats.upstream_errors),
      static_cast<long long>(stats.reload_barriers));
  return 0;
}
