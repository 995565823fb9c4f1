// Online inference server for a trained RRRE checkpoint — the long-lived
// counterpart of the offline rrre_serve batch tool:
//
//   rrre_served --model=/ckpt/m --port=7475
//               [--store=/ckpt/m.tower_store]
//               [--max_batch=64 --max_delay_us=1000 --queue_cap=1024]
//               [--read_timeout_ms=0] [--max_connections=256]
//               [--num_threads=8] [--su=5 --si=7 --seed=42]
//
// Clients speak a line protocol (see src/serve/protocol.h): "user<TAB>item"
// scores one pair, a bare "user" scores the whole catalog, and PING / STATS
// / METRICS / RELOAD / QUIT are control commands (METRICS returns a
// Prometheus-style exposition; disable the registry with --metrics=false). Requests from all connections are
// funneled into a dynamic micro-batcher (up to --max_batch pairs or
// --max_delay_us of linger, whichever first) scoring from a tower store: the
// FM heads over precomputed user and item profiles, zero tower work per
// request. The admission queue is bounded (--queue_cap); an overloaded
// server answers "!ERR overload" immediately instead of queueing
// unboundedly.
//
// --store=PATH serves from a published tower store (rrre_store_build):
// profiles are read out of the mmap'd file, one shared page-cache copy
// across serving processes. The store must match the checkpoint's parameter
// fingerprint or startup fails. Without --store the server computes every
// profile over the global thread pool at startup, before it listens, and
// again at each reload; scores are bitwise identical either way.
//
// SIGHUP (or the RELOAD command) hot-reloads the checkpoint: the new
// snapshot is loaded off to the side and swapped in between batches, so
// in-flight batches finish on the old parameters and no batch ever mixes
// versions. The store swaps in the same step: with --store it is re-mapped
// and fingerprint-verified against the new checkpoint — a stale or torn
// store fails the reload and the old snapshot plus old store keep serving;
// without it, the new checkpoint's profiles are computed.
// SIGINT/SIGTERM drain gracefully: admitted requests are answered,
// then the process exits.
//
// The architecture flags (--su, --si, --seed) must match the training run;
// loading refuses a checkpoint whose recorded --su/--si differ.

#include <chrono>
#include <cstdio>
#include <thread>

#include "common/flags.h"
#include "common/logging.h"
#include "common/signals.h"
#include "common/threadpool.h"
#include "serve/server.h"

int main(int argc, char** argv) {
  using namespace rrre;  // NOLINT(build/namespaces)

  common::FlagParser flags;
  flags.AddString("model", "", "checkpoint prefix written by rrre_cli train");
  flags.AddString("store", "",
                  "serve from this published tower store (built by "
                  "rrre_store_build; must match the checkpoint); without "
                  "it, every profile is computed at startup and each reload");
  flags.AddInt("port", 7475, "TCP port to listen on (0 = ephemeral)");
  flags.AddInt("max_batch", 64, "max expanded pairs per scoring batch");
  flags.AddInt("max_delay_us", 1000,
               "batching linger after the first queued request");
  flags.AddInt("queue_cap", 1024, "admission queue bound (requests)");
  flags.AddInt("max_connections", 256, "concurrent connection limit");
  flags.AddInt("read_timeout_ms", 0,
               "drop connections idle past this deadline (0 = no deadline)");
  flags.AddBool("metrics", true,
                "maintain the metrics registry and answer the METRICS verb");
  flags.AddInt("num_threads", 0, "global thread pool size (0 = hardware)");
  flags.AddInt("su", 5, "user history slots (must match training)");
  flags.AddInt("si", 7, "item history slots (must match training)");
  flags.AddInt("seed", 42, "random seed (must match training)");
  RRRE_CHECK_OK(flags.Parse(argc, argv));
  if (flags.help_requested()) {
    std::printf("usage: %s --model=PREFIX --port=PORT\n%s", argv[0],
                flags.Usage(argv[0]).c_str());
    return 0;
  }
  if (flags.GetString("model").empty()) {
    std::fprintf(stderr, "--model is required (see --help)\n");
    return 2;
  }

  common::ThreadPool::SetGlobalSize(
      static_cast<int>(flags.GetInt("num_threads")));
  common::InstallServeSignalHandlers();

  serve::ServerOptions options;
  options.config.s_u = flags.GetInt("su");
  options.config.s_i = flags.GetInt("si");
  options.config.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  options.model_prefix = flags.GetString("model");
  options.store_path = flags.GetString("store");
  options.port = static_cast<uint16_t>(flags.GetInt("port"));
  options.batcher.max_batch = flags.GetInt("max_batch");
  options.batcher.max_delay_us = flags.GetInt("max_delay_us");
  options.batcher.queue_capacity = flags.GetInt("queue_cap");
  options.max_connections = flags.GetInt("max_connections");
  options.read_timeout_ms = static_cast<int>(flags.GetInt("read_timeout_ms"));
  options.enable_metrics = flags.GetBool("metrics");

  auto server = serve::Server::Start(options);
  if (!server.ok()) {
    std::fprintf(stderr, "rrre_served failed to start: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  std::printf("rrre_served listening on port %u (model %s, %d threads, %s)\n",
              server.value()->port(), options.model_prefix.c_str(),
              common::ThreadPool::GlobalSize(),
              options.store_path.empty() ? "store computed" : "store mapped");
  std::fflush(stdout);

  uint64_t reloads_seen = common::ReloadRequestCount();
  while (!common::ShutdownRequested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const uint64_t reloads_now = common::ReloadRequestCount();
    if (reloads_now != reloads_seen) {
      reloads_seen = reloads_now;
      std::printf("SIGHUP: reloading %s\n", options.model_prefix.c_str());
      std::fflush(stdout);
      server.value()->Reload();
    }
  }

  std::printf("shutting down: draining connections...\n");
  std::fflush(stdout);
  server.value()->Shutdown();
  const serve::ServerStats stats = server.value()->stats();
  std::printf(
      "served %lld requests over %lld connections "
      "(%lld batches, %lld pairs, %lld overloads, %lld reloads)\n",
      static_cast<long long>(stats.requests),
      static_cast<long long>(stats.connections_accepted),
      static_cast<long long>(stats.batcher.batches),
      static_cast<long long>(stats.batcher.pairs_scored),
      static_cast<long long>(stats.overloads),
      static_cast<long long>(stats.batcher.reloads));
  std::printf("batch size (pairs): %s\n",
              stats.batcher.batch_pairs.Summary().c_str());
  std::printf("batch latency (us): %s\n",
              stats.batcher.batch_latency_us.Summary().c_str());
  return 0;
}
