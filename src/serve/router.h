#ifndef RRRE_SERVE_ROUTER_H_
#define RRRE_SERVE_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/socket.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "serve/line_server.h"

namespace rrre::serve {

/// Rendezvous (highest-random-weight) placement: every backend index in
/// `[0, num_backends)` exactly once, ordered by a per-(user, backend) hash,
/// highest first. The first entry is `user`'s home shard and the rest its
/// failover order. A backend's weight for a user does not depend on the
/// fleet size, so adding a backend moves only the users it now wins (about
/// 1/N of them), and a dead shard's users spread over all the others.
std::vector<int> PreferenceOrder(int64_t user, int num_backends);

/// Configuration of the rrre_routed proxy.
struct RouterOptions {
  struct Backend {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
  };
  /// The shard fleet. At startup every backend must be reachable and all
  /// must agree on corpus bounds and params fingerprint — a fleet already
  /// serving two parameter versions is refused rather than proxied.
  std::vector<Backend> backends;
  /// TCP port the router listens on; 0 picks an ephemeral port.
  uint16_t port = 0;
  int64_t max_connections = 128;
  /// Per-operation send/recv deadline on backend connections. A backend
  /// that stalls past this is treated exactly like a dead one: the request
  /// fails over to a replica.
  int backend_timeout_ms = 5000;
  /// Read deadline on client connections; 0 = none (same as ServerOptions).
  int read_timeout_ms = 0;
  /// Failover attempts beyond the first try, walking the user's preference
  /// order with equal-jitter backoff (loadgen's BackoffUs) between attempts.
  int64_t max_retries = 2;
  int64_t backoff_base_us = 500;
  int64_t backoff_cap_us = 50000;
  /// Health-check cadence: PING liveness + STATS fingerprint per backend.
  int health_period_ms = 200;
  /// When true the router owns a MetricsRegistry and answers METRICS with
  /// its own counters followed by every serving backend's exposition,
  /// relabeled with a per-shard label.
  bool enable_metrics = true;
};

struct RouterStats {
  int64_t connections_accepted = 0;
  int64_t connections_active = 0;
  int64_t connections_rejected = 0;
  int64_t read_timeouts = 0;  ///< Clients dropped by the read deadline.
  int64_t requests = 0;      ///< Protocol requests parsed (incl. control).
  int64_t parse_errors = 0;
  int64_t retries = 0;       ///< Backend round-trips retried after a fault.
  int64_t failovers = 0;     ///< Requests answered by a non-home shard.
  int64_t upstream_errors = 0;  ///< Requests that exhausted every replica.
  int64_t fanouts = 0;       ///< Catalog requests routed.
  int64_t reload_barriers = 0;  ///< Rolling reloads orchestrated.
  int64_t quarantined = 0;   ///< Backends currently fingerprint-diverged.
};

/// The rrre_routed sharding proxy: a thin line-protocol front-end, on the
/// same LineServer as rrre_served, that places users on N rrre_served
/// backends by rendezvous hashing, sends each pair or bare-user catalog
/// request whole to the user's home shard, health-checks backends via PING,
/// fails requests over to the next shard in the user's order on connection
/// reset / EOF / deadline or a misaligned answer, and orchestrates rolling
/// RELOADs behind a params-fingerprint barrier so no client connection ever
/// observes two parameter versions.
///
/// Response bytes are relayed verbatim, so a routed response is
/// byte-identical to the same request served by a single direct backend. A
/// catalog answer is relayed only once its header and every item line have
/// arrived and checked out (header for this user and the fleet's item count,
/// line k starting `user \t k \t`); a torn or misaligned catalog closes the
/// link and the whole catalog is retried on the next shard.
///
/// Retry policy and idempotency: pair/catalog scoring, PING, STATS and
/// METRICS are idempotent, so a request that *may* have reached a backend
/// (partial send progress, or a torn response) is still safe to resend to a
/// replica. RELOAD is not idempotent per wire-attempt; a RELOAD whose
/// delivery is uncertain is never blindly resent — the router re-polls the
/// backend's STATS generation/fingerprint to learn whether it landed
/// (Socket::SendAll's bytes_sent out-param is what makes the distinction
/// observable).
///
/// Failpoints (armed per client round-trip to a backend, never on the
/// health pass; see common/failpoint.h): `router.backend.send` (injected
/// failure before any byte leaves — the never-sent path),
/// `router.backend.reset` (connection reset after the request was sent),
/// `router.backend.stall` (backend deadline fires while awaiting the
/// response), `router.backend.torn` (response cut off mid-line; the link is
/// closed).
class Router {
 public:
  /// Probes every backend, verifies the fleet serves one parameter version,
  /// binds the listener and starts accepting and health checking.
  static common::Result<std::unique_ptr<Router>> Start(
      const RouterOptions& options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Bound port (useful with options.port == 0).
  uint16_t port() const { return lines_.port(); }

  /// Graceful drain; idempotent; blocks until everything is joined.
  void Shutdown();

  RouterStats stats() const;

  /// The fingerprint every serving backend agreed on at startup / after the
  /// last reload barrier.
  uint64_t fleet_fingerprint() const { return fleet_fingerprint_.load(); }

  /// Home shard of `user`: the first entry of its PreferenceOrder (ignores
  /// health; tests use this to pick which backend to kill).
  int HomeShard(int64_t user) const {
    return PreferenceOrder(user,
                           static_cast<int>(options_.backends.size()))[0];
  }

  /// True when backend `index` is alive and not quarantined.
  bool BackendServing(int index) const;

 private:
  class Session;
  struct BackendState;

  Router(const RouterOptions& options, common::Socket listener,
         std::unique_ptr<obs::MetricsRegistry> metrics);

  void HealthLoop();
  /// One health pass: PING + STATS every backend, record liveness,
  /// fingerprint and generation, quarantine fingerprint divergers.
  void HealthPass();
  std::string FormatStatsLine() const;

  /// Serving backend indices in fleet order (alive, not quarantined).
  std::vector<int> ServingBackends() const;

  const RouterOptions options_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  obs::Counter* m_requests_ = nullptr;
  obs::Counter* m_parse_errors_ = nullptr;
  obs::Counter* m_retries_ = nullptr;
  obs::Counter* m_failovers_ = nullptr;
  obs::Counter* m_upstream_errors_ = nullptr;
  obs::Counter* m_fanouts_ = nullptr;
  obs::Counter* m_reload_barriers_ = nullptr;
  obs::Gauge* m_backends_serving_ = nullptr;
  obs::Gauge* m_quarantined_ = nullptr;

  std::vector<std::unique_ptr<BackendState>> backends_;
  /// Corpus bounds the fleet agreed on: set at startup and by each rolling
  /// reload, from the STATS line that sets the fleet fingerprint.
  std::atomic<int64_t> fleet_users_{0};
  std::atomic<int64_t> fleet_items_{0};
  std::atomic<uint64_t> fleet_fingerprint_{0};

  /// The rolling-reload barrier. Scoring dispatch holds it shared; a RELOAD
  /// orchestration holds it exclusive until the fleet has converged on one
  /// fingerprint — that exclusion is the "no connection observes two
  /// parameter versions" invariant.
  mutable std::shared_mutex reload_mu_;

  std::atomic<bool> stopping_{false};  ///< Stops the health thread.
  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> parse_errors_{0};
  std::atomic<int64_t> retries_{0};
  std::atomic<int64_t> failovers_{0};
  std::atomic<int64_t> upstream_errors_{0};
  std::atomic<int64_t> fanouts_{0};
  std::atomic<int64_t> reload_barriers_{0};

  std::once_flag shutdown_once_;
  std::thread health_thread_;
  /// Declared last: it registers into metrics_, and its connection threads
  /// call into everything above.
  LineServer lines_;
};

}  // namespace rrre::serve

#endif  // RRRE_SERVE_ROUTER_H_
