#ifndef RRRE_SERVE_SERVER_H_
#define RRRE_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/socket.h"
#include "common/status.h"
#include "core/config.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/line_server.h"

namespace rrre::serve {

struct Request;

struct ServerOptions {
  /// Architecture config matching the checkpoint (the checkpoint stores
  /// parameters, not the RrreConfig).
  core::RrreConfig config;
  /// Checkpoint prefix loaded at startup and re-loaded on hot reload.
  std::string model_prefix;
  /// When non-empty, serve from this published tower store (mapped
  /// read-only at startup and re-mapped + fingerprint-verified on every
  /// reload — see MicroBatcher::Options::store_path). Startup fails if the
  /// store is missing, corrupt, or stale for the checkpoint. When empty,
  /// every profile is computed at startup and again at each reload.
  std::string store_path;
  /// TCP port to listen on; 0 picks an ephemeral port (see Server::port()).
  uint16_t port = 0;
  MicroBatcher::Options batcher;
  /// Connections beyond this are answered with "!ERR busy" and closed.
  int64_t max_connections = 256;
  /// Receive/send deadline on accepted connections in milliseconds; 0 = no
  /// deadline. With a deadline, a client that connects and then goes silent
  /// is disconnected instead of pinning a connection slot (and a graceful
  /// drain) forever, and a client that stops reading cannot stall the
  /// writer past the deadline either.
  int read_timeout_ms = 0;
  /// When true the server owns a MetricsRegistry, instruments itself and the
  /// batcher into it, and answers the METRICS verb with its exposition.
  /// False turns all metric writes into dead branches (the baseline
  /// instrumentation overhead is measured against); METRICS then answers
  /// "!ERR metrics". STATS is unaffected either way.
  bool enable_metrics = true;
};

struct ServerStats {
  int64_t connections_accepted = 0;
  int64_t connections_active = 0;
  int64_t connections_rejected = 0;
  int64_t requests = 0;      ///< Protocol requests parsed (incl. control).
  int64_t parse_errors = 0;
  int64_t range_errors = 0;
  int64_t overloads = 0;     ///< Requests refused by admission control.
  int64_t read_timeouts = 0; ///< Connections dropped by the read deadline.
  MicroBatcher::Stats batcher;
};

/// The long-lived rrre_served server: accepts concurrent line-protocol
/// connections (see serve/protocol.h) through a LineServer, funnels score
/// requests into the MicroBatcher, and writes responses back in request
/// order per connection. Every score comes from a tower store: the
/// published one at ServerOptions::store_path, or one computed in memory
/// before the server listens.
///
/// Each request line gets an ordered reply slot. Control verbs and parse,
/// range and overload errors fill it at once; score requests fill it from
/// the batcher's callback, and the connection's writer sends the slots
/// strictly in request order.
///
/// Shutdown() drains gracefully: the listener stops, every connection's read
/// side is half-closed (clients see EOF for new requests), all admitted
/// requests still get their responses, then threads are joined.
class Server {
 public:
  /// Loads the checkpoint and its tower store (LoadSnapshotStore), binds the
  /// listener and starts the accept loop. A store that cannot be mapped or
  /// computed — e.g. a config whose history sampling is not kLatest — is
  /// returned as an error.
  static common::Result<std::unique_ptr<Server>> Start(
      const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bound port (useful with options.port == 0).
  uint16_t port() const { return lines_.port(); }

  /// Asynchronous hot reload of options.model_prefix (the SIGHUP path).
  /// The outcome is logged; pass `done` to observe it.
  void Reload(MicroBatcher::ReloadDoneFn done = nullptr);

  /// Graceful drain; idempotent; blocks until everything is joined.
  void Shutdown();

  ServerStats stats() const;

  /// The METRICS exposition text (empty when metrics are disabled). The
  /// scrape is read-only: it never moves a metric, so back-to-back calls
  /// with no intervening traffic return byte-identical text.
  std::string RenderMetricsText() const;

  /// The scheduler, exposed for tests (Pause/Resume/Drain) and stats.
  MicroBatcher& batcher() { return *batcher_; }

 private:
  Server(const ServerOptions& options,
         std::unique_ptr<obs::MetricsRegistry> metrics,
         std::unique_ptr<MicroBatcher> batcher, common::Socket listener);

  /// The connection handler: answers one request line through `reply`.
  bool HandleLine(const std::string& line, LineServer::Reply reply);
  void HandleScoreRequest(const Request& req, LineServer::Reply reply);
  std::string FormatStatsLine() const;
  std::string FormatMetricsResponse() const;

  ServerOptions options_;
  /// Owns the batcher's registry too (batcher options point into it); null
  /// when options_.enable_metrics is false. Declared before batcher_ so the
  /// registry outlives every handle.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  obs::Counter* m_requests_ = nullptr;        ///< Score requests only.
  obs::Counter* m_parse_errors_ = nullptr;
  obs::Counter* m_range_errors_ = nullptr;
  obs::Counter* m_overloads_ = nullptr;
  std::unique_ptr<MicroBatcher> batcher_;

  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> parse_errors_{0};
  std::atomic<int64_t> range_errors_{0};
  std::atomic<int64_t> overloads_{0};

  std::once_flag shutdown_once_;
  /// Declared last: it registers into metrics_, and its connection threads
  /// call into everything above.
  LineServer lines_;
};

}  // namespace rrre::serve

#endif  // RRRE_SERVE_SERVER_H_
