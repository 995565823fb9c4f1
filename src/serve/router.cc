#include "serve/router.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <limits>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "serve/loadgen.h"
#include "serve/protocol.h"

namespace rrre::serve {

using common::Result;
using common::Socket;
using common::Status;

namespace {

inline void Inc(obs::Counter* counter) {
  if (counter != nullptr) counter->Increment();
}

/// splitmix64: cheap, well-mixed 64-bit hash for placement weights.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Rewrites one backend exposition line with a `shard` label so per-shard
/// series stay distinguishable after aggregation. Comment lines (`# TYPE`)
/// are dropped — the merged exposition would otherwise repeat them per
/// shard. Returns "" for lines to drop.
std::string RelabelShardLine(const std::string& line, int shard) {
  if (line.empty() || line[0] == '#') return "";
  const size_t space = line.find(' ');
  if (space == std::string::npos) return "";
  const std::string label = "shard=\"" + std::to_string(shard) + "\"";
  std::string name = line.substr(0, space);
  const size_t brace = name.find('{');
  if (brace == std::string::npos) {
    name += "{" + label + "}";
  } else {
    name.insert(brace + 1, label + ",");
  }
  return name + line.substr(space) + "\n";
}

/// The router's one kind of link to a shard, used by client sessions, the
/// health pass and the startup probe. It connects lazily with both
/// per-operation deadlines at backend_timeout_ms — the stall detector: a
/// backend that stops answering turns into DeadlineExceeded and the request
/// fails over — and closes after any failed operation. A failed link is
/// never reused: leftover reply bytes would misalign every later
/// request/reply pairing on it. The router.backend.* failpoints fire only on
/// links made with `failpoints` (client sessions), so the health thread
/// never consumes a test's fault schedule.
class BackendLink {
 public:
  BackendLink(RouterOptions::Backend addr, int timeout_ms, bool failpoints)
      : addr_(std::move(addr)),
        timeout_ms_(timeout_ms),
        failpoints_(failpoints) {}

  /// Sends one request wire. On failure `*maybe_delivered` says whether any
  /// byte left this host — the never-sent / maybe-delivered distinction
  /// (Socket::SendAll's partial-progress count) that gates whether
  /// non-idempotent verbs may be resent.
  Status Send(const std::string& wire, bool* maybe_delivered = nullptr) {
    bool delivered = false;
    if (maybe_delivered == nullptr) maybe_delivered = &delivered;
    *maybe_delivered = false;
    if (open_ == nullptr) {
      auto sock = Socket::Connect(addr_.host, addr_.port);
      if (!sock.ok()) return sock.status();
      RRRE_RETURN_IF_ERROR(sock.value().SetRecvTimeout(timeout_ms_));
      RRRE_RETURN_IF_ERROR(sock.value().SetSendTimeout(timeout_ms_));
      open_ = std::make_unique<Open>(std::move(sock).ValueOrDie());
    }
    if (Fires("router.backend.send")) {
      // Injected failure before any byte leaves: the never-sent path.
      Close();
      return Status::IoError("backend send failed before any byte"
                             " [failpoint router.backend.send]");
    }
    size_t sent = 0;
    const Status status = open_->socket.SendAll(wire, &sent);
    *maybe_delivered = sent > 0;
    if (!status.ok()) {
      Close();
      return status;
    }
    if (Fires("router.backend.reset")) {
      // Reset after the request went out: delivery is uncertain.
      Close();
      return Status::IoError("backend connection reset after send"
                             " [failpoint router.backend.reset]");
    }
    return Status::Ok();
  }

  /// Reads one reply line; closes the link on any failure (EOF, reset read
  /// as EOF, deadline, a torn or over-long line).
  Result<std::string> ReadLine() {
    if (open_ == nullptr) return Status::IoError("backend link is closed");
    if (Fires("router.backend.stall")) {
      Close();
      return Status::DeadlineExceeded(
          "backend stalled [failpoint router.backend.stall]");
    }
    auto line = open_->reader.ReadLine();
    if (!line.ok()) {
      Close();
      return line.status();
    }
    if (!line.value().has_value()) {
      const size_t torn = open_->reader.partial_bytes();
      Close();
      return Status::IoError(
          torn > 0 ? "backend closed mid-response (" + std::to_string(torn) +
                         " bytes of a torn line)"
                   : "backend closed the connection");
    }
    if (Fires("router.backend.torn")) {
      // The response was cut off mid-line: discard what arrived and close
      // the link, exactly as a real torn read would.
      Close();
      return Status::IoError(
          "backend response torn [failpoint router.backend.torn]");
    }
    return std::move(*line.value());
  }

  void Close() { open_.reset(); }

 private:
  /// A connected socket and its reader, heap-held so the reader's socket
  /// pointer stays valid when the link moves.
  struct Open {
    explicit Open(Socket s) : socket(std::move(s)) {}
    Socket socket;
    common::LineReader reader{&socket};
  };

  bool Fires(const char* failpoint) const {
    return failpoints_ && common::failpoint::Enabled() &&
           common::failpoint::Check(failpoint).has_value();
  }

  RouterOptions::Backend addr_;
  int timeout_ms_;
  bool failpoints_;
  std::unique_ptr<Open> open_;
};

/// Reads one STATS reply; a reply that does not parse or reports no corpus
/// bounds closes the link.
Result<StatsLine> ReadStats(BackendLink& link) {
  auto line = link.ReadLine();
  if (!line.ok()) return line.status();
  auto stats = ParseStatsLine(line.value());
  if (stats.ok() && (stats.value().users <= 0 || stats.value().items <= 0)) {
    stats = Status::Internal("STATS did not report corpus bounds: " +
                             line.value());
  }
  if (!stats.ok()) link.Close();
  return stats;
}

Result<StatsLine> QueryStats(BackendLink& link) {
  RRRE_RETURN_IF_ERROR(link.Send("STATS\n"));
  return ReadStats(link);
}

/// The health pass's one round trip: PING must pong (liveness) and STATS
/// must carry a fingerprint (version).
Result<StatsLine> CheckHealth(BackendLink& link) {
  RRRE_RETURN_IF_ERROR(link.Send("PING\nSTATS\n"));
  auto pong = link.ReadLine();
  if (!pong.ok()) return pong.status();
  if (pong.value() != "#pong") {
    link.Close();
    return Status::Internal("PING answered " + pong.value());
  }
  return ReadStats(link);
}

}  // namespace

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

std::vector<int> PreferenceOrder(int64_t user, int num_backends) {
  RRRE_CHECK_GE(num_backends, 1);
  const uint64_t key = Mix64(static_cast<uint64_t>(user));
  std::vector<std::pair<uint64_t, int>> weighted;
  weighted.reserve(static_cast<size_t>(num_backends));
  for (int b = 0; b < num_backends; ++b) {
    // Weight = hash(user, backend): independent of the fleet size, so adding
    // a backend changes no other backend's weight.
    weighted.emplace_back(Mix64(key ^ Mix64(static_cast<uint64_t>(b))), b);
  }
  std::sort(weighted.begin(), weighted.end(), std::greater<>());
  std::vector<int> order;
  order.reserve(weighted.size());
  for (const auto& [weight, b] : weighted) order.push_back(b);
  return order;
}

// ---------------------------------------------------------------------------
// Backend state (health-thread-owned link + shared flags)
// ---------------------------------------------------------------------------

struct Router::BackendState {
  BackendState(const RouterOptions::Backend& a, int timeout_ms)
      : addr(a), health(a, timeout_ms, /*failpoints=*/false) {}
  RouterOptions::Backend addr;
  std::atomic<bool> alive{true};
  std::atomic<bool> quarantined{false};
  std::atomic<uint64_t> fingerprint{0};
  std::atomic<int64_t> generation{0};
  BackendLink health;  ///< Touched only by the health thread.
};

// ---------------------------------------------------------------------------
// Session: one client connection's request handler
// ---------------------------------------------------------------------------

/// Requests on a connection are handled strictly in arrival order on its
/// reader thread, each answered before the next is read, so a connection
/// can never interleave two parameter versions within a single routed
/// response. Each session owns its own lazy backend links — no
/// cross-connection multiplexing, so a failed link can only ever misalign
/// the connection that broke it (and it is closed before that).
class Router::Session {
 public:
  Session(Router* router, int64_t index)
      : router_(router),
        rng_(0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(index) + 1)) {
    for (const auto& backend : router->backends_) {
      links_.emplace_back(backend->addr, router->options_.backend_timeout_ms,
                          /*failpoints=*/true);
    }
  }

  std::string HandleLine(const std::string& line, bool* close) {
    const Request req = ParseRequest(line);
    if (req.type == Request::Type::kBlank) return "";
    router_->requests_.fetch_add(1);
    Inc(router_->m_requests_);
    switch (req.type) {
      case Request::Type::kPing:
        return FormatPong();
      case Request::Type::kStats:
        return router_->FormatStatsLine();
      case Request::Type::kMetrics:
        return HandleMetrics();
      case Request::Type::kQuit:
        *close = true;
        return FormatBye();
      case Request::Type::kReload:
        return HandleReload();
      case Request::Type::kInvalid:
        router_->parse_errors_.fetch_add(1);
        Inc(router_->m_parse_errors_);
        return FormatError("parse", req.error);
      case Request::Type::kCatalog:
        router_->fanouts_.fetch_add(1);
        Inc(router_->m_fanouts_);
        [[fallthrough]];
      case Request::Type::kPair: {
        // Scoring holds the reload barrier shared: a rolling reload cannot
        // start mid-request, and no request dispatches mid-roll.
        std::shared_lock<std::shared_mutex> barrier(router_->reload_mu_);
        return Route(line, req);
      }
      case Request::Type::kBlank:
        return "";
    }
    return "";
  }

  BackendLink& Link(int k) { return links_[static_cast<size_t>(k)]; }

  void Backoff(int64_t attempt) {
    std::this_thread::sleep_for(std::chrono::microseconds(
        BackoffUs(attempt, router_->options_.backoff_base_us,
                  router_->options_.backoff_cap_us, rng_)));
  }

  /// The serving backend for `user` at retry `attempt`: walk the user's
  /// preference order restricted to serving backends, cycling if the retry
  /// budget exceeds the fleet. -1 when nothing serves.
  int PickBackend(const std::vector<int>& preference, int64_t attempt) const {
    std::vector<int> serving;
    for (int k : preference) {
      if (router_->BackendServing(k)) serving.push_back(k);
    }
    if (serving.empty()) return -1;
    return serving[static_cast<size_t>(attempt) % serving.size()];
  }

  /// Routes a pair or bare-user catalog request whole to the user's home
  /// shard and returns the shard's whole answer. Transport faults and
  /// misaligned answers fail over along the user's preference order with
  /// jittered backoff; scoring is idempotent, so maybe-delivered requests
  /// are still resent. Error answers (range, overload) relay to the client,
  /// exactly as a direct backend gives them.
  std::string Route(const std::string& line, const Request& req) {
    const std::string wire = line + "\n";
    const std::vector<int> preference = PreferenceOrder(
        req.user, static_cast<int>(router_->backends_.size()));
    Status last = Status::FailedPrecondition("no serving backends");
    for (int64_t attempt = 0; attempt <= router_->options_.max_retries;
         ++attempt) {
      if (attempt > 0) {
        router_->retries_.fetch_add(1);
        Inc(router_->m_retries_);
        Backoff(attempt - 1);
      }
      const int k = PickBackend(preference, attempt);
      if (k < 0) continue;
      last = Link(k).Send(wire);
      if (!last.ok()) continue;
      auto answer = ReadAnswer(Link(k), req);
      if (!answer.ok()) {
        last = answer.status();
        continue;
      }
      if (k != preference[0]) {
        router_->failovers_.fetch_add(1);
        Inc(router_->m_failovers_);
      }
      return std::move(answer).ValueOrDie();
    }
    router_->upstream_errors_.fetch_add(1);
    Inc(router_->m_upstream_errors_);
    return FormatError("upstream", last.message());
  }

  /// Reads one whole answer to `req`: a single line, or for a catalog the
  /// `#catalog` header and every item line, returned only once all have
  /// arrived. The header must name this user and the fleet's item count, and
  /// item line k must start `user \t k \t`; anything else means the stream
  /// lost alignment, so the link is closed and nothing is relayed.
  Result<std::string> ReadAnswer(BackendLink& link, const Request& req) {
    auto head = link.ReadLine();
    if (!head.ok()) return head.status();
    std::string out = std::move(head).ValueOrDie() + "\n";
    if (req.type != Request::Type::kCatalog || IsErrorLine(out)) return out;
    const int64_t num_items = router_->fleet_items_.load();
    if (out != FormatCatalogHeader(req.user, num_items)) {
      link.Close();
      return Status::Internal("catalog header does not match the fleet: " +
                              out.substr(0, out.size() - 1));
    }
    const std::string user_prefix = std::to_string(req.user) + "\t";
    for (int64_t item = 0; item < num_items; ++item) {
      auto item_line = link.ReadLine();
      if (!item_line.ok()) return item_line.status();
      if (!common::StartsWith(item_line.value(),
                              user_prefix + std::to_string(item) + "\t")) {
        link.Close();
        return Status::Internal("catalog line " + std::to_string(item) +
                                " is misaligned: " + item_line.value());
      }
      out += item_line.value();
      out += '\n';
    }
    return out;
  }

  // -- rolling reload -------------------------------------------------------

  /// After a RELOAD whose delivery is uncertain (sent but the answer was
  /// lost): never resend — poll STATS until the generation advances past
  /// `generation_before`. Resending would reload twice; polling observes
  /// what actually happened.
  Status AwaitReloadLanded(int k, int64_t generation_before) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(router_->options_.backend_timeout_ms);
    Status last = Status::DeadlineExceeded("reload outcome unknown");
    while (std::chrono::steady_clock::now() < deadline) {
      auto stats = QueryStats(Link(k));
      if (stats.ok()) {
        if (stats.value().generation > generation_before) return Status::Ok();
        last = Status::Internal("reload did not advance the generation");
      } else {
        last = stats.status();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return last;
  }

  Status ReloadBackend(int k) {
    auto before = QueryStats(Link(k));
    if (!before.ok()) return before.status();
    Status last = Status::FailedPrecondition("no reload attempt made");
    for (int64_t attempt = 0; attempt <= router_->options_.max_retries;
         ++attempt) {
      if (attempt > 0) Backoff(attempt - 1);
      bool maybe_delivered = false;
      const Status sent = Link(k).Send("RELOAD\n", &maybe_delivered);
      if (!sent.ok()) {
        if (!maybe_delivered) {
          // Never left this host: resending cannot double-reload.
          last = sent;
          continue;
        }
        return AwaitReloadLanded(k, before.value().generation);
      }
      auto resp = Link(k).ReadLine();
      if (!resp.ok()) {
        return AwaitReloadLanded(k, before.value().generation);
      }
      if (common::StartsWith(resp.value(), "#reloaded\t")) return Status::Ok();
      return Status::Internal("backend refused reload: " + resp.value());
    }
    return last;
  }

  /// Rolling RELOAD across the fleet behind the exclusive barrier: reload
  /// every live shard one at a time, quarantined ones included, so a shard
  /// that missed an earlier roll catches up. Then read one STATS from each:
  /// a shard answers a reload only after it serves the new fingerprint, so
  /// that read is final. The fleet takes the fingerprint of the first shard
  /// whose reload succeeded; shards that serve another (their reload failed
  /// and they kept the old snapshot) or do not answer are quarantined and
  /// the rest un-quarantined, so scoring resumes against a fleet that
  /// provably serves one parameter version.
  std::string HandleReload() {
    std::unique_lock<std::shared_mutex> barrier(router_->reload_mu_);
    std::vector<int> live;
    for (size_t k = 0; k < router_->backends_.size(); ++k) {
      if (router_->backends_[k]->alive.load()) {
        live.push_back(static_cast<int>(k));
      }
    }
    if (live.empty()) {
      return FormatError("reload", "no live backends");
    }
    router_->reload_barriers_.fetch_add(1);
    Inc(router_->m_reload_barriers_);

    std::vector<bool> reloaded;
    Status first_error = Status::Ok();
    for (const int k : live) {
      const Status status = ReloadBackend(k);
      reloaded.push_back(status.ok());
      if (!status.ok()) {
        if (first_error.ok()) first_error = status;
        RRRE_LOG_WARNING << "rolling reload: backend " << k
                         << " failed: " << status.ToString();
      }
    }
    if (std::count(reloaded.begin(), reloaded.end(), true) == 0) {
      return FormatError("reload", first_error.ToString());
    }

    // The fleet takes its fingerprint and corpus bounds from the same
    // STATS line: a checkpoint on a larger corpus moves both.
    uint64_t target = 0;
    std::vector<Result<StatsLine>> stats;
    for (size_t i = 0; i < live.size(); ++i) {
      stats.push_back(QueryStats(Link(live[i])));
      if (target == 0 && reloaded[i] && stats.back().ok()) {
        target = stats.back().value().fingerprint;
        router_->fleet_users_.store(stats.back().value().users);
        router_->fleet_items_.store(stats.back().value().items);
      }
    }
    // Quarantine divergers; publish the new fleet fingerprint.
    int64_t quarantined = 0;
    int64_t min_generation = std::numeric_limits<int64_t>::max();
    for (size_t i = 0; i < live.size(); ++i) {
      auto& backend = *router_->backends_[static_cast<size_t>(live[i])];
      const uint64_t fp = stats[i].ok() ? stats[i].value().fingerprint : 0;
      const bool diverged = !stats[i].ok() || fp != target;
      backend.fingerprint.store(fp);
      backend.quarantined.store(diverged);
      if (diverged) {
        ++quarantined;
        RRRE_LOG_WARNING << "rolling reload: backend " << live[i]
                         << " diverged (fingerprint " << fp << " != "
                         << target << "); quarantined";
      } else {
        min_generation =
            std::min(min_generation, stats[i].value().generation);
      }
    }
    router_->fleet_fingerprint_.store(target);
    if (router_->m_quarantined_ != nullptr) {
      int64_t total = 0;
      for (const auto& b : router_->backends_) {
        total += b->quarantined.load() ? 1 : 0;
      }
      router_->m_quarantined_->Set(total);
    }
    if (quarantined > 0) {
      return FormatError(
          "reload", common::StrFormat("%lld of %zu live backends quarantined",
                                      static_cast<long long>(quarantined),
                                      live.size()));
    }
    return FormatReloaded(min_generation);
  }

  // -- metrics aggregation --------------------------------------------------

  /// The router's own exposition followed by every serving backend's,
  /// relabeled with `shard="k"`. A shard that fails mid-scrape is skipped —
  /// a scrape is best-effort observability, not a scoring path.
  std::string HandleMetrics() {
    if (router_->metrics_ == nullptr) {
      return FormatError("metrics", "metrics are disabled on this router");
    }
    std::shared_lock<std::shared_mutex> barrier(router_->reload_mu_);
    std::string text = router_->metrics_->RenderText();
    for (const int k : router_->ServingBackends()) {
      if (!Link(k).Send("METRICS\n").ok()) continue;
      auto header = Link(k).ReadLine();
      if (!header.ok()) continue;
      if (!common::StartsWith(header.value(), "#metrics\tlines=")) {
        continue;  // Metrics disabled on that shard — its error was 1 line.
      }
      const long long lines = std::atoll(header.value().c_str() +
                                         sizeof("#metrics\tlines=") - 1);
      std::string shard_text;
      bool ok = true;
      for (long long i = 0; i < lines; ++i) {
        auto line = Link(k).ReadLine();
        if (!line.ok()) {
          ok = false;
          break;
        }
        shard_text += RelabelShardLine(line.value(), k);
      }
      if (ok) text += shard_text;
    }
    int64_t count = 0;
    for (const char c : text) count += c == '\n' ? 1 : 0;
    return FormatMetricsHeader(count) + text;
  }

  Router* router_;
  std::vector<BackendLink> links_;  ///< One per backend, by index.
  common::Rng rng_;
};

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

Result<std::unique_ptr<Router>> Router::Start(const RouterOptions& options) {
  if (options.backends.empty()) {
    return Status::InvalidArgument("router needs at least one backend");
  }
  // Probe the fleet: every backend must answer STATS, and all must agree on
  // corpus bounds and params fingerprint — proxying a fleet that already
  // serves two parameter versions would bake the split-brain in.
  std::vector<StatsLine> probed;
  for (size_t k = 0; k < options.backends.size(); ++k) {
    const auto& addr = options.backends[k];
    BackendLink link(addr, options.backend_timeout_ms, /*failpoints=*/false);
    auto stats = QueryStats(link);
    if (!stats.ok()) {
      return Status(stats.status().code(),
                    "backend " + std::to_string(k) + " (" + addr.host + ":" +
                        std::to_string(addr.port) +
                        ") failed the startup probe: " +
                        stats.status().message());
    }
    probed.push_back(stats.value());
    if (probed.front().users != probed.back().users ||
        probed.front().items != probed.back().items) {
      return Status::InvalidArgument(
          "backend " + std::to_string(k) +
          " serves a different corpus than backend 0");
    }
    if (probed.front().fingerprint != probed.back().fingerprint) {
      return Status::InvalidArgument(
          "backend " + std::to_string(k) +
          " serves a different parameter version than backend 0 "
          "(fingerprint mismatch)");
    }
  }
  auto listener = Socket::Listen(options.port);
  if (!listener.ok()) return listener.status();
  std::unique_ptr<obs::MetricsRegistry> metrics;
  if (options.enable_metrics) {
    metrics = std::make_unique<obs::MetricsRegistry>();
  }
  std::unique_ptr<Router> router(new Router(
      options, std::move(listener).ValueOrDie(), std::move(metrics)));
  for (size_t k = 0; k < options.backends.size(); ++k) {
    router->backends_[k]->fingerprint.store(probed[k].fingerprint);
    router->backends_[k]->generation.store(probed[k].generation);
  }
  router->fleet_users_.store(probed.front().users);
  router->fleet_items_.store(probed.front().items);
  router->fleet_fingerprint_.store(probed.front().fingerprint);
  router->lines_.Start([r = router.get()](int64_t index) {
    auto session = std::make_shared<Session>(r, index);
    return [session](const std::string& line, LineServer::Reply reply) {
      bool close = false;
      reply.Send(session->HandleLine(line, &close));
      return !close;
    };
  });
  router->health_thread_ = std::thread(&Router::HealthLoop, router.get());
  return router;
}

Router::Router(const RouterOptions& options, Socket listener,
               std::unique_ptr<obs::MetricsRegistry> metrics)
    : options_(options),
      metrics_(std::move(metrics)),
      lines_(std::move(listener), {.max_connections = options.max_connections,
                                   .read_timeout_ms = options.read_timeout_ms,
                                   .metrics = metrics_.get(),
                                   .metrics_prefix = "rrre_router",
                                   .subject = "client connections"}) {
  for (const auto& addr : options_.backends) {
    backends_.push_back(
        std::make_unique<BackendState>(addr, options_.backend_timeout_ms));
  }
  if (metrics_ != nullptr) {
    m_requests_ = metrics_->GetCounter(
        "rrre_router_requests_total",
        "requests received by the router (incl. control verbs)");
    m_parse_errors_ = metrics_->GetCounter("rrre_router_parse_errors_total",
                                           "malformed request lines");
    m_retries_ = metrics_->GetCounter(
        "rrre_router_retries_total",
        "backend round-trips retried after a transport fault");
    m_failovers_ = metrics_->GetCounter(
        "rrre_router_failovers_total",
        "requests answered by a replica instead of the home shard");
    m_upstream_errors_ = metrics_->GetCounter(
        "rrre_router_upstream_errors_total",
        "requests that exhausted every replica");
    m_fanouts_ = metrics_->GetCounter(
        "rrre_router_fanouts_total",
        "catalog requests routed to a home shard");
    m_reload_barriers_ = metrics_->GetCounter(
        "rrre_router_reload_barriers_total",
        "rolling reload barriers orchestrated");
    m_backends_serving_ = metrics_->GetGauge(
        "rrre_router_backends_serving",
        "backends currently alive and fingerprint-converged");
    // A loadgen --metrics scrape can land mid-roll, racing the fingerprint
    // barrier; exposing the quarantine count lets the scraper distinguish a
    // clean roll (0) from a fleet still carrying diverged shards.
    m_quarantined_ = metrics_->GetGauge(
        "rrre_router_quarantined",
        "backends currently quarantined for fingerprint divergence");
  }
}

Router::~Router() { Shutdown(); }

bool Router::BackendServing(int index) const {
  const auto& backend = *backends_[static_cast<size_t>(index)];
  return backend.alive.load() && !backend.quarantined.load();
}

std::vector<int> Router::ServingBackends() const {
  std::vector<int> out;
  for (size_t k = 0; k < backends_.size(); ++k) {
    if (BackendServing(static_cast<int>(k))) out.push_back(static_cast<int>(k));
  }
  return out;
}

void Router::HealthLoop() {
  while (!stopping_.load()) {
    HealthPass();
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.health_period_ms);
    while (!stopping_.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

void Router::HealthPass() {
  // Skip the pass while a reload barrier holds the lock exclusively:
  // fingerprints legitimately diverge mid-roll and must not trip the
  // quarantine. The barrier itself re-evaluates quarantine when it ends.
  std::shared_lock<std::shared_mutex> barrier(reload_mu_, std::try_to_lock);
  if (!barrier.owns_lock()) return;
  const uint64_t fleet_fp = fleet_fingerprint_.load();
  for (auto& state : backends_) {
    BackendState& backend = *state;
    auto stats = CheckHealth(backend.health);
    if (!stats.ok()) {
      backend.alive.store(false);
      continue;
    }
    backend.alive.store(true);
    backend.fingerprint.store(stats.value().fingerprint);
    backend.generation.store(stats.value().generation);
    // Quarantine policing: a shard whose fingerprint left the fleet's (a
    // side-channel reload, a divergent restart) must not serve through the
    // router until it matches again — serving it would let one connection
    // observe two parameter versions.
    backend.quarantined.store(fleet_fp != 0 &&
                              stats.value().fingerprint != fleet_fp);
  }
  if (m_backends_serving_ != nullptr) {
    m_backends_serving_->Set(static_cast<int64_t>(ServingBackends().size()));
  }
  if (m_quarantined_ != nullptr) {
    int64_t quarantined = 0;
    for (const auto& b : backends_) quarantined += b->quarantined.load() ? 1 : 0;
    m_quarantined_->Set(quarantined);
  }
}

void Router::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    stopping_.store(true);
    if (health_thread_.joinable()) health_thread_.join();
    // Half-close every client: sessions finish the request in flight (every
    // admitted request is answered), then see EOF and exit.
    lines_.Shutdown();
  });
}

RouterStats Router::stats() const {
  const LineServer::Stats conns = lines_.stats();
  RouterStats out;
  out.connections_accepted = conns.accepted;
  out.connections_active = conns.active;
  out.connections_rejected = conns.rejected;
  out.read_timeouts = conns.read_timeouts;
  out.requests = requests_.load();
  out.parse_errors = parse_errors_.load();
  out.retries = retries_.load();
  out.failovers = failovers_.load();
  out.upstream_errors = upstream_errors_.load();
  out.fanouts = fanouts_.load();
  out.reload_barriers = reload_barriers_.load();
  for (const auto& backend : backends_) {
    out.quarantined += backend->quarantined.load() ? 1 : 0;
  }
  return out;
}

std::string Router::FormatStatsLine() const {
  // Starts with "#stats\t" and carries users=/items= so loadgen's bounds
  // discovery works against the router exactly as against a backend.
  const RouterStats s = stats();
  return common::StrFormat(
      "#stats\tusers=%lld\titems=%lld\tfingerprint=%llu\tbackends=%d\t"
      "serving=%d\trequests=%lld\tparse_errors=%lld\tretries=%lld\t"
      "failovers=%lld\tupstream_errors=%lld\tfanouts=%lld\t"
      "reload_barriers=%lld\tquarantined=%lld\tconnections=%lld\n",
      static_cast<long long>(fleet_users_.load()),
      static_cast<long long>(fleet_items_.load()),
      static_cast<unsigned long long>(fleet_fingerprint_.load()),
      static_cast<int>(backends_.size()),
      static_cast<int>(ServingBackends().size()),
      static_cast<long long>(s.requests),
      static_cast<long long>(s.parse_errors),
      static_cast<long long>(s.retries),
      static_cast<long long>(s.failovers),
      static_cast<long long>(s.upstream_errors),
      static_cast<long long>(s.fanouts),
      static_cast<long long>(s.reload_barriers),
      static_cast<long long>(s.quarantined),
      static_cast<long long>(s.connections_active));
}

}  // namespace rrre::serve
