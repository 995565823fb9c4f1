#include "serve/router.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

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

/// splitmix64: cheap, well-mixed 64-bit hash for ring points and user keys.
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
// ConsistentRing
// ---------------------------------------------------------------------------

ConsistentRing::ConsistentRing(int num_backends, int virtual_nodes)
    : num_backends_(num_backends) {
  RRRE_CHECK_GE(num_backends, 1);
  RRRE_CHECK_GE(virtual_nodes, 1);
  points_.reserve(static_cast<size_t>(num_backends) *
                  static_cast<size_t>(virtual_nodes));
  for (int b = 0; b < num_backends; ++b) {
    for (int v = 0; v < virtual_nodes; ++v) {
      // Point = hash(backend, vnode): independent of fleet size, so adding a
      // backend only inserts its own points and steals only their arcs.
      points_.emplace_back(
          Mix64((static_cast<uint64_t>(b) << 32) | static_cast<uint64_t>(v)),
          b);
    }
  }
  std::sort(points_.begin(), points_.end());
}

std::vector<int> ConsistentRing::PreferenceOrder(int64_t user) const {
  const uint64_t h = Mix64(static_cast<uint64_t>(user));
  auto it = std::lower_bound(points_.begin(), points_.end(),
                             std::make_pair(h, 0));
  std::vector<int> order;
  order.reserve(static_cast<size_t>(num_backends_));
  std::vector<bool> seen(static_cast<size_t>(num_backends_), false);
  for (size_t walked = 0;
       walked < points_.size() &&
       order.size() < static_cast<size_t>(num_backends_);
       ++walked, ++it) {
    if (it == points_.end()) it = points_.begin();
    const int b = it->second;
    if (!seen[static_cast<size_t>(b)]) {
      seen[static_cast<size_t>(b)] = true;
      order.push_back(b);
    }
  }
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
      case Request::Type::kPair: {
        // Scoring holds the reload barrier shared: a rolling reload cannot
        // start mid-request, and no request dispatches mid-roll.
        std::shared_lock<std::shared_mutex> barrier(router_->reload_mu_);
        auto resp = RouteLine(line, req.user, /*retry_overload=*/false);
        if (!resp.ok()) {
          return FormatError("upstream", resp.status().message());
        }
        return resp.value() + "\n";
      }
      case Request::Type::kCatalog: {
        std::shared_lock<std::shared_mutex> barrier(router_->reload_mu_);
        return HandleCatalog(line, req.user);
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

  /// The serving backend for `user` at retry `attempt`: walk the ring
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

  /// Routes a single-line request (pair score, or a bare user relayed for
  /// its authoritative range error) and returns the single response line.
  /// Transport faults fail over along the ring with jittered backoff;
  /// scoring is idempotent, so maybe-delivered requests are still resent.
  /// With `retry_overload`, "!ERR overload" answers are also retried (used
  /// inside catalog fan-out, where a torn catalog is unacceptable);
  /// otherwise they relay to the client, matching a direct backend.
  Result<std::string> RouteLine(const std::string& line, int64_t user,
                                bool retry_overload) {
    const std::string wire = line + "\n";
    const std::vector<int> preference = router_->ring_.PreferenceOrder(user);
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
      const Status sent = Link(k).Send(wire);
      if (!sent.ok()) {
        last = sent;
        continue;
      }
      auto resp = Link(k).ReadLine();
      if (!resp.ok()) {
        last = resp.status();
        continue;
      }
      if (retry_overload && IsOverloadLine(resp.value()) &&
          attempt < router_->options_.max_retries) {
        last = Status::FailedPrecondition("backend overloaded");
        continue;
      }
      if (k != preference[0]) {
        router_->failovers_.fetch_add(1);
        Inc(router_->m_failovers_);
      }
      return resp.value();
    }
    router_->upstream_errors_.fetch_add(1);
    Inc(router_->m_upstream_errors_);
    return last;
  }

  // -- catalog fan-out ------------------------------------------------------

  /// Fans a bare-user catalog request out across every serving shard as
  /// contiguous item slices of pipelined pair requests, then merges the
  /// responses back in item order. Scoring is batch-composition invariant,
  /// so the reassembled response is byte-identical to one direct backend
  /// answering the whole catalog. Items lost to a mid-stream backend fault
  /// are re-scored individually through the failover path, so a killed
  /// shard degrades throughput, never correctness.
  std::string HandleCatalog(const std::string& line, int64_t user) {
    const int64_t num_users = router_->fleet_users_.load();
    const int64_t num_items = router_->fleet_items_.load();
    if (user < 0 || user >= num_users) {
      // Relay to the home shard so the range error is byte-identical to
      // direct serving.
      auto resp = RouteLine(line, user, /*retry_overload=*/false);
      return resp.ok() ? resp.value() + "\n"
                       : FormatError("upstream", resp.status().message());
    }
    const std::vector<int> serving = router_->ServingBackends();
    if (serving.empty()) {
      router_->upstream_errors_.fetch_add(1);
      Inc(router_->m_upstream_errors_);
      return FormatError("upstream", "no serving backends");
    }
    router_->fanouts_.fetch_add(1);
    Inc(router_->m_fanouts_);

    const int64_t shards = static_cast<int64_t>(serving.size());
    auto slice_lo = [&](int64_t s) { return s * num_items / shards; };

    // Phase 1: pipeline each shard its slice. All slices are in flight
    // before any response is read, so the fan-out overlaps across shards
    // without the router needing threads of its own.
    std::vector<bool> broken(serving.size(), false);
    for (int64_t s = 0; s < shards; ++s) {
      std::string wire;
      for (int64_t item = slice_lo(s); item < slice_lo(s + 1); ++item) {
        wire += std::to_string(user) + "\t" + std::to_string(item) + "\n";
      }
      if (wire.empty()) continue;
      if (!Link(serving[static_cast<size_t>(s)]).Send(wire).ok()) {
        broken[static_cast<size_t>(s)] = true;
      }
    }

    // Phase 2: collect responses slice by slice, in item order. A transport
    // fault or a misaligned line condemns the slice's link and queues its
    // remaining items for individual re-scoring; an overload answer queues
    // just that item.
    std::vector<std::string> lines(static_cast<size_t>(num_items));
    std::vector<int64_t> missing;
    for (int64_t s = 0; s < shards; ++s) {
      const int k = serving[static_cast<size_t>(s)];
      bool slice_dead = broken[static_cast<size_t>(s)];
      for (int64_t item = slice_lo(s); item < slice_lo(s + 1); ++item) {
        if (slice_dead) {
          missing.push_back(item);
          continue;
        }
        auto resp = Link(k).ReadLine();
        if (!resp.ok()) {
          slice_dead = true;
          missing.push_back(item);
          continue;
        }
        const std::string& got = resp.value();
        if (IsErrorLine(got)) {
          missing.push_back(item);
          continue;
        }
        // Responses carry their ids: a line that is not for this item means
        // the stream lost alignment — never serve it, close the link.
        const std::string expect =
            std::to_string(user) + "\t" + std::to_string(item) + "\t";
        if (!common::StartsWith(got, expect)) {
          Link(k).Close();
          slice_dead = true;
          missing.push_back(item);
          continue;
        }
        lines[static_cast<size_t>(item)] = got + "\n";
      }
    }

    // Phase 3: re-score everything missing through the failover path.
    for (const int64_t item : missing) {
      const std::string pair_line =
          std::to_string(user) + "\t" + std::to_string(item);
      auto resp = RouteLine(pair_line, user, /*retry_overload=*/true);
      if (!resp.ok()) {
        return FormatError("upstream", resp.status().message());
      }
      if (IsErrorLine(resp.value())) {
        // A persistent per-item error poisons the whole catalog — answer it
        // as one unit, like a direct backend would, instead of serving a
        // torn catalog.
        return resp.value() + "\n";
      }
      lines[static_cast<size_t>(item)] = resp.value() + "\n";
    }

    std::string out = FormatCatalogHeader(user, num_items);
    for (const std::string& l : lines) out += l;
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
  /// one shard at a time, then hold the barrier until every shard reports
  /// the same params fingerprint. Shards that never converge (their reload
  /// failed and they kept the old snapshot) are quarantined, so scoring
  /// resumes against a fleet that provably serves one parameter version.
  std::string HandleReload() {
    std::unique_lock<std::shared_mutex> barrier(router_->reload_mu_);
    const std::vector<int> serving = router_->ServingBackends();
    if (serving.empty()) {
      return FormatError("reload", "no serving backends");
    }
    router_->reload_barriers_.fetch_add(1);
    Inc(router_->m_reload_barriers_);

    int64_t reloaded = 0;
    Status first_error = Status::Ok();
    for (const int k : serving) {
      const Status status = ReloadBackend(k);
      if (status.ok()) {
        ++reloaded;
      } else {
        if (first_error.ok()) first_error = status;
        RRRE_LOG_WARNING << "rolling reload: backend " << k
                         << " failed: " << status.ToString();
      }
    }
    if (reloaded == 0) {
      return FormatError("reload", first_error.ToString());
    }

    // Fingerprint barrier: poll until every serving shard agrees. The
    // target is whatever the first successfully reloaded shard now serves.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(
                              router_->options_.reload_barrier_timeout_ms);
    uint64_t target = 0;
    int64_t min_generation = 0;
    std::vector<uint64_t> fps(serving.size(), 0);
    bool converged = false;
    while (!converged && std::chrono::steady_clock::now() < deadline) {
      target = 0;
      min_generation = 0;
      converged = true;
      for (size_t i = 0; i < serving.size(); ++i) {
        auto stats = QueryStats(Link(serving[i]));
        if (!stats.ok()) {
          converged = false;
          continue;
        }
        fps[i] = stats.value().fingerprint;
        if (target == 0) {
          target = fps[i];
          min_generation = stats.value().generation;
        } else {
          min_generation = std::min(min_generation, stats.value().generation);
        }
        if (fps[i] != target) converged = false;
      }
      if (!converged) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }

    // Quarantine divergers; publish the new fleet fingerprint.
    for (size_t i = 0; i < serving.size(); ++i) {
      auto& backend = *router_->backends_[static_cast<size_t>(serving[i])];
      backend.fingerprint.store(fps[i]);
      backend.quarantined.store(fps[i] != target);
      if (fps[i] != target) {
        RRRE_LOG_WARNING << "rolling reload: backend " << serving[i]
                         << " diverged (fingerprint " << fps[i]
                         << " != " << target << "); quarantined";
      }
    }
    router_->fleet_fingerprint_.store(target);
    if (router_->m_quarantined_ != nullptr) {
      int64_t quarantined = 0;
      for (const auto& b : router_->backends_) {
        quarantined += b->quarantined.load() ? 1 : 0;
      }
      router_->m_quarantined_->Set(quarantined);
    }
    if (!converged) {
      return FormatError("reload",
                         "fleet did not converge on one fingerprint");
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
  ConsistentRing ring(static_cast<int>(options.backends.size()),
                      options.virtual_nodes);
  std::unique_ptr<Router> router(
      new Router(options, std::move(ring), std::move(listener).ValueOrDie(),
                 std::move(metrics)));
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

Router::Router(const RouterOptions& options, ConsistentRing ring,
               Socket listener, std::unique_ptr<obs::MetricsRegistry> metrics)
    : options_(options),
      ring_(std::move(ring)),
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
        "catalog requests fanned out across the fleet");
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
