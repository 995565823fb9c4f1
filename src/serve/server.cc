#include "serve/server.h"

#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "core/tower_store.h"
#include "serve/protocol.h"

namespace rrre::serve {

using common::Result;
using common::Socket;
using common::Status;

namespace {

inline void Inc(obs::Counter* counter) {
  if (counter != nullptr) counter->Increment();
}

}  // namespace

Result<std::unique_ptr<Server>> Server::Start(const ServerOptions& options) {
  auto trainer = std::make_unique<core::RrreTrainer>(options.config);
  RRRE_RETURN_IF_ERROR(trainer->Load(options.model_prefix));
  std::shared_ptr<const core::TowerStore> store;
  if (!options.store_path.empty()) {
    auto mapped = core::MapTowerStoreForCheckpoint(
        options.store_path, options.model_prefix, *trainer);
    if (!mapped.ok()) return mapped.status();
    store = std::move(mapped).ValueOrDie();
  }
  auto listener = Socket::Listen(options.port);
  if (!listener.ok()) return listener.status();
  std::unique_ptr<obs::MetricsRegistry> metrics;
  MicroBatcher::Options batcher_options = options.batcher;
  batcher_options.store_path = options.store_path;
  batcher_options.model_prefix = options.model_prefix;
  if (options.enable_metrics) {
    metrics = std::make_unique<obs::MetricsRegistry>();
    batcher_options.metrics = metrics.get();
  } else {
    batcher_options.metrics = nullptr;
  }
  auto batcher = std::make_unique<MicroBatcher>(
      std::move(trainer), batcher_options, std::move(store));
  std::unique_ptr<Server> server(
      new Server(options, std::move(metrics), std::move(batcher),
                 std::move(listener).ValueOrDie()));
  return server;
}

Server::Server(const ServerOptions& options,
               std::unique_ptr<obs::MetricsRegistry> metrics,
               std::unique_ptr<MicroBatcher> batcher, Socket listener)
    : options_(options),
      metrics_(std::move(metrics)),
      batcher_(std::move(batcher)),
      lines_(std::move(listener), {.max_connections = options.max_connections,
                                   .read_timeout_ms = options.read_timeout_ms,
                                   .metrics = metrics_.get(),
                                   .metrics_prefix = "rrre_serve"}) {
  if (metrics_ != nullptr) {
    m_requests_ = metrics_->GetCounter(
        "rrre_serve_requests_total",
        "score requests received (pair + catalog; control verbs excluded)");
    m_parse_errors_ = metrics_->GetCounter("rrre_serve_parse_errors_total",
                                           "malformed request lines");
    m_range_errors_ = metrics_->GetCounter("rrre_serve_range_errors_total",
                                           "requests with out-of-range ids");
    m_overloads_ = metrics_->GetCounter(
        "rrre_serve_overloads_total", "requests refused by admission control");
  }
  lines_.Start([this](int64_t /*index*/) {
    return [this](const std::string& line, LineServer::Reply reply) {
      return HandleLine(line, std::move(reply));
    };
  });
}

Server::~Server() { Shutdown(); }

void Server::Reload(MicroBatcher::ReloadDoneFn done) {
  batcher_->RequestReload(
      options_.model_prefix,
      [done](const Status& status, int64_t generation) {
        if (status.ok()) {
          RRRE_LOG_INFO << "hot reload complete, serving generation "
                        << generation;
        }
        if (done) done(status, generation);
      });
}

bool Server::HandleLine(const std::string& line, LineServer::Reply reply) {
  const Request req = ParseRequest(line);
  if (req.type != Request::Type::kBlank) requests_.fetch_add(1);
  switch (req.type) {
    case Request::Type::kBlank:
      reply.Send("");
      return true;
    case Request::Type::kPing:
      reply.Send(FormatPong());
      return true;
    case Request::Type::kStats:
      reply.Send(FormatStatsLine());
      return true;
    case Request::Type::kMetrics:
      // The scrape is deliberately not counted in any exposed metric, so it
      // cannot perturb what it reports.
      reply.Send(FormatMetricsResponse());
      return true;
    case Request::Type::kQuit:
      reply.Send(FormatBye());
      return false;
    case Request::Type::kReload:
      batcher_->RequestReload(
          options_.model_prefix,
          [reply](const Status& status, int64_t generation) {
            reply.Send(status.ok() ? FormatReloaded(generation)
                                   : FormatError("reload", status.ToString()));
          });
      return true;
    case Request::Type::kInvalid:
      parse_errors_.fetch_add(1);
      Inc(m_parse_errors_);
      reply.Send(FormatError("parse", req.error));
      return true;
    case Request::Type::kPair:
    case Request::Type::kCatalog:
      Inc(m_requests_);
      HandleScoreRequest(req, std::move(reply));
      return true;
  }
  return true;
}

void Server::HandleScoreRequest(const Request& req, LineServer::Reply reply) {
  const bool catalog = req.type == Request::Type::kCatalog;
  const int64_t num_users = batcher_->num_users();
  const int64_t num_items = batcher_->num_items();
  if (req.user < 0 || req.user >= num_users) {
    range_errors_.fetch_add(1);
    Inc(m_range_errors_);
    reply.Send(FormatError(
        "range", "user " + std::to_string(req.user) + " out of range [0, " +
                     std::to_string(num_users) + ")"));
    return;
  }
  if (!catalog && (req.item < 0 || req.item >= num_items)) {
    range_errors_.fetch_add(1);
    Inc(m_range_errors_);
    reply.Send(FormatError(
        "range", "item " + std::to_string(req.item) + " out of range [0, " +
                     std::to_string(num_items) + ")"));
    return;
  }
  const int64_t user = req.user;
  const bool accepted = batcher_->TrySubmit(
      req.user, catalog ? MicroBatcher::kCatalogItem : req.item,
      [this, reply, user, catalog](
          const Status& status,
          const std::vector<MicroBatcher::ScoredPair>& results) {
        if (!status.ok()) {
          range_errors_.fetch_add(1);
          Inc(m_range_errors_);
          reply.Send(FormatError("range", status.message()));
          return;
        }
        std::string out;
        if (catalog) {
          out = FormatCatalogHeader(user, static_cast<int64_t>(results.size()));
        }
        for (const auto& r : results) {
          out += FormatScoreLine(r.user, r.item, r.rating, r.reliability);
        }
        reply.Send(std::move(out));
      });
  if (!accepted) {
    overloads_.fetch_add(1);
    Inc(m_overloads_);
    reply.Send(FormatError("overload", "admission queue full — retry later"));
  }
}

void Server::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    batcher_->Resume();  // A paused batcher would deadlock the drain.
    lines_.Shutdown();
    batcher_->Stop();
  });
}

ServerStats Server::stats() const {
  const LineServer::Stats conns = lines_.stats();
  ServerStats out;
  out.connections_accepted = conns.accepted;
  out.connections_active = conns.active;
  out.connections_rejected = conns.rejected;
  out.requests = requests_.load();
  out.parse_errors = parse_errors_.load();
  out.range_errors = range_errors_.load();
  out.overloads = overloads_.load();
  out.read_timeouts = conns.read_timeouts;
  out.batcher = batcher_->stats();
  return out;
}

std::string Server::FormatStatsLine() const {
  const MicroBatcher::Stats b = batcher_->stats();
  const int64_t active = lines_.stats().active;
  // `fingerprint=` is the checkpoint params fingerprint — the only version
  // field comparable *across* processes; the router's rolling-reload barrier
  // reads it to prove a shard fleet serves one parameter version.
  return common::StrFormat(
      "#stats\tusers=%lld\titems=%lld\tversion=%lld\tgeneration=%lld\t"
      "fingerprint=%llu\t"
      "requests=%lld\tparse_errors=%lld\trange_errors=%lld\toverloads=%lld\t"
      "submitted=%lld\trejected=%lld\tbatches=%lld\tpairs=%lld\t"
      "reloads=%lld\tconnections=%lld\n",
      static_cast<long long>(batcher_->num_users()),
      static_cast<long long>(batcher_->num_items()),
      static_cast<long long>(batcher_->params_version()),
      static_cast<long long>(batcher_->generation()),
      static_cast<unsigned long long>(batcher_->params_fingerprint()),
      static_cast<long long>(requests_.load()),
      static_cast<long long>(parse_errors_.load()),
      static_cast<long long>(range_errors_.load()),
      static_cast<long long>(overloads_.load()),
      static_cast<long long>(b.submitted), static_cast<long long>(b.rejected),
      static_cast<long long>(b.batches),
      static_cast<long long>(b.pairs_scored),
      static_cast<long long>(b.reloads), static_cast<long long>(active));
}

std::string Server::RenderMetricsText() const {
  return metrics_ == nullptr ? std::string() : metrics_->RenderText();
}

std::string Server::FormatMetricsResponse() const {
  if (metrics_ == nullptr) {
    return FormatError("metrics", "metrics are disabled on this server");
  }
  const std::string text = metrics_->RenderText();
  int64_t lines = 0;
  for (char c : text) lines += c == '\n' ? 1 : 0;
  return FormatMetricsHeader(lines) + text;
}

}  // namespace rrre::serve
