#include "serve/loadgen.h"

#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/socket.h"
#include "common/timer.h"
#include "serve/protocol.h"

namespace rrre::serve {

using common::Result;
using common::Socket;
using common::Status;

namespace {

/// Asks the server for its corpus bounds via the STATS command.
Status DiscoverBounds(const LoadGenOptions& options, int64_t* num_users,
                      int64_t* num_items) {
  auto sock = Socket::Connect(options.host, options.port);
  if (!sock.ok()) return sock.status();
  RRRE_RETURN_IF_ERROR(sock.value().SendAll("STATS\n"));
  common::LineReader reader(&sock.value());
  auto line = reader.ReadLine();
  if (!line.ok()) return line.status();
  if (!line.value().has_value()) {
    return Status::Internal("connection closed before the STATS response");
  }
  auto stats = ParseStatsLine(*line.value());
  if (!stats.ok()) return stats.status();
  *num_users = stats.value().users;
  *num_items = stats.value().items;
  if (*num_users <= 0 || *num_items <= 0) {
    return Status::Internal("STATS did not report corpus bounds: " +
                            *line.value());
  }
  return Status::Ok();
}

struct ConnResult {
  Status status = Status::Ok();
  int64_t sent = 0;
  int64_t scored = 0;
  int64_t overloaded = 0;
  int64_t errors = 0;
  int64_t retried = 0;
  common::Histogram latency_us;
};

void RunConnection(const LoadGenOptions& options, int64_t conn_index,
                   int64_t requests, int64_t num_users, int64_t num_items,
                   ConnResult* out) {
  auto sock = Socket::Connect(options.host, options.port);
  if (!sock.ok()) {
    out->status = sock.status();
    return;
  }
  common::LineReader reader(&sock.value());
  common::Rng rng(options.seed + 0x9e3779b97f4a7c15ULL *
                                     static_cast<uint64_t>(conn_index + 1));
  // Pacing: each connection sends at target_qps / connections.
  const double period_s =
      options.target_qps > 0.0
          ? static_cast<double>(options.connections) / options.target_qps
          : 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (int64_t n = 0; n < requests; ++n) {
    if (period_s > 0.0) {
      const auto next_send =
          start + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(period_s *
                                                    static_cast<double>(n)));
      std::this_thread::sleep_until(next_send);
    }
    const int64_t user =
        static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(num_users)));
    const int64_t item =
        static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(num_items)));
    const std::string request =
        std::to_string(user) + "\t" + std::to_string(item) + "\n";
    // Attempt loop: an overload response is retried up to max_retries times
    // with jittered exponential backoff; anything else settles the request.
    for (int64_t attempt = 0;; ++attempt) {
      common::Timer timer;
      auto st = sock.value().SendAll(request);
      if (!st.ok()) {
        out->status = st;
        return;
      }
      ++out->sent;
      auto line = reader.ReadLine();
      if (!line.ok()) {
        out->status = line.status();
        return;
      }
      if (!line.value().has_value()) {
        out->status = Status::Internal("server closed mid-run after " +
                                       std::to_string(n + 1) + " requests");
        return;
      }
      out->latency_us.Record(timer.ElapsedSeconds() * 1e6);
      const std::string& response = *line.value();
      if (IsOverloadLine(response)) {
        if (attempt < options.max_retries) {
          ++out->retried;
          std::this_thread::sleep_for(std::chrono::microseconds(BackoffUs(
              attempt, options.backoff_base_us, options.backoff_cap_us,
              rng)));
          continue;
        }
        ++out->overloaded;
      } else if (IsErrorLine(response)) {
        ++out->errors;
      } else {
        ++out->scored;
      }
      break;
    }
  }
  sock.value().SendAll("QUIT\n");
}

}  // namespace

int64_t BackoffUs(int64_t attempt, int64_t base_us, int64_t cap_us,
                  common::Rng& rng) {
  if (base_us < 1) base_us = 1;
  if (cap_us < base_us) cap_us = base_us;
  // Ceiling = min(cap, base * 2^attempt), computed without overflow.
  int64_t ceiling = base_us;
  for (int64_t k = 0; k < attempt && ceiling < cap_us; ++k) {
    ceiling = ceiling > cap_us / 2 ? cap_us : ceiling * 2;
  }
  // Equal jitter: half deterministic, half uniform — bounded below by
  // ceiling/2 so retries always back off, spread across [ceiling/2, ceiling].
  const int64_t half = ceiling / 2;
  return half +
         static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(
             ceiling - half + 1)));
}

Result<LoadGenReport> RunLoadGen(const LoadGenOptions& options) {
  int64_t num_users = options.num_users;
  int64_t num_items = options.num_items;
  if (num_users <= 0 || num_items <= 0) {
    RRRE_RETURN_IF_ERROR(DiscoverBounds(options, &num_users, &num_items));
  }
  const int64_t connections = std::max<int64_t>(1, options.connections);
  std::vector<ConnResult> results(static_cast<size_t>(connections));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(connections));
  common::Timer timer;
  for (int64_t c = 0; c < connections; ++c) {
    // First connections absorb the remainder so the totals add up exactly.
    const int64_t base = options.total_requests / connections;
    const int64_t requests =
        base + (c < options.total_requests % connections ? 1 : 0);
    threads.emplace_back(RunConnection, std::cref(options), c, requests,
                         num_users, num_items,
                         &results[static_cast<size_t>(c)]);
  }
  for (auto& t : threads) t.join();
  LoadGenReport report;
  report.seconds = timer.ElapsedSeconds();
  for (const auto& r : results) {
    if (!r.status.ok()) return r.status;
    report.sent += r.sent;
    report.scored += r.scored;
    report.overloaded += r.overloaded;
    report.errors += r.errors;
    report.retried += r.retried;
    report.latency_us.Merge(r.latency_us);
  }
  const int64_t responses = report.scored + report.overloaded + report.errors;
  report.qps = report.seconds > 0.0
                   ? static_cast<double>(responses) / report.seconds
                   : 0.0;
  return report;
}

}  // namespace rrre::serve
