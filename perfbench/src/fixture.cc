#include "fixture.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/logging.h"
#include "common/rng.h"
#include "common/socket.h"
#include "common/strings.h"
#include "core/scorer.h"
#include "data/profiles.h"
#include "data/synthetic.h"
#include "obs/telemetry.h"
#include "serve/protocol.h"

namespace perfbench {

using rrre::common::StrFormat;
namespace core = rrre::core;
namespace serve = rrre::serve;

core::RrreConfig ProductConfig(uint64_t seed, int64_t epochs) {
  core::RrreConfig c;
  c.seed = seed;
  c.epochs = epochs;
  c.shard_size = 8;
  c.use_tape = true;
  c.tape_replay = true;
  return c;
}

Corpus MakeCorpus(double scale, uint64_t seed) {
  rrre::common::Rng rng(seed ^ 0x5eedf00dULL);
  rrre::data::ReviewDataset full = rrre::data::GenerateSyntheticDataset(
      rrre::data::YelpChiProfile(scale), rng);
  auto [train, test] = full.Split(0.7, rng);
  return Corpus{std::move(train), std::move(test)};
}

core::RrreTrainer::EpochCallback RecordEpochs(ModelUnderTest* model,
                                              int64_t examples) {
  return [model, examples](const core::RrreTrainer::EpochStats& s) {
    if (!model->tape_per_epoch.empty()) {
      const int64_t batch = model->config.batch_size;
      model->step_us.push_back(s.seconds * 1e6 /
                               static_cast<double>((examples + batch - 1) / batch));
    }
    model->tape_per_epoch.push_back(model->trainer->TapeStats());
  };
}

ServingModel TrainServingModel(const RunContext& ctx, const Corpus& corpus,
                               const std::string& prefix) {
  ServingModel m;
  ModelUnderTest& v = m.view;
  // Two epochs so the traced run sees a steady-state (replayed) epoch.
  v.config = ProductConfig(ctx.SubSeed(1), /*epochs=*/2);
  v.config.pretrain_word_vectors = false;
  m.trainer = std::make_unique<core::RrreTrainer>(v.config);
  v.trainer = m.trainer.get();
  v.test = &corpus.test;
  std::unique_ptr<rrre::obs::TelemetryWriter> telemetry;
  if (ctx.trace) {
    v.telemetry_path = prefix + ".telemetry";
    telemetry = std::make_unique<rrre::obs::TelemetryWriter>(
        rrre::obs::TelemetryWriter::Options{v.telemetry_path, true});
    m.trainer->SetTelemetry({telemetry.get(), nullptr});
  }
  m.trainer->Fit(corpus.train, RecordEpochs(&v, corpus.train.size()));
  m.trainer->SetTelemetry({});
  if (telemetry != nullptr) RRRE_CHECK_OK(telemetry->Close());
  v.prefix = prefix;
  RRRE_CHECK_OK(m.trainer->Save(prefix));
  return m;
}

serve::ServerOptions ServedDefaults(const core::RrreConfig& config,
                                    const std::string& prefix,
                                    const std::string& store_path) {
  serve::ServerOptions o;
  o.config = config;
  o.model_prefix = prefix;
  o.store_path = store_path;
  o.port = 0;
  o.batcher.max_batch = 64;
  o.batcher.max_delay_us = 1000;
  o.batcher.queue_capacity = 1024;
  o.batcher.tower_cache_cap = 65536;
  o.max_connections = 256;
  o.read_timeout_ms = 0;
  o.enable_metrics = true;
  return o;
}

void Fleet::Shutdown() {
  if (router != nullptr) router->Shutdown();
  for (auto& shard : shards) shard->Shutdown();
}

std::unique_ptr<Fleet> StartFleet(const serve::ServerOptions& shard,
                                  int shards) {
  auto fleet = std::make_unique<Fleet>();
  serve::RouterOptions router_options;
  for (int i = 0; i < shards; ++i) {
    auto server = serve::Server::Start(shard);
    RRRE_CHECK_OK(server.status());
    fleet->shards.push_back(std::move(server).ValueOrDie());
    router_options.backends.push_back(
        {"127.0.0.1", fleet->shards.back()->port()});
  }
  auto router = serve::Router::Start(router_options);
  RRRE_CHECK_OK(router.status());
  fleet->router = std::move(router).ValueOrDie();
  return fleet;
}

std::string RoundTrip(uint16_t port, const std::string& line) {
  auto socket = rrre::common::Socket::Connect("127.0.0.1", port);
  if (!socket.ok()) return "";
  rrre::common::LineReader reader(&socket.value());
  if (!socket.value().SendAll(line + "\n").ok()) return "";
  auto reply = reader.ReadLine();
  if (!reply.ok() || !reply.value().has_value()) return "";
  return *reply.value();
}

std::map<std::string, std::string> QueryStats(uint16_t port) {
  std::map<std::string, std::string> out;
  for (const std::string& token :
       rrre::common::Split(RoundTrip(port, "STATS"), '\t')) {
    const size_t eq = token.find('=');
    if (eq != std::string::npos) out[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return out;
}

bool RollFleet(const RunContext& ctx, uint16_t router_port,
               uint64_t fingerprint, double* barrier_s, double* converge_s) {
  std::string ack;
  *barrier_s = Timed(ctx.tracer, "serve.router.reload_barrier",
                     [&] { ack = RoundTrip(router_port, "RELOAD"); });
  if (!rrre::common::StartsWith(ack, "#reloaded")) {
    std::fprintf(stderr, "perfbench: router refused RELOAD: %s\n",
                 ack.c_str());
    *converge_s = 0.0;
    return false;
  }
  bool converged = false;
  *converge_s = Timed(ctx.tracer, "stream.converge", [&] {
    const int64_t deadline = NowNs() + 30'000'000'000LL;
    while (!converged && NowNs() < deadline) {
      const auto stats = QueryStats(router_port);
      const auto fp = stats.find("fingerprint");
      const auto q = stats.find("quarantined");
      converged = fp != stats.end() && q != stats.end() &&
                  std::strtoull(fp->second.c_str(), nullptr, 10) ==
                      fingerprint &&
                  q->second == "0";
      if (!converged) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  return converged;
}

namespace {

std::vector<ScheduledRequest> Schedule(int64_t count, double rate,
                                       uint64_t seed, int64_t capture_every,
                                       const std::function<std::string(
                                           rrre::common::Rng&)>& line,
                                       bool catalog) {
  const std::vector<int64_t> due = PoissonArrivals(count, rate, seed);
  rrre::common::Rng ids(seed ^ 0x1d5ULL);
  std::vector<ScheduledRequest> out(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    ScheduledRequest& r = out[static_cast<size_t>(i)];
    r.line = line(ids);
    r.due_ns = due[static_cast<size_t>(i)];
    r.catalog = catalog;
    r.capture = capture_every > 0 && i % capture_every == capture_every / 2;
  }
  return out;
}

}  // namespace

/// Every user paired with a rotating item, then every item: one pass over
/// the whole id space, sent at 1500/s.
std::vector<ScheduledRequest> WarmSchedule(int64_t users, int64_t items) {
  std::vector<ScheduledRequest> out;
  for (int64_t i = 0; i < users + items; ++i) {
    ScheduledRequest r;
    r.line = i < users ? StrFormat("%lld\t%lld", static_cast<long long>(i),
                                   static_cast<long long>(i % items))
                       : StrFormat("0\t%lld",
                                   static_cast<long long>(i - users));
    r.due_ns = i * 666'667;
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<ScheduledRequest> PairSchedule(int64_t count, double rate,
                                           int64_t num_users,
                                           int64_t num_items, uint64_t seed,
                                           int64_t capture_every) {
  return Schedule(
      count, rate, seed, capture_every,
      [&](rrre::common::Rng& rng) {
        const auto u = rng.UniformInt(static_cast<uint64_t>(num_users));
        const auto i = rng.UniformInt(static_cast<uint64_t>(num_items));
        return StrFormat("%llu\t%llu", static_cast<unsigned long long>(u),
                         static_cast<unsigned long long>(i));
      },
      /*catalog=*/false);
}

std::vector<ScheduledRequest> CatalogSchedule(int64_t count, double rate,
                                              int64_t num_users,
                                              uint64_t seed,
                                              int64_t capture_every) {
  return Schedule(
      count, rate, seed, capture_every,
      [&](rrre::common::Rng& rng) {
        return StrFormat("%llu", static_cast<unsigned long long>(rng.UniformInt(
                                     static_cast<uint64_t>(num_users))));
      },
      /*catalog=*/true);
}

int64_t CheckCapturedAgainstOffline(const RunContext& ctx,
                                    const core::RrreConfig& config,
                                    const std::string& prefix,
                                    const std::vector<ScheduledRequest>& reqs,
                                    const ClientResult& result,
                                    const std::string& what) {
  core::RrreTrainer trainer(config);
  RRRE_CHECK_OK(trainer.Load(prefix));
  core::BatchScorer scorer(&trainer);
  int64_t checked = 0;
  int64_t mismatched = 0;
  std::string first_diff;
  for (const auto& [index, got] : result.captured) {
    const ScheduledRequest& r = reqs[index];
    const std::vector<std::string> ids = rrre::common::Split(r.line, '\t');
    const int64_t user = std::strtoll(ids[0].c_str(), nullptr, 10);
    std::string want;
    if (r.catalog) {
      const auto pred = scorer.ScoreAllItemsForUser(user);
      want = serve::FormatCatalogHeader(
          user, static_cast<int64_t>(pred.ratings.size()));
      for (size_t i = 0; i < pred.ratings.size(); ++i) {
        want += serve::FormatScoreLine(user, static_cast<int64_t>(i),
                                       pred.ratings[i],
                                       pred.reliabilities[i]);
      }
    } else {
      const int64_t item = std::strtoll(ids[1].c_str(), nullptr, 10);
      const auto pred = scorer.Score({{user, item}});
      want = serve::FormatScoreLine(user, item, pred.ratings[0],
                                    pred.reliabilities[0]);
    }
    ++checked;
    if (got != want) {
      ++mismatched;
      if (first_diff.empty()) first_diff = r.line;
    }
  }
  if (mismatched > 0) {
    ctx.report->GateMiss(StrFormat(
        "%s: %lld of %lld sampled responses differ from offline scoring "
        "(first: request \"%s\")",
        what.c_str(), static_cast<long long>(mismatched),
        static_cast<long long>(checked), first_diff.c_str()));
  } else if (checked == 0) {
    ctx.report->GateMiss(what + ": no response was sampled");
  }
  return checked;
}

void CountPhase(const RunContext& ctx, const ClientResult& result,
                const std::string& what) {
  ctx.report->Attempt(result.ok + result.failed());
  ctx.report->Failed(result.failed(),
                     StrFormat("%s: %lld refused, %lld errors, %lld torn, "
                               "%lld unanswered",
                               what.c_str(),
                               static_cast<long long>(result.overloads),
                               static_cast<long long>(result.errors),
                               static_cast<long long>(result.torn),
                               static_cast<long long>(result.unanswered)));
}

LadderResult ClimbRateLadder(const RunContext& ctx, uint16_t port,
                             int connections, const std::vector<double>& rates,
                             const ScheduleFn& schedule, double p99_limit_us) {
  LadderResult out;
  // A rung meets the limit when 99% of its requests were answered within
  // it — a refused, failed or unanswered request misses — and the
  // generator kept to its schedule.
  auto meets = [&](double rate) {
    const std::vector<ScheduledRequest> reqs =
        schedule(rate, ctx.SubSeed(1000 + static_cast<uint64_t>(out.rungs)));
    const ClientResult r = RunOpenLoop(port, connections, reqs);
    ++out.rungs;
    const int64_t within = std::count_if(
        r.latency_us.begin(), r.latency_us.end(),
        [&](double us) { return us <= p99_limit_us; });
    const double late = Percentile(r.lateness_us, 99.0);
    const bool ok = static_cast<double>(within) >=
                        0.99 * static_cast<double>(reqs.size()) &&
                    late <= kMaxLatenessP99Us;
    std::fprintf(stderr,
                 "perfbench: rung %.0f/s answered=%.1f/s p50=%.0fus "
                 "p99=%.0fus late_p99=%.0fus failed=%lld -> %s\n",
                 rate, r.achieved_per_s(), Percentile(r.latency_us, 50.0),
                 Percentile(r.latency_us, 99.0), late,
                 static_cast<long long>(r.failed()), ok ? "meets" : "misses");
    if (ok) out.max_per_s = r.achieved_per_s();
    return ok;
  };
  // Climb until a rung misses twice in a row (one stall of a shared box
  // does not end the climb), then bisect between the last rung that met
  // the limit and the one that missed, so the figure is not quantized to
  // the ladder's steps.
  double lo = 0.0;
  double hi = 0.0;
  for (const double rate : rates) {
    if (!meets(rate) && !meets(rate)) {
      hi = rate;
      break;
    }
    lo = rate;
  }
  for (int i = 0; i < 3 && lo > 0.0 && hi > 0.0; ++i) {
    const double mid = 0.5 * (lo + hi);
    (meets(mid) ? lo : hi) = mid;
  }
  return out;
}

}  // namespace perfbench
