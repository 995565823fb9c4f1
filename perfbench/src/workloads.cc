#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <optional>
#include <thread>

#include "common/io.h"
#include "common/logging.h"
#include "common/strings.h"
#include "core/tower_store.h"
#include "data/adversary.h"
#include "data/profiles.h"
#include "layers.h"
#include "obs/telemetry.h"
#include "stream/driver.h"
#include "stream/publish.h"

namespace perfbench {

namespace core = rrre::core;
namespace serve = rrre::serve;
namespace stream = rrre::stream;
using rrre::common::StrFormat;

namespace {

// Sizes. An epoch of `train` takes about a second on a 4-core x86 box, so
// its measured phase holds ~`seconds` steady epochs; the serve fixture is a
// full-scale yelpchi corpus (3400 users x 201 items), so a catalog request
// expands to 201 pairs.
constexpr double kTrainScale = 0.6;
constexpr double kTrainEpochSeconds = 0.75;
/// Steady epochs per tail window of `train`'s p99_us.
constexpr size_t kTailEpochs = 4;
constexpr double kServeScale = 1.0;
constexpr double kStreamScale = 1.0;
constexpr int64_t kStreamDaysPerPartition = 125;
constexpr double kStreamGenerationSeconds = 3.0;

/// Set-up is repeated this many times per run and reported as the median.
constexpr int kSetupReps = 3;
/// Client connections (and threads) of the open-loop load client.
constexpr int kConnections = 4;
/// Share of the measured time spent at the fixed rate; the rest climbs the
/// rate ladder.
constexpr double kFixedShare = 0.4;

// serve_pairs: fixed rate, the ladder and its p99 limit. At the fixed rate
// batches hold a few pairs and wait out the 1 ms linger.
constexpr double kPairRate = 2000.0;
constexpr double kPairP99LimitUs = 20000.0;
const std::vector<double> kPairLadder = {8000,   16000,  32000,  48000,
                                         72000,  108000, 162000, 243000};

// serve_catalog_routed: each request expands to a catalog of pairs.
constexpr double kCatalogRate = 500.0;
constexpr double kCatalogP99LimitUs = 50000.0;
const std::vector<double> kCatalogLadder = {500,  750,  1100, 1600,
                                            2400, 3600, 5400};

// stream_rollout: the low fixed-rate catalog reader.
constexpr double kReaderRate = 100.0;

/// Latency figures are the median over windows of scheduled send time of
/// each window's percentile, so one stall of a shared machine moves one
/// window, not the figure.
constexpr double kWindowS = 0.5;
constexpr double kCatalogWindowS = 1.0;
constexpr double kReaderWindowS = 2.0;

/// Every n-th request of a fixed-rate phase is checked byte for byte.
constexpr int64_t kPairCaptureEvery = 40;
constexpr int64_t kCatalogCaptureEvery = 20;

// train gates: held-out quality after the run's epochs.
constexpr double kMinTestAuc = 0.55;
constexpr double kMaxTestBrmse = 1.50;

/// End-to-end metrics; the traced run reports its own copies under
/// "trace." so the tracing overhead can be read off against an untraced
/// run of the same seed.
void ReportEndToEnd(const RunContext& ctx, double setup_s, double p50_us,
                    double p99_us, double per_s) {
  const std::string pre = ctx.trace ? "trace." : "";
  ctx.report->Set(pre + "setup_s", setup_s, "s");
  ctx.report->Set(pre + "p50_us", p50_us, "us");
  ctx.report->Set(pre + "p99_us", p99_us, "us");
  ctx.report->Set(pre + "throughput_per_s", per_s, "1/s");
  if (!(setup_s > 0 && p50_us > 0 && p99_us > 0 && per_s > 0)) {
    ctx.report->GateMiss("an end-to-end metric was not measured");
  }
}

/// A fixed-rate phase whose generator ran late is not an open-loop
/// measurement.
void CheckLateness(const RunContext& ctx, const ClientResult& r,
                   const std::string& what) {
  const double late = Percentile(r.lateness_us, 99.0);
  if (ctx.trace) ctx.report->Offer("bench.client.lateness_us.p99", late, "us");
  if (late > kMaxLatenessP99Us) {
    ctx.report->GateMiss(StrFormat("%s: load generator ran late (p99 %.0f us)",
                                   what.c_str(), late));
  }
}

std::unique_ptr<rrre::obs::TelemetryWriter> MaybeTelemetry(
    const RunContext& ctx, const std::string& path) {
  if (!ctx.trace) return nullptr;
  rrre::obs::TelemetryWriter::Options o;
  o.path = path;
  o.include_timings = true;
  return std::make_unique<rrre::obs::TelemetryWriter>(o);
}

// ---------------------------------------------------------------- train ----

void RunTrain(const RunContext& ctx) {
  Tracer* tr = ctx.tracer;
  const int64_t epochs = std::clamp<int64_t>(
      1 + std::llround(ctx.seconds / kTrainEpochSeconds), 3, 200);
  const core::RrreConfig config = ProductConfig(ctx.SubSeed(1), epochs);

  // Set-up: corpus generation plus what a cold Fit does before its first
  // epoch (vocabulary, skip-gram pretraining). The last repetition is the
  // real one, read off the Fit's first epoch callback.
  std::vector<double> setup_s;
  for (int rep = 0; rep + 1 < kSetupReps; ++rep) {
    const int64_t t0 = NowNs();
    Tracer::Span generate(tr, "data.generate");
    const Corpus scratch = MakeCorpus(kTrainScale, ctx.SubSeed(0));
    generate.Close();
    PretrainText(ctx, config, scratch.train);
    setup_s.push_back(SecondsSince(t0));
  }
  Tracer::Span generate(tr, "data.generate");
  const Corpus corpus = MakeCorpus(kTrainScale, ctx.SubSeed(0));
  const double gen_s = generate.Close();

  core::RrreTrainer trainer(config);
  ModelUnderTest model;
  model.config = config;
  model.trainer = &trainer;
  model.test = &corpus.test;
  model.telemetry_path =
      ctx.trace ? ctx.work_dir + "/train.telemetry" : std::string();
  auto telemetry = MaybeTelemetry(ctx, model.telemetry_path);
  if (telemetry != nullptr) trainer.SetTelemetry({telemetry.get(), nullptr});
  const int64_t n = corpus.train.size();
  const auto record = RecordEpochs(&model, n);
  int64_t first_epoch_start_ns = 0;
  const int64_t fit_start_ns = NowNs();
  Timed(tr, "core.trainer.fit", [&] {
    trainer.Fit(corpus.train, [&](const core::RrreTrainer::EpochStats& s) {
      if (model.tape_per_epoch.empty()) {
        first_epoch_start_ns = NowNs() - static_cast<int64_t>(s.seconds * 1e9);
      }
      record(s);
    });
  });
  trainer.SetTelemetry({});
  if (telemetry != nullptr) RRRE_CHECK_OK(telemetry->Close());
  setup_s.push_back(gen_s +
                    static_cast<double>(first_epoch_start_ns - fit_start_ns) *
                        1e-9);
  const int64_t batches = (n + config.batch_size - 1) / config.batch_size;
  ctx.report->Attempt(epochs * batches);

  // Publish: what a trained checkpoint goes through before it can serve.
  model.prefix = ctx.work_dir + "/ckpt";
  model.store_path = model.prefix + ".tower_store";
  Timed(tr, "core.publish", [&] {
    Timed(tr, "core.trainer.save",
          [&] { RRRE_CHECK_OK(trainer.Save(model.prefix)); });
    Timed(tr, "core.tower_store.build", [&] {
      RRRE_CHECK_OK(
          core::BuildTowerStore(trainer, model.prefix, model.store_path)
              .status());
    });
    Timed(tr, "core.tower_store.map", [&] {
      RRRE_CHECK_OK(core::MapTowerStoreForCheckpoint(model.store_path,
                                                     model.prefix, trainer)
                        .status());
    });
  });
  ctx.report->Attempt();

  // Gates: held-out quality, and the parameter fingerprint on record so a
  // bitwise change of training shows up between runs of one seed.
  core::RrreTrainer::EvalResult eval;
  Timed(tr, "core.trainer.evaluate",
        [&] { eval = trainer.Evaluate(corpus.test); });
  ctx.report->Attempt();
  if (!(eval.auc >= kMinTestAuc)) {
    ctx.report->GateMiss(StrFormat("test AUC %.4f below %.2f", eval.auc,
                                   kMinTestAuc));
  }
  if (!(eval.brmse <= kMaxTestBrmse)) {
    ctx.report->GateMiss(StrFormat("test bRMSE %.4f above %.2f", eval.brmse,
                                   kMaxTestBrmse));
  }
  auto fingerprint = core::CheckpointParamsFingerprint(model.prefix);
  RRRE_CHECK_OK(fingerprint.status());
  std::printf("{\"info\": {\"params_fingerprint\": \"%016llx\", "
              "\"test_auc\": %.6f, \"test_brmse\": %.6f, \"epochs\": %lld, "
              "\"train_examples\": %lld}}\n",
              static_cast<unsigned long long>(fingerprint.value()), eval.auc,
              eval.brmse, static_cast<long long>(epochs),
              static_cast<long long>(n));

  // Steady state: every epoch after the first (the first records the tape).
  // The tail is the slowest epoch of each run of kTailEpochs epochs, taken
  // as the median over those runs: one slow epoch on a shared machine moves
  // one window, not the figure (as WindowedPercentile does for requests).
  const double step_p50 = Median(model.step_us);
  std::vector<double> window_tail;
  for (size_t i = 0; i + kTailEpochs <= model.step_us.size();
       i += kTailEpochs) {
    window_tail.push_back(*std::max_element(
        model.step_us.begin() + static_cast<int64_t>(i),
        model.step_us.begin() + static_cast<int64_t>(i + kTailEpochs)));
  }
  ReportEndToEnd(ctx, Median(setup_s), step_p50,
                 window_tail.empty() ? Percentile(model.step_us, 99.0)
                                     : Median(window_tail),
                 step_p50 > 0 ? static_cast<double>(n) /
                                    static_cast<double>(batches) * 1e6 /
                                    Mean(model.step_us)
                              : 0.0);
  if (!ctx.trace) return;
  ProbeModelLayers(ctx, model);
  ProbeServing(ctx, model, /*rate=*/0, /*count=*/0);
  ProbeRouting(ctx, model, /*rate=*/0, /*count=*/0);
  ProbeReload(ctx, model, corpus.train);
}

// ----------------------------------------------------------- serve_pairs ----

void RunServePairs(const RunContext& ctx) {
  Tracer* tr = ctx.tracer;
  const Corpus corpus = MakeCorpus(kServeScale, ctx.SubSeed(0));
  ServingModel fixture =
      TrainServingModel(ctx, corpus, ctx.work_dir + "/ckpt");
  ModelUnderTest& model = fixture.view;
  const int64_t users = corpus.train.num_users();
  const int64_t items = corpus.train.num_items();
  const serve::ServerOptions options =
      ServedDefaults(model.config, model.prefix, /*store_path=*/"");

  // Set-up: checkpoint load and server start, then a warm-up pass that asks
  // for every user and item once, so the measured phases hit warm tower
  // caches (a cold miss in a seeded subset of batches made the tail depend
  // on the seed more than on the server). Repeated; the last server is
  // measured.
  std::vector<double> setup_s;
  std::unique_ptr<serve::Server> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (server != nullptr) server->Shutdown();
    const int64_t t0 = NowNs();
    Timed(tr, "serve.server.start", [&] {
      auto started = serve::Server::Start(options);
      RRRE_CHECK_OK(started.status());
      server = std::move(started).ValueOrDie();
    });
    const ClientResult warm =
        RunOpenLoop(server->port(), kConnections, WarmSchedule(users, items));
    if (warm.failed() > 0) ctx.report->GateMiss("serve_pairs warm-up failed");
    setup_s.push_back(SecondsSince(t0));
  }

  // Fixed rate: the latency figures and the byte-identity sample.
  const double fixed_s = kFixedShare * ctx.seconds;
  const int64_t count = std::llround(kPairRate * fixed_s);
  const std::vector<ScheduledRequest> reqs = PairSchedule(
      count, kPairRate, users, items, ctx.SubSeed(2), kPairCaptureEvery);
  ClientResult fixed;
  Timed(tr, "bench.client.fixed_rate",
        [&] { fixed = RunOpenLoop(server->port(), kConnections, reqs); });
  CountPhase(ctx, fixed, "serve_pairs fixed-rate phase");
  CheckLateness(ctx, fixed, "serve_pairs");
  const double p50 = WindowedPercentile(fixed, kWindowS, 50.0);
  const double p99 = WindowedPercentile(fixed, kWindowS, 99.0);

  // The ladder: highest rate whose p99 meets the limit.
  const double rung_s = std::max(0.5, 0.08 * ctx.seconds);
  const LadderResult ladder = ClimbRateLadder(
      ctx, server->port(), kConnections, kPairLadder,
      [&](double rate, uint64_t seed) {
        return PairSchedule(std::llround(rate * rung_s), rate, users, items,
                            seed, 0);
      },
      kPairP99LimitUs);
  if (ladder.max_per_s <= 0) {
    ctx.report->GateMiss("no ladder rate met the serve_pairs p99 limit");
  }
  const serve::ServerStats stats = server->stats();
  server->Shutdown();

  ctx.report->Attempt(CheckCapturedAgainstOffline(
      ctx, model.config, model.prefix, reqs, fixed, "serve_pairs"));
  ReportEndToEnd(ctx, Median(setup_s), p50, p99, ladder.max_per_s);
  if (!ctx.trace) return;
  ctx.report->Set("serve.server.refused",
                  static_cast<double>(stats.overloads + stats.parse_errors +
                                      stats.range_errors +
                                      stats.read_timeouts),
                  "count");
  ProbeModelLayers(ctx, model);
  ProbeServing(ctx, model, kPairRate, count);
  ProbeRouting(ctx, model, 0, 0);
  ProbeReload(ctx, model, corpus.train);
}

// -------------------------------------------------- serve_catalog_routed ----

void RunServeCatalogRouted(const RunContext& ctx) {
  Tracer* tr = ctx.tracer;
  const Corpus corpus = MakeCorpus(kServeScale, ctx.SubSeed(0));
  ServingModel fixture =
      TrainServingModel(ctx, corpus, ctx.work_dir + "/ckpt");
  ModelUnderTest& model = fixture.view;
  const int64_t users = corpus.train.num_users();

  // Set-up: the store is built once (the publish a fleet serves from);
  // fleet start and warm-up are repeated, the last fleet is measured.
  model.store_path = model.prefix + ".tower_store";
  const double build_s = Timed(tr, "core.tower_store.build", [&] {
    RRRE_CHECK_OK(
        core::BuildTowerStore(*model.trainer, model.prefix, model.store_path)
            .status());
  });
  const serve::ServerOptions options =
      ServedDefaults(model.config, model.prefix, model.store_path);
  std::vector<double> start_s;
  std::unique_ptr<Fleet> fleet;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fleet.reset();
    const int64_t t0 = NowNs();
    Timed(tr, "serve.fleet.start", [&] { fleet = StartFleet(options, 2); });
    const ClientResult warm =
        RunOpenLoop(fleet->router->port(), kConnections,
                    CatalogSchedule(50, 2000.0, users, ctx.SubSeed(10 + rep), 0));
    if (warm.failed() > 0) ctx.report->GateMiss("catalog warm-up failed");
    start_s.push_back(SecondsSince(t0));
  }
  const uint16_t port = fleet->router->port();

  const double fixed_s = kFixedShare * ctx.seconds;
  const int64_t count = std::llround(kCatalogRate * fixed_s);
  const std::vector<ScheduledRequest> reqs = CatalogSchedule(
      count, kCatalogRate, users, ctx.SubSeed(2), kCatalogCaptureEvery);
  ClientResult fixed;
  Timed(tr, "bench.client.fixed_rate",
        [&] { fixed = RunOpenLoop(port, kConnections, reqs); });
  CountPhase(ctx, fixed, "serve_catalog_routed fixed-rate phase");
  CheckLateness(ctx, fixed, "serve_catalog_routed");
  const double p50 = WindowedPercentile(fixed, kCatalogWindowS, 50.0);
  const double p99 = WindowedPercentile(fixed, kCatalogWindowS, 99.0);
  const serve::RouterStats fixed_stats = fleet->router->stats();

  const double rung_s = std::max(0.5, 0.08 * ctx.seconds);
  const LadderResult ladder = ClimbRateLadder(
      ctx, port, kConnections, kCatalogLadder,
      [&](double rate, uint64_t seed) {
        return CatalogSchedule(std::llround(rate * rung_s), rate, users, seed,
                               0);
      },
      kCatalogP99LimitUs);
  if (ladder.max_per_s <= 0) {
    ctx.report->GateMiss("no ladder rate met the catalog p99 limit");
  }
  fleet.reset();

  ctx.report->Attempt(CheckCapturedAgainstOffline(
      ctx, model.config, model.prefix, reqs, fixed, "serve_catalog_routed"));
  ReportEndToEnd(ctx, build_s + Median(start_s), p50, p99, ladder.max_per_s);
  if (!ctx.trace) return;
  ctx.report->Set("serve.router.retries",
                  static_cast<double>(fixed_stats.retries), "count");
  ctx.report->Set("serve.router.failovers",
                  static_cast<double>(fixed_stats.failovers), "count");
  ctx.report->Set("serve.router.upstream_errors",
                  static_cast<double>(fixed_stats.upstream_errors), "count");
  ctx.report->Set("serve.router.fanouts",
                  static_cast<double>(fixed_stats.fanouts), "count");
  ProbeModelLayers(ctx, model);
  ProbeRouting(ctx, model, kCatalogRate, count);
  ProbeServing(ctx, model, 0, 0);
  ProbeReload(ctx, model, corpus.train);
}

// -------------------------------------------------------- stream_rollout ----

void RunStreamRollout(const RunContext& ctx) {
  Tracer* tr = ctx.tracer;
  const std::string root = ctx.work_dir + "/stream";

  // One-time set-up: the arena and generation 0 (a cold Fit, published).
  const int64_t t0 = NowNs();
  rrre::data::AdversaryConfig arena_config;
  arena_config.profile = rrre::data::YelpChiProfile(kStreamScale);
  arena_config.days_per_partition = kStreamDaysPerPartition;
  arena_config.seed = ctx.SubSeed(0);
  const int64_t third = arena_config.profile.horizon_days / 3;
  arena_config.schedule = {
      {0, rrre::data::AdversaryTier::kStatic},
      {third, rrre::data::AdversaryTier::kParaphrase},
      {2 * third, rrre::data::AdversaryTier::kCamouflage}};
  const rrre::data::AdversaryModel arena(arena_config);
  stream::StreamOptions options;
  options.config = ProductConfig(ctx.SubSeed(1), /*epochs=*/2);
  options.epochs_per_partition = 2;
  options.publish_root = root;
  options.build_store = true;
  stream::StreamDriver driver(&arena, options);
  RRRE_CHECK_OK(driver.Recover());
  Timed(tr, "stream.bootstrap", [&] { RRRE_CHECK_OK(driver.Step(nullptr)); });
  const double one_time_s = SecondsSince(t0);

  // Repeated set-up: fleet start on `current` plus a warm-up burst.
  const serve::ServerOptions shard =
      ServedDefaults(options.config, stream::CurrentPath(root, "ckpt"),
                     stream::CurrentPath(root, "ckpt.tower_store"));
  std::vector<double> start_s;
  std::unique_ptr<Fleet> fleet;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fleet.reset();
    const int64_t s0 = NowNs();
    Timed(tr, "serve.fleet.start", [&] { fleet = StartFleet(shard, 2); });
    const ClientResult warm = RunOpenLoop(
        fleet->router->port(), 1,
        CatalogSchedule(20, 1000.0, arena.num_users(), ctx.SubSeed(10 + rep),
                        0));
    if (warm.failed() > 0) ctx.report->GateMiss("stream warm-up failed");
    start_s.push_back(SecondsSince(s0));
  }
  const uint16_t port = fleet->router->port();

  // The measured rollout: generations stepped while the reader runs.
  const int64_t generations = std::clamp<int64_t>(
      std::llround(ctx.seconds / kStreamGenerationSeconds), 1,
      arena.num_partitions() - 1);
  std::atomic<bool> stop{false};
  const std::vector<ScheduledRequest> reads = CatalogSchedule(
      std::llround(kReaderRate * (4.0 * ctx.seconds + 30.0)), kReaderRate,
      arena.num_users(), ctx.SubSeed(2), 0);
  ClientResult reader;
  std::thread reader_thread(
      [&] { reader = RunOpenLoop(port, 1, reads, 5000, &stop); });

  std::vector<double> generation_s;
  std::vector<double> reload_s;
  std::vector<double> retrain_s;
  std::vector<double> publish_s;
  std::vector<double> barrier_s;
  std::vector<double> converge_s;
  core::RrreTrainer& trainer = driver.trainer();
  ModelUnderTest model;
  model.config = options.config;
  model.trainer = &trainer;
  model.telemetry_path =
      ctx.trace ? ctx.work_dir + "/stream.telemetry" : std::string();
  auto telemetry = MaybeTelemetry(ctx, model.telemetry_path);
  if (telemetry != nullptr) trainer.SetTelemetry({telemetry.get(), nullptr});
  std::optional<rrre::data::ReviewDataset> last_eval;
  double examples = 0.0;
  const int64_t first = driver.next_partition();
  for (int64_t g = 0; g < generations; ++g) {
    const int64_t k = first + g;
    const int64_t gen_start = NowNs();
    if (!ctx.trace) {
      stream::GenerationResult result;
      RRRE_CHECK_OK(driver.Step(&result));
    } else {
      // The same public calls StreamDriver::Step makes, timed one by one.
      std::optional<rrre::data::ReviewDataset> cumulative;
      Timed(tr, "data.partition", [&] {
        cumulative = arena.CumulativeThrough(k);
        last_eval = arena.EvalSlice(k);
      });
      const auto record = RecordEpochs(&model, cumulative->size());
      retrain_s.push_back(Timed(tr, "stream.retrain", [&] {
        RRRE_CHECK_OK(trainer.ResumeWith(
            *cumulative, options.epochs_per_partition,
            [&](const core::RrreTrainer::EpochStats& s) {
              Timed(tr, "core.trainer.evaluate",
                    [&] { trainer.Evaluate(*last_eval); });
              record(s);
            }));
      }));
      publish_s.push_back(Timed(tr, "stream.publish", [&] {
        PublishGeneration(ctx, trainer, root, k,
                          static_cast<int>(arena.TierOfPartition(k)));
      }));
    }
    auto manifest = stream::ReadManifest(stream::GenerationDir(root, k));
    RRRE_CHECK_OK(manifest.status());
    const int64_t reload_start = NowNs();
    double barrier = 0.0;
    double converge = 0.0;
    ctx.report->Attempt();
    if (!RollFleet(ctx, port, manifest.value().params_fingerprint, &barrier,
                   &converge)) {
      ctx.report->GateMiss(StrFormat(
          "generation %lld: fleet did not converge on the manifest "
          "fingerprint with zero quarantined",
          static_cast<long long>(k)));
    }
    reload_s.push_back(SecondsSince(reload_start));
    barrier_s.push_back(barrier);
    converge_s.push_back(converge);
    generation_s.push_back(SecondsSince(gen_start));
    for (int64_t p = 0; p <= k; ++p) {
      examples += static_cast<double>(arena.PartitionVolume(p) *
                                      options.epochs_per_partition);
    }
  }
  stop.store(true);
  reader_thread.join();
  trainer.SetTelemetry({});
  if (telemetry != nullptr) RRRE_CHECK_OK(telemetry->Close());
  fleet.reset();

  CountPhase(ctx, reader, "stream_rollout reader");
  if (reader.torn > 0) {
    ctx.report->GateMiss(StrFormat("%lld torn catalog responses",
                                   static_cast<long long>(reader.torn)));
  }
  CheckLateness(ctx, reader, "stream_rollout reader");
  double total_s = 0.0;
  for (double s : generation_s) total_s += s;
  ReportEndToEnd(ctx, one_time_s + Median(start_s),
                 WindowedPercentile(reader, kReaderWindowS, 50.0),
                 WindowedPercentile(reader, kReaderWindowS, 99.0),
                 total_s > 0 ? examples / total_s : 0.0);
  if (!ctx.trace) return;
  ctx.report->Set("stream.generation_s", Median(generation_s), "s");
  ctx.report->Set("stream.reload_s", Median(reload_s), "s");
  ctx.report->Set("stream.retrain_s", Median(retrain_s), "s");
  ctx.report->Set("stream.publish_s", Median(publish_s), "s");
  ctx.report->Set("stream.converge_s", Median(converge_s), "s");
  ctx.report->Set("serve.router.reload_barrier_s", Median(barrier_s), "s");
  ctx.report->Set("data.partition_s",
                  Median(tr->DurationsUs("data.partition")) * 1e-6, "s");
  const int64_t last = first + generations - 1;
  model.test = &*last_eval;
  model.prefix = stream::GenerationDir(root, last) + "/ckpt";
  model.store_path = model.prefix + ".tower_store";
  ProbeModelLayers(ctx, model);
  ProbeServing(ctx, model, 0, 0);
  ProbeRouting(ctx, model, 0, 0);
  // serve.batcher.reload_s: the in-process half of a roll, last-1 -> last.
  ProbeBatcherReload(ctx, options.config, root, last - 1);
}

}  // namespace

WorkloadFn FindWorkload(const std::string& name) {
  if (name == "train") return &RunTrain;
  if (name == "serve_pairs") return &RunServePairs;
  if (name == "serve_catalog_routed") return &RunServeCatalogRouted;
  if (name == "stream_rollout") return &RunStreamRollout;
  return nullptr;
}

}  // namespace perfbench
