#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "common/io.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/threadpool.h"
#include "core/features.h"
#include "core/model.h"
#include "core/review_encoder.h"
#include "core/scorer.h"
#include "core/tower_store.h"
#include "data/adversary.h"
#include "data/profiles.h"
#include "nn/attention.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "serve/batcher.h"
#include "serve/protocol.h"
#include "stream/publish.h"
#include "tensor/grad_sink.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "text/tokenizer.h"
#include "text/vocab.h"
#include "text/word2vec.h"

namespace perfbench {

namespace core = rrre::core;
namespace serve = rrre::serve;
namespace tensor = rrre::tensor;
using rrre::common::Rng;
using rrre::common::StrFormat;

namespace {

/// Median wall time (s) of `reps` calls of `fn`, each call timed as a span.
template <typename Fn>
double MedianSeconds(Tracer* tracer, const char* name, int reps, Fn&& fn) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) s.push_back(Timed(tracer, name, fn));
  return Median(s);
}

/// Median over `windows` of the mean time (s) per call of `fn`, each window
/// repeating the call until it has run for at least `window_s`.
template <typename Fn>
double PerCallSeconds(int windows, double window_s, Fn&& fn) {
  std::vector<double> per_call;
  for (int w = 0; w < windows; ++w) {
    int64_t calls = 0;
    const int64_t t0 = NowNs();
    double elapsed = 0.0;
    do {
      fn();
      ++calls;
      elapsed = SecondsSince(t0);
    } while (elapsed < window_s);
    per_call.push_back(elapsed / static_cast<double>(calls));
  }
  return Median(per_call);
}

/// Median of the closed spans named `name` (s), or -1 when there are none.
double SpanMedianSeconds(const RunContext& ctx, const std::string& name) {
  const std::vector<double> us = ctx.tracer->DurationsUs(name);
  return us.empty() ? -1.0 : Median(us) * 1e-6;
}

/// Offers `name` from the median of the spans named `span`, or from
/// `measure()` when the workload recorded none.
template <typename Fn>
void OfferSeconds(const RunContext& ctx, const std::string& name,
                  const std::string& span, Fn&& measure) {
  if (ctx.report->Has(name)) return;
  double s = SpanMedianSeconds(ctx, span);
  if (s < 0) s = measure();
  ctx.report->Set(name, s, "s");
}

double GemmGflops(int64_t m, int64_t n, int64_t k) {
  Rng rng(7);
  std::vector<float> a(static_cast<size_t>(m * k));
  std::vector<float> b(static_cast<size_t>(k * n));
  std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
  for (float& v : a) v = static_cast<float>(rng.Uniform(-1, 1));
  for (float& v : b) v = static_cast<float>(rng.Uniform(-1, 1));
  const double s = PerCallSeconds(5, 0.02, [&] {
    tensor::kernels::GemmNN(m, n, k, a.data(), k, b.data(), n, c.data(), n);
  });
  if (!std::isfinite(c[0])) std::abort();  // Keeps the product observable.
  return 2.0 * static_cast<double>(m * n * k) / s * 1e-9;
}

/// Pairs over a corpus' id space, drawn from `seed`.
std::vector<std::pair<int64_t, int64_t>> RandomPairs(
    const rrre::data::ReviewDataset& corpus, int64_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<int64_t, int64_t>> out;
  for (int64_t i = 0; i < count; ++i) {
    out.emplace_back(
        static_cast<int64_t>(
            rng.UniformInt(static_cast<uint64_t>(corpus.num_users()))),
        static_cast<int64_t>(
            rng.UniformInt(static_cast<uint64_t>(corpus.num_items()))));
  }
  return out;
}

/// Replays the trainer's data-parallel step — the same public calls
/// RrreTrainer's epoch loop makes, in the same order — on a replica model
/// of `model`'s shape, timing the shard region and the serial tail and the
/// calls inside them.
void ProbeReplicaStep(const RunContext& ctx, const ModelUnderTest& model) {
  Tracer* tr = ctx.tracer;
  const core::RrreConfig& c = model.config;
  const rrre::data::ReviewDataset& train = model.trainer->train_data();
  const rrre::text::Vocabulary& vocab = model.trainer->vocab();
  Rng init(c.seed ^ 0x7e91ca5ULL);
  core::RrreModel replica(c, train.num_users(), train.num_items(),
                          vocab.size(), init);
  core::FeatureBuilder features(c, &train, &vocab);
  rrre::nn::Adam optimizer(replica.Parameters(), c.lr);
  tensor::SetFusionEnabled(c.use_tape);
  const std::vector<tensor::Tensor> all_params = replica.Parameters();
  double rating_sum = 0.0;
  for (const auto& r : train.reviews()) rating_sum += r.rating;
  const double offset = rating_sum / static_cast<double>(train.size());

  std::vector<int64_t> order(static_cast<size_t>(train.size()));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
  Rng rng(ctx.SubSeed(40));
  rng.Shuffle(order);

  const int64_t bsz = c.batch_size;
  const int64_t ssz = c.shard_size > 0 ? c.shard_size : bsz;
  const int64_t num_shards = (bsz + ssz - 1) / ssz;
  const float lam = static_cast<float>(c.lambda);
  std::vector<std::unique_ptr<tensor::BatchTape>> tapes;
  for (int64_t s = 0; s < num_shards; ++s) {
    tapes.push_back(std::make_unique<tensor::BatchTape>());
    tapes.back()->SetReplayEnabled(c.tape_replay);
  }

  // The first step of a shape records the tape; the next one seals it.
  constexpr int kWarmSteps = 3;
  constexpr int kSteps = 40;
  std::vector<double> region_us, tail_us, backward_us, clip_us, step_opt_us;
  double build_us = 0.0;
  int64_t built_examples = 0;
  for (int step = 0; step < kWarmSteps + kSteps; ++step) {
    const int64_t start =
        (static_cast<int64_t>(step) * bsz) % (train.size() - bsz);
    std::vector<std::pair<int64_t, int64_t>> pairs;
    std::vector<int64_t> exclude;
    std::vector<float> targets, weights;
    std::vector<int64_t> labels;
    for (int64_t p = start; p < start + bsz; ++p) {
      const auto& r = train.review(order[static_cast<size_t>(p)]);
      pairs.emplace_back(r.user, r.item);
      exclude.push_back(-1);
      targets.push_back(static_cast<float>(r.rating - offset));
      labels.push_back(r.is_benign() ? 1 : 0);
      weights.push_back(c.biased_loss ? (r.is_benign() ? 1.0f : 0.0f) : 1.0f);
    }
    Rng batch_rng = rng.Fork();
    std::vector<std::unique_ptr<tensor::GradSink>> sinks(
        static_cast<size_t>(num_shards));
    std::vector<double> shard_build(static_cast<size_t>(num_shards));
    std::vector<double> shard_backward(static_cast<size_t>(num_shards));
    const double region = Timed(tr, "core.trainer.shard_region", [&] {
      rrre::common::ParallelFor(0, num_shards, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t s = lo; s < hi; ++s) {
          const int64_t s0 = s * ssz;
          const int64_t s1 = std::min(bsz, s0 + ssz);
          tapes[static_cast<size_t>(s)]->BeginStep(
              (static_cast<uint64_t>(bsz) << 32) |
              static_cast<uint64_t>(s1 - s0));
          tensor::BatchTape::Scope tape_scope(tapes[static_cast<size_t>(s)].get());
          Rng shard_rng = batch_rng.Fork(static_cast<uint64_t>(s));
          const std::vector<std::pair<int64_t, int64_t>> sp(
              pairs.begin() + s0, pairs.begin() + s1);
          const std::vector<int64_t> se(exclude.begin() + s0,
                                        exclude.begin() + s1);
          core::RrreModel::Batch batch;
          shard_build[static_cast<size_t>(s)] =
              Timed(tr, "core.features.build",
                    [&] { batch = features.Build(sp, se, shard_rng); });
          core::RrreModel::Output out =
              replica.Forward(batch, /*training=*/true, &shard_rng);
          tensor::Tensor ce = tensor::CrossEntropyWithLogits(
              out.reliability_logits,
              std::vector<int64_t>(labels.begin() + s0, labels.begin() + s1));
          tensor::Tensor mse = rrre::nn::WeightedMseLoss(
              out.rating,
              std::vector<float>(targets.begin() + s0, targets.begin() + s1),
              std::vector<float>(weights.begin() + s0, weights.begin() + s1),
              rrre::nn::WeightedMseNorm::kBatchSize);
          const float frac =
              static_cast<float>(s1 - s0) / static_cast<float>(bsz);
          tensor::Tensor loss =
              tensor::Add(tensor::MulScalar(ce, lam * frac),
                          tensor::MulScalar(mse, (1.0f - lam) * frac));
          sinks[static_cast<size_t>(s)] =
              std::make_unique<tensor::GradSink>(all_params);
          tensor::GradSink::Scope sink_scope(sinks[static_cast<size_t>(s)].get());
          shard_backward[static_cast<size_t>(s)] =
              Timed(tr, "tensor.backward", [&] { loss.Backward(); });
        }
      });
    });
    double clip = 0.0;
    double opt = 0.0;
    double l2_backward = 0.0;
    const double tail = Timed(tr, "core.trainer.serial_tail", [&] {
      std::unordered_set<tensor::internal::TensorImpl*> zeroed;
      if (c.gamma > 0.0) {
        tensor::BatchTape::Scope l2_scope(tapes[0].get());
        tensor::Tensor pen = rrre::nn::L2Penalty(optimizer.params());
        tensor::Tensor scaled = tensor::MulScalar(
            pen, (1.0f - lam) * static_cast<float>(c.gamma));
        l2_backward = Timed(tr, "tensor.backward", [&] { scaled.Backward(); });
        for (const tensor::Tensor& p : optimizer.params()) {
          zeroed.insert(p.impl().get());
        }
      }
      for (const auto& sink : sinks) {
        for (tensor::Tensor t : sink->Touched()) {
          if (zeroed.insert(t.impl().get()).second) t.ZeroGrad();
        }
      }
      for (const auto& sink : sinks) sink->AccumulateInto();
      if (c.grad_clip > 0.0) {
        clip = Timed(tr, "nn.clip", [&] {
          auto params = optimizer.params();
          rrre::nn::ClipGradNorm(params, c.grad_clip);
        });
      }
      opt = Timed(tr, "nn.optimizer_step", [&] { optimizer.Step(); });
    });
    if (step < kWarmSteps) continue;
    region_us.push_back(region * 1e6);
    tail_us.push_back(tail * 1e6);
    double bw = l2_backward;
    for (double s : shard_backward) bw += s;
    backward_us.push_back(bw * 1e6);
    for (double s : shard_build) build_us += s * 1e6;
    built_examples += bsz;
    clip_us.push_back(clip * 1e6);
    step_opt_us.push_back(opt * 1e6);
  }
  Report& rep = *ctx.report;
  const double region = Median(region_us);
  const double tail = Median(tail_us);
  rep.Set("core.trainer.shard_region_us_per_step", region, "us");
  rep.Set("core.trainer.serial_tail_us_per_step", tail, "us");
  rep.Set("core.trainer.replica_step_us", region + tail, "us");
  rep.Set("tensor.backward_us_per_step", Median(backward_us), "us");
  rep.Set("core.features.build_us_per_example",
          build_us / static_cast<double>(std::max<int64_t>(1, built_examples)),
          "us");
  rep.Set("nn.clip_us", Median(clip_us), "us");
  rep.Set("nn.optimizer_step_us", Median(step_opt_us), "us");
}

/// ReviewEncoder::Encode and FraudAttention forward on replica modules of
/// the model's shape, over one inference batch's user histories.
void ProbeEncoderAndAttention(const RunContext& ctx,
                              const ModelUnderTest& model) {
  const core::RrreConfig& c = model.config;
  const rrre::data::ReviewDataset& train = model.trainer->train_data();
  Rng rng(ctx.SubSeed(41));
  rrre::nn::Embedding words(model.trainer->vocab().size(), c.word_dim, rng);
  core::ReviewEncoder encoder(&words, c.max_tokens, c.rev_dim, rng);
  rrre::nn::FraudAttention attention(c.rev_dim, c.id_dim, c.id_dim,
                                     c.attention_dim, rng);
  core::FeatureBuilder features(c, &train, &model.trainer->vocab());
  const int64_t b = c.batch_size;
  const core::RrreModel::Batch batch =
      features.Build(RandomPairs(train, b, ctx.SubSeed(42)), rng);
  const int64_t slots = b * c.s_u;
  tensor::Tensor rev;
  const double encode_s = PerCallSeconds(5, 0.02, [&] {
    rev = encoder.Encode(batch.user_hist_tokens, slots);
  });
  const tensor::Tensor uid =
      tensor::Tensor::Randn({slots, c.id_dim}, rng, 0.1f);
  const tensor::Tensor iid =
      tensor::Tensor::Randn({slots, c.id_dim}, rng, 0.1f);
  const double attend_s = PerCallSeconds(5, 0.02, [&] {
    tensor::Tensor alphas = attention.Forward(rev, uid, iid, c.s_u);
  });
  ctx.report->Set("nn.encoder_us_per_slot",
                  encode_s * 1e6 / static_cast<double>(slots), "us");
  ctx.report->Set("nn.attention_us_per_example",
                  attend_s * 1e6 / static_cast<double>(b), "us");
}

/// The trained model's towers and heads, split as the scorer uses them.
void ProbeTowersAndHeads(const RunContext& ctx, const ModelUnderTest& model) {
  const core::RrreConfig& c = model.config;
  const core::RrreModel& net = model.trainer->model();
  const rrre::data::ReviewDataset& train = model.trainer->train_data();
  core::FeatureBuilder features(c, &train, &model.trainer->vocab());
  Rng rng(ctx.SubSeed(43));
  const int64_t b = 64;
  const core::RrreModel::Batch batch =
      features.Build(RandomPairs(train, b, ctx.SubSeed(44)), rng);
  tensor::Tensor xu, yi;
  const double user_s =
      PerCallSeconds(5, 0.02, [&] { xu = net.ComputeUserProfiles(batch); });
  const double item_s =
      PerCallSeconds(5, 0.02, [&] { yi = net.ComputeItemProfiles(batch); });
  const double heads_s = PerCallSeconds(5, 0.02, [&] {
    core::RrreModel::Output out =
        net.ForwardFromProfiles(xu, yi, batch.users, batch.items);
  });
  const double per = 1e6 / static_cast<double>(b);
  ctx.report->Set("core.model.user_tower_us_per_example", user_s * per, "us");
  ctx.report->Set("core.model.item_tower_us_per_example", item_s * per, "us");
  ctx.report->Set("nn.heads_us_per_pair", heads_s * per, "us");
}

/// BatchScorer: cold priming, warm live scoring at two batch sizes, and
/// store-backed scoring.
void ProbeScorer(const RunContext& ctx, ModelUnderTest& model) {
  Tracer* tr = ctx.tracer;
  const rrre::data::ReviewDataset& train = model.trainer->train_data();
  core::BatchScorer scorer(model.trainer);
  std::vector<int64_t> users;
  for (int64_t u = 0; u < std::min<int64_t>(256, train.num_users()); ++u) {
    users.push_back(u);
  }
  std::vector<int64_t> items;
  for (int64_t i = 0; i < train.num_items(); ++i) items.push_back(i);
  const double prime_s = Timed(tr, "core.scorer.prime", [&] {
    scorer.PrimeUsers(users);
    scorer.PrimeItems(items);
  });
  ctx.report->Set("core.scorer.prime_us_per_id",
                  prime_s * 1e6 / static_cast<double>(users.size() + items.size()),
                  "us");
  // Warm: only primed users.
  auto warm_pairs = [&](int64_t n, uint64_t seed) {
    Rng rng(seed);
    std::vector<std::pair<int64_t, int64_t>> out;
    for (int64_t i = 0; i < n; ++i) {
      out.emplace_back(users[rng.UniformInt(users.size())],
                       items[rng.UniformInt(items.size())]);
    }
    return out;
  };
  for (const int64_t b : {int64_t{4}, int64_t{64}}) {
    const auto pairs = warm_pairs(b, ctx.SubSeed(45 + b));
    const double s = PerCallSeconds(5, 0.02, [&] { scorer.Score(pairs); });
    ctx.report->Set(StrFormat("core.scorer.score_us_per_pair.b%lld",
                              static_cast<long long>(b)),
                    s * 1e6 / static_cast<double>(b), "us");
  }

  if (model.store_path.empty()) {
    model.store_path = ctx.work_dir + "/probe.tower_store";
    Timed(tr, "core.tower_store.build", [&] {
      RRRE_CHECK_OK(core::BuildTowerStore(*model.trainer, model.prefix,
                                          model.store_path)
                        .status());
    });
  }
  std::shared_ptr<const core::TowerStore> store;
  const double map_s = MedianSeconds(tr, "core.tower_store.map", 3, [&] {
    auto mapped = core::MapTowerStoreForCheckpoint(model.store_path,
                                                   model.prefix, *model.trainer);
    RRRE_CHECK_OK(mapped.status());
    store = mapped.value();
  });
  core::BatchScorer store_scorer(model.trainer);
  store_scorer.AttachStore(store);
  const auto pairs = RandomPairs(train, 64, ctx.SubSeed(46));
  const double s = PerCallSeconds(5, 0.02, [&] { store_scorer.Score(pairs); });
  ctx.report->Set("core.scorer.store_score_us_per_pair", s * 1e6 / 64.0, "us");
  ctx.report->Offer("core.tower_store.map_s", map_s, "s");
  // Every store build of the run (publish, set-up or the one above) is a
  // core.tower_store.build span.
  ctx.report->Offer("core.tower_store.build_s",
                    SpanMedianSeconds(ctx, "core.tower_store.build"), "s");
}

/// In-process MicroBatcher on a pair schedule: submit-to-done latency from
/// each request's scheduled time, and the batcher's own batch statistics.
struct InProcessResult {
  std::vector<double> latency_us;
  serve::MicroBatcher::Stats stats;
};
InProcessResult DriveBatcher(const ModelUnderTest& model,
                             const std::vector<ScheduledRequest>& reqs) {
  auto trainer = std::make_unique<core::RrreTrainer>(model.config);
  RRRE_CHECK_OK(trainer->Load(model.prefix));
  rrre::obs::MetricsRegistry registry;
  serve::MicroBatcher::Options opts =
      ServedDefaults(model.config, model.prefix, "").batcher;
  opts.model_prefix = model.prefix;
  opts.metrics = &registry;
  serve::MicroBatcher batcher(std::move(trainer), opts);
  // Warm-up like the socket phase: every tower profile cached.
  const int64_t users = model.trainer->train_data().num_users();
  const int64_t items = model.trainer->train_data().num_items();
  for (const ScheduledRequest& r : WarmSchedule(users, items)) {
    const auto ids = rrre::common::Split(r.line, '\t');
    batcher.TrySubmit(std::strtoll(ids[0].c_str(), nullptr, 10),
                      std::strtoll(ids[1].c_str(), nullptr, 10),
                      [](const rrre::common::Status&,
                         const std::vector<serve::MicroBatcher::ScoredPair>&) {});
  }
  batcher.Drain();
  const serve::MicroBatcher::Stats before = batcher.stats();

  InProcessResult out;
  std::vector<double> done_us(reqs.size(), -1.0);
  const int64_t start = NowNs() + 5'000'000;
  for (size_t i = 0; i < reqs.size(); ++i) {
    const int64_t due = start + reqs[i].due_ns;
    while (NowNs() < due) {
      const int64_t wait = due - NowNs();
      if (wait > 200'000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(wait - 100'000));
      }
    }
    const auto ids = rrre::common::Split(reqs[i].line, '\t');
    batcher.TrySubmit(
        std::strtoll(ids[0].c_str(), nullptr, 10),
        std::strtoll(ids[1].c_str(), nullptr, 10),
        [&done_us, i, due](const rrre::common::Status& status,
                           const std::vector<serve::MicroBatcher::ScoredPair>&) {
          if (status.ok()) {
            done_us[i] = static_cast<double>(NowNs() - due) * 1e-3;
          }
        });
  }
  batcher.Drain();
  for (double v : done_us) {
    if (v >= 0) out.latency_us.push_back(v);
  }
  out.stats = batcher.stats();
  // Batch figures of the measured schedule only.
  out.stats.batches -= before.batches;
  out.stats.pairs_scored -= before.pairs_scored;
  batcher.Stop();
  return out;
}

/// Warm-up burst then `reqs` against a fresh server; returns the phase.
ClientResult ServePhase(const ModelUnderTest& model,
                        const serve::ServerOptions& options,
                        const std::vector<ScheduledRequest>& reqs,
                        serve::ServerStats* stats) {
  auto server = serve::Server::Start(options);
  RRRE_CHECK_OK(server.status());
  const int64_t users = model.trainer->train_data().num_users();
  const int64_t items = model.trainer->train_data().num_items();
  RunOpenLoop(server.value()->port(), 4, WarmSchedule(users, items));
  ClientResult r = RunOpenLoop(server.value()->port(), 4, reqs);
  server.value()->Shutdown();
  if (stats != nullptr) *stats = server.value()->stats();
  return r;
}

}  // namespace

void PretrainText(const RunContext& ctx, const core::RrreConfig& config,
                  const rrre::data::ReviewDataset& train) {
  Tracer* tr = ctx.tracer;
  std::vector<std::vector<std::string>> docs;
  rrre::text::Vocabulary vocab;
  Timed(tr, "text.vocab", [&] {
    docs.reserve(static_cast<size_t>(train.size()));
    for (const auto& r : train.reviews()) {
      docs.push_back(rrre::text::Tokenize(r.text));
    }
    vocab = rrre::text::Vocabulary::Build(docs, config.vocab_min_count);
  });
  if (!config.pretrain_word_vectors) return;
  Timed(tr, "text.pretrain", [&] {
    std::vector<std::vector<int64_t>> ids;
    ids.reserve(docs.size());
    for (const auto& doc : docs) ids.push_back(vocab.Encode(doc));
    rrre::text::SkipGramConfig sg;
    sg.dim = config.word_dim;
    sg.epochs = config.pretrain_epochs;
    Rng rng(config.seed);
    rrre::text::SkipGramTrainer(sg, vocab.size()).Train(ids, rng);
  });
}

void ReportTapeEpoch(const RunContext& ctx,
                     const std::vector<tensor::BatchTape::Stats>& snaps) {
  if (ctx.report->Has("tensor.tape.replay_share") || snaps.size() < 2) return;
  const tensor::BatchTape::Stats& a = snaps[snaps.size() - 2];
  const tensor::BatchTape::Stats& b = snaps.back();
  const int64_t steps = b.steps - a.steps;
  ctx.report->Set("tensor.tape.replay_share",
                  steps > 0 ? static_cast<double>(b.replay_steps - a.replay_steps) /
                                  static_cast<double>(steps)
                            : 0.0,
                  "ratio");
  ctx.report->Set("tensor.tape.closure_allocs_per_epoch",
                  static_cast<double>(b.closure_allocs - a.closure_allocs),
                  "count");
  ctx.report->Set("tensor.tape.buffer_allocs_per_epoch",
                  static_cast<double>(b.buffer_allocs - a.buffer_allocs),
                  "count");
  ctx.report->Set("tensor.tape.dfs_visits_per_epoch",
                  static_cast<double>(b.dfs_node_visits - a.dfs_node_visits),
                  "count");
}

void ReportShardWalls(const RunContext& ctx, const std::string& path) {
  if (ctx.report->Has("core.trainer.shard_wall_us.mean") || path.empty()) {
    return;
  }
  auto content = rrre::common::ReadFile(path);
  if (!content.ok()) return;
  auto records = rrre::obs::ParseJsonLines(content.value());
  if (!records.ok()) return;
  for (auto it = records.value().rbegin(); it != records.value().rend(); ++it) {
    const std::string* mean = it->Find("shard_us_mean");
    const std::string* p95 = it->Find("shard_us_p95");
    const std::string* max = it->Find("shard_us_max");
    if (mean == nullptr || p95 == nullptr || max == nullptr) continue;
    ctx.report->Set("core.trainer.shard_wall_us.mean", std::stod(*mean), "us");
    ctx.report->Set("core.trainer.shard_wall_us.p95", std::stod(*p95), "us");
    ctx.report->Set("core.trainer.shard_wall_us.max", std::stod(*max), "us");
    return;
  }
}

void ProbeSharedLayers(const RunContext& ctx) {
  Report& rep = *ctx.report;
  // GEMM at the model's training-shard shapes (8 examples, 7 item slots):
  // BiLSTM input gates, the attention projection, the FM factor mix.
  const core::RrreConfig c = ProductConfig(1, 1);
  const int64_t slots = c.shard_size * c.s_i;
  rep.Set("tensor.gemm_gflops.lstm_gates",
          GemmGflops(slots, 4 * (c.rev_dim / 2), c.word_dim), "GFLOP/s");
  rep.Set("tensor.gemm_gflops.attention",
          GemmGflops(slots, c.attention_dim, c.rev_dim), "GFLOP/s");
  rep.Set("tensor.gemm_gflops.fm_mix",
          GemmGflops(c.shard_size, c.fm_factors, 2 * c.id_dim), "GFLOP/s");

  // The line protocol on a seeded mix of pair and catalog lines.
  std::vector<std::string> lines;
  Rng rng(ctx.SubSeed(30));
  for (int i = 0; i < 4096; ++i) {
    lines.push_back(i % 8 == 0
                        ? std::to_string(rng.UniformInt(uint64_t{3400}))
                        : StrFormat("%llu\t%llu",
                                    static_cast<unsigned long long>(
                                        rng.UniformInt(uint64_t{3400})),
                                    static_cast<unsigned long long>(
                                        rng.UniformInt(uint64_t{201}))));
  }
  int64_t sink = 0;
  const double parse_s = PerCallSeconds(5, 0.02, [&] {
    for (const std::string& l : lines) sink += serve::ParseRequest(l).user;
  });
  const double format_s = PerCallSeconds(5, 0.02, [&] {
    for (size_t i = 0; i < lines.size(); ++i) {
      sink += static_cast<int64_t>(
          serve::FormatScoreLine(static_cast<int64_t>(i), 7,
                                 3.5 + 1e-3 * static_cast<double>(i),
                                 0.25 + 1e-4 * static_cast<double>(i))
              .size());
    }
  });
  if (sink == 42) std::fprintf(stderr, " ");
  const double n = static_cast<double>(lines.size());
  rep.Set("serve.protocol.parse_ns_per_line", parse_s * 1e9 / n, "ns");
  rep.Set("serve.protocol.format_ns_per_line", format_s * 1e9 / n, "ns");

  // An empty ParallelFor over one training batch's shard count: the pool's
  // own fork/join cost.
  const int64_t shards = (c.batch_size + c.shard_size - 1) / c.shard_size;
  std::vector<double> pf_us;
  for (int i = 0; i < 2000; ++i) {
    const int64_t t0 = NowNs();
    rrre::common::ParallelFor(0, shards, 1, [](int64_t, int64_t) {});
    pf_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
  }
  rep.Set("common.parallel_for_us", Median(pf_us), "us");

}

void ProbeModelLayers(const RunContext& ctx, ModelUnderTest& model) {
  Tracer* tr = ctx.tracer;
  ReportTapeEpoch(ctx, model.tape_per_epoch);
  ReportShardWalls(ctx, model.telemetry_path);
  ProbeReplicaStep(ctx, model);
  // Closure: the replica step's layers against the steps the workload's
  // own training took.
  const double step = Median(model.step_us);
  ctx.report->Set("core.trainer.step_us", step, "us");
  ctx.report->Set(
      "closure.train_step_ratio",
      step > 0 ? ctx.report->Get("core.trainer.replica_step_us") / step : 0.0,
      "ratio");
  ProbeEncoderAndAttention(ctx, model);
  ProbeTowersAndHeads(ctx, model);
  ProbeScorer(ctx, model);
  OfferSeconds(ctx, "core.trainer.evaluate_s", "core.trainer.evaluate", [&] {
    return Timed(tr, "core.trainer.evaluate",
                 [&] { model.trainer->Evaluate(*model.test); });
  });
  const std::string copy = ctx.work_dir + "/probe_ckpt";
  OfferSeconds(ctx, "core.trainer.save_s", "core.trainer.save", [&] {
    return MedianSeconds(tr, "core.trainer.save", 3, [&] {
      RRRE_CHECK_OK(model.trainer->Save(copy));
    });
  });
  ctx.report->Offer("core.trainer.load_s",
                    MedianSeconds(tr, "core.trainer.load", 3,
                                  [&] {
                                    core::RrreTrainer t(model.config);
                                    RRRE_CHECK_OK(t.Load(model.prefix));
                                  }),
                    "s");
  if (ctx.tracer->DurationsUs("text.vocab").empty()) {
    PretrainText(ctx, model.config, model.trainer->train_data());
  }
  ctx.report->Offer("text.vocab_s", SpanMedianSeconds(ctx, "text.vocab"), "s");
  // Fixtures that skip pretraining still report what it costs on their
  // corpus.
  if (ctx.tracer->DurationsUs("text.pretrain").empty()) {
    core::RrreConfig with = model.config;
    with.pretrain_word_vectors = true;
    PretrainText(ctx, with, model.trainer->train_data());
  }
  ctx.report->Offer("text.pretrain_s", SpanMedianSeconds(ctx, "text.pretrain"),
                    "s");
  OfferSeconds(ctx, "data.generate_s", "data.generate",
               [&] { return Timed(ctx.tracer, "data.generate", [&] {
                   MakeCorpus(0.6, ctx.SubSeed(0));
                 }); });
  OfferSeconds(ctx, "data.partition_s", "data.partition", [&] {
    rrre::data::AdversaryConfig a;
    a.profile = rrre::data::YelpChiProfile(0.3);
    a.days_per_partition = 125;
    a.seed = ctx.SubSeed(31);
    const rrre::data::AdversaryModel arena(a);
    return Timed(ctx.tracer, "data.partition", [&] {
      arena.CumulativeThrough(arena.num_partitions() - 1);
    });
  });
}

void ProbeServing(const RunContext& ctx, const ModelUnderTest& model,
                  double rate, int64_t count) {
  if (rate <= 0) {
    rate = 2000.0;
    count = 2000;
  }
  const int64_t users = model.trainer->train_data().num_users();
  const int64_t items = model.trainer->train_data().num_items();
  const std::vector<ScheduledRequest> reqs =
      PairSchedule(count, rate, users, items, ctx.SubSeed(50), 0);
  const InProcessResult inproc = DriveBatcher(model, reqs);
  const double inproc_p50 = Percentile(inproc.latency_us, 50.0);
  const double batch_p50 = inproc.stats.batch_latency_us.Percentile(50.0);
  Report& rep = *ctx.report;
  rep.Set("serve.batcher.submit_to_done_us.p50", inproc_p50, "us");
  rep.Set("serve.batcher.submit_to_done_us.p99",
          Percentile(inproc.latency_us, 99.0), "us");
  rep.Set("serve.batcher.batch_pairs_mean",
          inproc.stats.batches > 0
              ? static_cast<double>(inproc.stats.pairs_scored) /
                    static_cast<double>(inproc.stats.batches)
              : 0.0,
          "count");
  rep.Set("serve.batcher.batch_latency_us.p50", batch_p50, "us");
  rep.Set("serve.batcher.wait_share",
          inproc_p50 > 0 ? 1.0 - batch_p50 / inproc_p50 : 0.0, "ratio");

  // The same schedule over a socket, with the metrics registry on (as
  // shipped) and off.
  serve::ServerOptions options = ServedDefaults(model.config, model.prefix, "");
  serve::ServerStats stats;
  const ClientResult socket = ServePhase(model, options, reqs, &stats);
  const double socket_p50_us = Percentile(socket.latency_us, 50.0);
  rep.Offer("bench.client.lateness_us.p99",
            Percentile(socket.lateness_us, 99.0), "us");
  rep.Offer("serve.server.refused",
            static_cast<double>(stats.overloads + stats.parse_errors +
                                stats.range_errors + stats.read_timeouts),
            "count");
  rep.Set("serve.server.hop_us.p50", socket_p50_us - inproc_p50, "us");
  // Closure: the serving layers a pair request crosses, summed — parse and
  // format (ProbeSharedLayers ran first), batcher, server hop — to be
  // compared with the untraced p50_us.
  rep.Set("closure.serve_path_us",
          (rep.Get("serve.protocol.parse_ns_per_line") +
           rep.Get("serve.protocol.format_ns_per_line")) * 1e-3 +
              inproc_p50 + (socket_p50_us - inproc_p50),
          "us");
  options.enable_metrics = false;
  const double off_p50 = Percentile(
      ServePhase(model, options, reqs, nullptr).latency_us, 50.0);
  rep.Set("obs.metrics_cost_us.p50", socket_p50_us - off_p50, "us");
}

void ProbeRouting(const RunContext& ctx, const ModelUnderTest& model,
                  double rate, int64_t count) {
  if (rate <= 0) {
    rate = 100.0;
    count = 100;
  }
  RRRE_CHECK(!model.store_path.empty()) << "ProbeModelLayers builds the store";
  const int64_t users = model.trainer->train_data().num_users();
  const std::vector<ScheduledRequest> reqs =
      CatalogSchedule(count, rate, users, ctx.SubSeed(60), 0);
  const serve::ServerOptions options =
      ServedDefaults(model.config, model.prefix, model.store_path);
  auto warm = [&](uint16_t port) {
    RunOpenLoop(port, 4, CatalogSchedule(50, 2000.0, users, ctx.SubSeed(61), 0));
  };
  Report& rep = *ctx.report;
  auto fleet = StartFleet(options, 2);
  warm(fleet->router->port());
  const double routed_p50_us = Percentile(
      RunOpenLoop(fleet->router->port(), 4, reqs).latency_us, 50.0);
  const serve::RouterStats s = fleet->router->stats();
  fleet.reset();
  rep.Offer("serve.router.retries", static_cast<double>(s.retries), "count");
  rep.Offer("serve.router.failovers", static_cast<double>(s.failovers),
            "count");
  rep.Offer("serve.router.upstream_errors",
            static_cast<double>(s.upstream_errors), "count");
  rep.Offer("serve.router.fanouts", static_cast<double>(s.fanouts), "count");
  auto direct = serve::Server::Start(options);
  RRRE_CHECK_OK(direct.status());
  warm(direct.value()->port());
  const double direct_p50 = Percentile(
      RunOpenLoop(direct.value()->port(), 4, reqs).latency_us, 50.0);
  direct.value()->Shutdown();
  rep.Set("serve.router.hop_us.p50", routed_p50_us - direct_p50, "us");
}

uint64_t PublishGeneration(const RunContext& ctx, core::RrreTrainer& trainer,
                           const std::string& root, int64_t generation,
                           int tier) {
  Tracer* tr = ctx.tracer;
  const std::string dir = rrre::stream::GenerationDir(root, generation);
  const std::string prefix = dir + "/ckpt";
  RRRE_CHECK_OK(rrre::common::EnsureDir(dir));
  Timed(tr, "core.trainer.save", [&] { RRRE_CHECK_OK(trainer.Save(prefix)); });
  rrre::stream::Manifest m;
  m.generation = generation;
  m.partition = generation;
  m.tier = tier;
  m.epochs_completed = trainer.epochs_completed();
  for (const std::string& suffix :
       core::RrreTrainer::CheckpointSuffixes(/*with_optimizer=*/true)) {
    m.files.push_back("ckpt" + suffix);
  }
  Timed(tr, "core.tower_store.build", [&] {
    RRRE_CHECK_OK(
        core::BuildTowerStore(trainer, prefix, prefix + ".tower_store")
            .status());
  });
  m.store = "ckpt.tower_store";
  m.files.push_back(m.store);
  auto fp = core::CheckpointParamsFingerprint(prefix);
  RRRE_CHECK_OK(fp.status());
  m.params_fingerprint = fp.value();
  RRRE_CHECK_OK(rrre::stream::WriteManifest(dir, m));
  RRRE_CHECK_OK(rrre::stream::UpdateCurrentLink(root, generation));
  return m.params_fingerprint;
}

void ProbeBatcherReload(const RunContext& ctx, const core::RrreConfig& config,
                        const std::string& root, int64_t from_generation) {
  if (ctx.report->Has("serve.batcher.reload_s")) return;
  const std::string from =
      rrre::stream::GenerationDir(root, from_generation) + "/ckpt";
  auto trainer = std::make_unique<core::RrreTrainer>(config);
  RRRE_CHECK_OK(trainer->Load(from));
  auto store = core::MapTowerStoreForCheckpoint(from + ".tower_store", from,
                                                *trainer);
  RRRE_CHECK_OK(store.status());
  serve::MicroBatcher::Options opts = ServedDefaults(config, from, "").batcher;
  opts.model_prefix = from;
  // A reload re-maps this path, which `current` points at the new store.
  opts.store_path = rrre::stream::CurrentPath(root, "ckpt.tower_store");
  serve::MicroBatcher batcher(std::move(trainer), opts, store.value());
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  rrre::common::Status outcome = rrre::common::Status::Ok();
  const double s = Timed(ctx.tracer, "serve.batcher.reload", [&] {
    batcher.RequestReload(rrre::stream::CurrentPath(root, "ckpt"),
                          [&](const rrre::common::Status& st, int64_t) {
                            std::lock_guard<std::mutex> lock(mu);
                            outcome = st;
                            done = true;
                            cv.notify_all();
                          });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  });
  batcher.Stop();
  if (!outcome.ok()) {
    ctx.report->GateMiss("in-process batcher reload failed: " +
                         outcome.ToString());
  }
  ctx.report->Set("serve.batcher.reload_s", s, "s");
}

void ProbeReload(const RunContext& ctx, ModelUnderTest& model,
                 const rrre::data::ReviewDataset& train) {
  Tracer* tr = ctx.tracer;
  const std::string root = ctx.work_dir + "/probe_stream";
  PublishGeneration(ctx, *model.trainer, root, 0, 0);
  auto fleet = StartFleet(
      ServedDefaults(model.config, rrre::stream::CurrentPath(root, "ckpt"),
                     rrre::stream::CurrentPath(root, "ckpt.tower_store")),
      2);
  const int64_t gen_start = NowNs();
  const double retrain_s = Timed(tr, "stream.retrain", [&] {
    RRRE_CHECK_OK(model.trainer->ResumeWith(
        train, 1, [&](const core::RrreTrainer::EpochStats&) {
          Timed(tr, "core.trainer.evaluate",
                [&] { model.trainer->Evaluate(*model.test); });
        }));
  });
  uint64_t fingerprint = 0;
  const double publish_s = Timed(tr, "stream.publish", [&] {
    fingerprint = PublishGeneration(ctx, *model.trainer, root, 1, 0);
  });
  const int64_t reload_start = NowNs();
  double barrier = 0.0;
  double converge = 0.0;
  ctx.report->Attempt();
  if (!RollFleet(ctx, fleet->router->port(), fingerprint, &barrier,
                 &converge)) {
    ctx.report->GateMiss("probe fleet did not converge after RELOAD");
  }
  const double reload_s = SecondsSince(reload_start);
  Report& rep = *ctx.report;
  rep.Offer("stream.retrain_s", retrain_s, "s");
  rep.Offer("stream.publish_s", publish_s, "s");
  rep.Offer("stream.converge_s", converge, "s");
  rep.Offer("stream.reload_s", reload_s, "s");
  rep.Offer("stream.generation_s", SecondsSince(gen_start), "s");
  rep.Offer("serve.router.reload_barrier_s", barrier, "s");
  fleet.reset();
  ProbeBatcherReload(ctx, model.config, root, 0);
}

}  // namespace perfbench
