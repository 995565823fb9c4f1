#include "core/trainer.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <tuple>

#include "common/io.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "eval/metrics.h"
#include "nn/loss.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "text/tokenizer.h"
#include "text/word2vec.h"

namespace rrre::core {

using common::Rng;
using tensor::Tensor;

RrreTrainer::RrreTrainer(RrreConfig config)
    : config_(config), rng_(config.seed) {
  RRRE_CHECK_GT(config_.batch_size, 0);
  RRRE_CHECK_GT(config_.epochs, 0);
  RRRE_CHECK_GE(config_.shard_size, 1);
  RRRE_CHECK(config_.use_tape);  // Both accept only true: see RrreConfig.
  RRRE_CHECK(config_.tape_replay);
  RRRE_CHECK_GE(config_.lambda, 0.0);
  RRRE_CHECK_LE(config_.lambda, 1.0);
}

void RrreTrainer::Fit(const data::ReviewDataset& train,
                      EpochCallback callback) {
  RRRE_CHECK(train.indexed());
  RRRE_CHECK_GT(train.size(), 0);
  train_ = std::make_unique<data::ReviewDataset>(train);

  double rating_sum = 0.0;
  for (const data::Review& r : train_->reviews()) rating_sum += r.rating;
  rating_offset_ = rating_sum / static_cast<double>(train_->size());

  // 1. Vocabulary over the training texts.
  std::vector<std::vector<std::string>> docs;
  docs.reserve(static_cast<size_t>(train_->size()));
  for (const data::Review& r : train_->reviews()) {
    docs.push_back(text::Tokenize(r.text));
  }
  vocab_ = std::make_unique<text::Vocabulary>(
      text::Vocabulary::Build(docs, config_.vocab_min_count));

  // 2. Model; word vectors pretrained with skip-gram when configured.
  Rng init_rng = rng_.Fork();
  model_ = std::make_unique<RrreModel>(config_, train_->num_users(),
                                       train_->num_items(), vocab_->size(),
                                       init_rng);
  step_ = std::make_unique<nn::ShardedStep>(config_.shard_size);
  if (config_.pretrain_word_vectors) {
    std::vector<std::vector<int64_t>> id_docs;
    id_docs.reserve(docs.size());
    for (const auto& doc : docs) id_docs.push_back(vocab_->Encode(doc));
    text::SkipGramConfig sg;
    sg.dim = config_.word_dim;
    sg.epochs = config_.pretrain_epochs;
    text::SkipGramTrainer pretrainer(sg, vocab_->size());
    Rng sg_rng = rng_.Fork();
    model_->word_embedding().SetWeights(pretrainer.Train(id_docs, sg_rng));
  }

  features_ = std::make_unique<FeatureBuilder>(config_, train_.get(),
                                               vocab_.get());

  // RRRE fine-tunes the pretrained word table with every other parameter.
  optimizer_ = std::make_unique<nn::Adam>(model_->Parameters(), config_.lr);

  // 3. Training loop.
  epochs_completed_ = 0;
  ++params_version_;
  TrainEpochs(0, callback);
}

tensor::BatchTape::Stats RrreTrainer::TapeStats() const {
  return step_ != nullptr ? step_->TapeStats() : tensor::BatchTape::Stats{};
}

void RrreTrainer::TrainEpochs(int64_t first_epoch,
                              const EpochCallback& callback) {
  const int64_t n = train_->size();
  std::vector<int64_t> order(static_cast<size_t>(n));
  const float lam = static_cast<float>(config_.lambda);

  for (int64_t epoch = first_epoch; epoch < config_.epochs; ++epoch) {
    common::Timer timer;
    // The permutation is re-derived from identity every epoch so it is a
    // pure function of the RNG state at the epoch boundary — the property
    // that lets a Load + Resume replay the exact shuffle an uninterrupted
    // run would have drawn.
    for (int64_t i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
    rng_.Shuffle(order);
    double sum_loss = 0.0;
    double sum_loss1 = 0.0;
    double sum_loss2 = 0.0;
    double sum_grad_norm = 0.0;
    int64_t batches = 0;
    // Per-shard wall-times and the summed tail (shard join through the
    // optimizer step) for this epoch; only wall-clock-including telemetry
    // reports them.
    common::Histogram shard_seconds_us;
    double tail_seconds = 0.0;
    for (int64_t start = 0; start < n; start += config_.batch_size) {
      const int64_t bsz = std::min(n, start + config_.batch_size) - start;
      std::vector<double> ce_vals(static_cast<size_t>(step_->NumShards(bsz)));
      std::vector<double> mse_vals(ce_vals.size());
      double l2_val = 0.0;
      auto shard_loss = [&](const nn::ShardedStep::Shard& shard, Rng& rng) {
        std::vector<std::pair<int64_t, int64_t>> pairs;
        std::vector<int64_t> exclude;
        std::vector<float> targets;
        std::vector<int64_t> labels;
        std::vector<float> weights;
        for (int64_t p = start + shard.begin; p < start + shard.end; ++p) {
          const int64_t idx = order[static_cast<size_t>(p)];
          const data::Review& r = train_->review(idx);
          pairs.emplace_back(r.user, r.item);
          // Eq. (1) builds W^u/W^i from all reviews of u and i, w_ui
          // included: the model learns to read the scored review's own
          // content out of the history, which transductive reliability
          // scoring exploits.
          exclude.push_back(-1);
          targets.push_back(static_cast<float>(r.rating - rating_offset_));
          labels.push_back(r.is_benign() ? 1 : 0);
          weights.push_back(
              config_.biased_loss ? (r.is_benign() ? 1.0f : 0.0f) : 1.0f);
        }
        RrreModel::Batch batch = features_->Build(pairs, exclude, rng);
        RrreModel::Output out = model_->Forward(batch, /*training=*/true, &rng);
        // loss1 (Eq. 11): reliability cross-entropy; label 1 = benign.
        Tensor ce = tensor::CrossEntropyWithLogits(out.reliability_logits,
                                                   labels);
        // loss2 (Eq. 14 / Eq. 13 for RRRE^-): (weighted) MSE; its L2 term is
        // the step's parameter-only loss below.
        Tensor mse = nn::WeightedMseLoss(out.rating, targets, weights,
                                         nn::WeightedMseNorm::kBatchSize);
        ce_vals[static_cast<size_t>(shard.index)] = ce.item() * shard.frac;
        mse_vals[static_cast<size_t>(shard.index)] = mse.item() * shard.frac;
        // L = lambda*loss1 + (1-lambda)*loss2 (Eq. 15), this shard's share.
        return tensor::Add(tensor::MulScalar(ce, lam * shard.frac),
                           tensor::MulScalar(mse, (1.0f - lam) * shard.frac));
      };
      nn::ShardedStep::ParamLoss l2_loss;
      if (config_.gamma > 0.0) {
        l2_loss = [&] {
          Tensor l2_pen = nn::L2Penalty(optimizer_->params());
          l2_val = l2_pen.item();
          return tensor::MulScalar(
              l2_pen, (1.0f - lam) * static_cast<float>(config_.gamma));
        };
      }
      const std::vector<double> shard_secs = step_->Run(
          bsz, model_->Parameters(), rng_, shard_loss, l2_loss);
      if (telemetry_.writer != nullptr) {
        for (double secs : shard_secs) shard_seconds_us.Record(secs * 1e6);
      }
      if (config_.grad_clip > 0.0) {
        auto params_ref = optimizer_->params();
        sum_grad_norm += nn::ClipGradNorm(params_ref, config_.grad_clip);
      } else if (telemetry_.writer != nullptr) {
        sum_grad_norm += nn::GlobalGradNorm(optimizer_->params());
      }
      optimizer_->Step();
      if (telemetry_.writer != nullptr) {
        tail_seconds += step_->SecondsSinceJoin();
      }
      ++params_version_;

      double ce_full = 0.0;
      double mse_full = 0.0;
      for (size_t s = 0; s < ce_vals.size(); ++s) {
        ce_full += ce_vals[s];
        mse_full += mse_vals[s];
      }
      const double loss2_val = mse_full + config_.gamma * l2_val;
      sum_loss += config_.lambda * ce_full + (1.0 - config_.lambda) * loss2_val;
      sum_loss1 += ce_full;
      sum_loss2 += loss2_val;
      ++batches;
    }
    epochs_completed_ = epoch + 1;
    EpochStats stats;
    stats.epoch = epoch;
    stats.loss = sum_loss / batches;
    stats.loss1 = sum_loss1 / batches;
    stats.loss2 = sum_loss2 / batches;
    stats.seconds = timer.ElapsedSeconds();
    stats.grad_norm = sum_grad_norm / static_cast<double>(batches);
    if (telemetry_.writer != nullptr) {
      EmitEpochTelemetry(stats, n, batches, shard_seconds_us,
                         tail_seconds / static_cast<double>(batches));
    }
    if (callback) callback(stats);
  }
}

void RrreTrainer::EmitEpochTelemetry(const EpochStats& stats,
                                     int64_t examples, int64_t batches,
                                     const common::Histogram& shard_seconds,
                                     double tail_seconds_mean) {
  obs::JsonRecord record;
  record.AddInt("epoch", stats.epoch);
  record.AddDouble("loss", stats.loss);
  record.AddDouble("loss1", stats.loss1);
  record.AddDouble("loss2", stats.loss2);
  record.AddDouble("grad_norm", stats.grad_norm);
  record.AddInt("examples", examples);
  record.AddInt("batches", batches);
  if (telemetry_.eval != nullptr && telemetry_.eval->size() > 0) {
    const EvalResult ev = Evaluate(*telemetry_.eval);
    record.AddDouble("eval_brmse", ev.brmse);
    record.AddDouble("eval_auc", ev.auc);
  }
  if (telemetry_.writer->include_timings()) {
    record.AddDouble("seconds", stats.seconds);
    record.AddInt("shards", shard_seconds.count());
    record.AddDouble("shard_us_mean", shard_seconds.Mean());
    record.AddDouble("shard_us_p95", shard_seconds.Percentile(95.0));
    record.AddDouble("shard_us_max", shard_seconds.Max());
    record.AddDouble("tail_us_mean", tail_seconds_mean * 1e6);
  }
  const common::Status status = telemetry_.writer->Write(record);
  if (!status.ok()) {
    RRRE_LOG_WARNING << "epoch telemetry dropped: " << status.ToString();
  }
}

RrreTrainer::EvalResult RrreTrainer::Evaluate(const data::ReviewDataset& eval) {
  RRRE_CHECK(fitted()) << "call Fit() first";
  RRRE_CHECK_GT(eval.size(), 0);
  // Scoring draws histories through the trainer RNG; snapshot and restore it
  // so instrumented and uninstrumented runs train bitwise identically.
  const auto rng_state = rng_.SerializeState();
  const Predictions preds = PredictDataset(eval);
  rng_.RestoreState(rng_state);
  std::vector<double> targets;
  std::vector<int> labels;
  targets.reserve(static_cast<size_t>(eval.size()));
  labels.reserve(static_cast<size_t>(eval.size()));
  for (const data::Review& r : eval.reviews()) {
    targets.push_back(r.rating);
    labels.push_back(r.is_benign() ? 1 : 0);
  }
  EvalResult out;
  out.brmse = eval::BiasedRmse(preds.ratings, targets, labels);
  out.auc = eval::Auc(preds.reliabilities, labels);
  return out;
}

RrreTrainer::Predictions RrreTrainer::PredictPairs(
    const std::vector<std::pair<int64_t, int64_t>>& pairs) {
  RRRE_CHECK(fitted()) << "call Fit() first";
  return PredictWith(*features_, pairs);
}

RrreTrainer::Predictions RrreTrainer::PredictWith(
    const FeatureBuilder& features,
    const std::vector<std::pair<int64_t, int64_t>>& pairs) {
  Predictions out;
  const int64_t n = static_cast<int64_t>(pairs.size());
  out.ratings.resize(static_cast<size_t>(n));
  out.reliabilities.resize(static_cast<size_t>(n));
  const int64_t bs = config_.batch_size;
  const int64_t num_chunks = (n + bs - 1) / bs;
  // Chunks are forward-only and write disjoint output ranges, so they run
  // concurrently; each gets its rng forked serially up front so history
  // sampling does not depend on chunk scheduling.
  std::vector<Rng> chunk_rngs;
  chunk_rngs.reserve(static_cast<size_t>(num_chunks));
  for (int64_t c = 0; c < num_chunks; ++c) chunk_rngs.push_back(rng_.Fork());
  common::ParallelFor(0, num_chunks, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t c = lo; c < hi; ++c) {
      const int64_t start = c * bs;
      const int64_t end = std::min(n, start + bs);
      std::vector<std::pair<int64_t, int64_t>> chunk(pairs.begin() + start,
                                                     pairs.begin() + end);
      RrreModel::Batch batch =
          features.Build(chunk, chunk_rngs[static_cast<size_t>(c)]);
      RrreModel::Output fwd =
          model_->Forward(batch, /*training=*/false, nullptr);
      for (int64_t i = 0; i < batch.batch_size; ++i) {
        out.ratings[static_cast<size_t>(start + i)] =
            fwd.rating.at(i, 0) + rating_offset_;
        out.reliabilities[static_cast<size_t>(start + i)] =
            fwd.reliability.at(i, 1);
      }
    }
  });
  return out;
}

namespace {

std::vector<std::pair<int64_t, int64_t>> ReviewPairs(
    const data::ReviewDataset& reviews) {
  std::vector<std::pair<int64_t, int64_t>> pairs;
  pairs.reserve(static_cast<size_t>(reviews.size()));
  for (const data::Review& r : reviews.reviews()) {
    pairs.emplace_back(r.user, r.item);
  }
  return pairs;
}

}  // namespace

RrreTrainer::Predictions RrreTrainer::PredictDataset(
    const data::ReviewDataset& reviews) {
  return PredictPairs(ReviewPairs(reviews));
}

RrreTrainer::Predictions RrreTrainer::PredictDatasetTransductive(
    const data::ReviewDataset& reviews) {
  RRRE_CHECK(fitted()) << "call Fit() first";
  const data::ReviewDataset merged =
      data::ReviewDataset::Merge(*train_, reviews);
  const FeatureBuilder merged_features(config_, &merged, vocab_.get());
  return PredictWith(merged_features, ReviewPairs(reviews));
}

common::Status RrreTrainer::Save(const std::string& prefix) const {
  if (!fitted()) {
    return common::Status::FailedPrecondition("trainer is not fitted");
  }
  RRRE_RETURN_IF_ERROR(model_->Save(prefix + ".model"));
  RRRE_RETURN_IF_ERROR(vocab_->Save(prefix + ".vocab"));
  RRRE_RETURN_IF_ERROR(train_->SaveTsv(prefix + ".train.tsv"));
  if (optimizer_ != nullptr) {
    RRRE_RETURN_IF_ERROR(
        tensor::SaveTensors(prefix + ".optimizer", optimizer_->StateTensors()));
  }
  // Scalar state. The rating offset is stored as raw IEEE-754 bits (the
  // decimal form is informational only) and the RNG as its full word state,
  // so a Load + Resume replays training bitwise identically.
  std::string meta;
  meta += "format=2\n";
  meta += common::StrFormat("rating_offset_bits=%016llx\n",
                            static_cast<unsigned long long>(
                                std::bit_cast<uint64_t>(rating_offset_)));
  meta += common::StrFormat("rating_offset=%.17g\n", rating_offset_);
  meta += common::StrFormat("epochs_completed=%lld\n",
                            static_cast<long long>(epochs_completed_));
  meta += common::StrFormat("has_optimizer=%d\n", optimizer_ != nullptr);
  // The history shape the towers were trained on; Load refuses another.
  meta += common::StrFormat("s_u=%lld\ns_i=%lld\nmax_tokens=%lld\n",
                            static_cast<long long>(config_.s_u),
                            static_cast<long long>(config_.s_i),
                            static_cast<long long>(config_.max_tokens));
  meta += "rng=";
  const auto rng_state = rng_.SerializeState();
  for (size_t i = 0; i < rng_state.size(); ++i) {
    meta += common::StrFormat(
        "%s%016llx", i == 0 ? "" : ",",
        static_cast<unsigned long long>(rng_state[i]));
  }
  meta += "\n";
  return common::WriteFile(prefix + ".meta", meta);
}

namespace {

/// Parses the key=value .meta file written by Save (format 2), or the legacy
/// single-number form that held only the rating offset.
struct TrainerMeta {
  double rating_offset = 0.0;
  int64_t epochs_completed = 0;
  bool has_optimizer = false;
  bool has_rng = false;
  std::array<uint64_t, common::Rng::kStateWords> rng_state{};
  /// History shape of the training run; absent in a .meta written before
  /// these keys existed.
  std::optional<int64_t> s_u;
  std::optional<int64_t> s_i;
  std::optional<int64_t> max_tokens;
};

common::Result<TrainerMeta> ParseTrainerMeta(const std::string& content,
                                             const std::string& path) {
  TrainerMeta meta;
  if (content.find('=') == std::string::npos) {  // Legacy scalar-only form.
    meta.rating_offset = std::atof(content.c_str());
    return meta;
  }
  bool have_offset = false;
  for (const std::string& raw : common::Split(content, '\n')) {
    const std::string line(common::Trim(raw));
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return common::Status::InvalidArgument("malformed meta line \"" + line +
                                             "\" in " + path);
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "format") {
      if (value != "2") {
        return common::Status::InvalidArgument(
            "unsupported trainer meta format " + value + " in " + path);
      }
    } else if (key == "rating_offset_bits") {
      uint64_t bits = 0;
      if (std::sscanf(value.c_str(), "%llx",
                      reinterpret_cast<unsigned long long*>(&bits)) != 1) {
        return common::Status::InvalidArgument("bad rating_offset_bits in " +
                                               path);
      }
      meta.rating_offset = std::bit_cast<double>(bits);
      have_offset = true;
    } else if (key == "rating_offset") {
      // Informational duplicate of rating_offset_bits; used only when the
      // exact form is absent.
      if (!have_offset) meta.rating_offset = std::atof(value.c_str());
    } else if (key == "epochs_completed") {
      meta.epochs_completed = std::atoll(value.c_str());
      if (meta.epochs_completed < 0) {
        return common::Status::InvalidArgument("bad epochs_completed in " +
                                               path);
      }
    } else if (key == "has_optimizer") {
      meta.has_optimizer = value == "1";
    } else if (key == "rng") {
      const auto words = common::Split(value, ',');
      if (words.size() != meta.rng_state.size()) {
        return common::Status::InvalidArgument("bad rng state in " + path);
      }
      for (size_t i = 0; i < words.size(); ++i) {
        unsigned long long w = 0;
        if (std::sscanf(words[i].c_str(), "%llx", &w) != 1) {
          return common::Status::InvalidArgument("bad rng state in " + path);
        }
        meta.rng_state[i] = w;
      }
      meta.has_rng = true;
    } else if (key == "s_u" || key == "s_i" || key == "max_tokens") {
      std::optional<int64_t>& field =
          key == "s_u" ? meta.s_u : key == "s_i" ? meta.s_i : meta.max_tokens;
      int64_t v = 0;
      if (!common::ParseWholeNumber(value, &v)) {
        return common::Status::InvalidArgument("bad " + key + " in " + path);
      }
      field = v;
    }
    // Unknown keys are skipped so future formats stay forward-readable.
  }
  return meta;
}

}  // namespace

common::Status RrreTrainer::Load(const std::string& prefix) {
  auto vocab = text::Vocabulary::Load(prefix + ".vocab");
  if (!vocab.ok()) return vocab.status();
  auto train = data::ReviewDataset::LoadTsv(prefix + ".train.tsv");
  if (!train.ok()) return train.status();
  auto meta_content = common::ReadFile(prefix + ".meta");
  if (!meta_content.ok()) return meta_content.status();
  auto meta = ParseTrainerMeta(meta_content.value(), prefix + ".meta");
  if (!meta.ok()) return meta.status();
  // Scores depend on the history shape, so a checkpoint serves only under
  // the one it was trained with.
  for (const auto& [name, trained, configured] :
       {std::tuple{"s_u", meta.value().s_u, config_.s_u},
        std::tuple{"s_i", meta.value().s_i, config_.s_i},
        std::tuple{"max_tokens", meta.value().max_tokens,
                   config_.max_tokens}}) {
    if (trained.has_value() && *trained != configured) {
      return common::Status::FailedPrecondition(common::StrFormat(
          "%s.meta was trained with %s=%lld but the loading config has "
          "%s=%lld",
          prefix.c_str(), name, static_cast<long long>(*trained), name,
          static_cast<long long>(configured)));
    }
  }

  vocab_ = std::make_unique<text::Vocabulary>(std::move(vocab).ValueOrDie());
  train_ =
      std::make_unique<data::ReviewDataset>(std::move(train).ValueOrDie());
  rating_offset_ = meta.value().rating_offset;
  epochs_completed_ = meta.value().epochs_completed;

  Rng init_rng = rng_.Fork();
  model_ = std::make_unique<RrreModel>(config_, train_->num_users(),
                                       train_->num_items(), vocab_->size(),
                                       init_rng);
  step_ = std::make_unique<nn::ShardedStep>(config_.shard_size);
  RRRE_RETURN_IF_ERROR(model_->Load(prefix + ".model"));
  features_ = std::make_unique<FeatureBuilder>(config_, train_.get(),
                                               vocab_.get());
  optimizer_.reset();
  if (meta.value().has_optimizer) {
    auto state = tensor::LoadTensors(prefix + ".optimizer");
    if (!state.ok()) return state.status();
    auto optimizer =
        std::make_unique<nn::Adam>(model_->Parameters(), config_.lr);
    RRRE_RETURN_IF_ERROR(optimizer->LoadStateTensors(state.value()));
    optimizer_ = std::move(optimizer);
  }
  // Restored last: the forks above must not perturb the checkpointed stream.
  if (meta.value().has_rng) rng_.RestoreState(meta.value().rng_state);
  ++params_version_;
  return common::Status::Ok();
}

common::Status RrreTrainer::Resume(EpochCallback callback) {
  if (!fitted()) {
    return common::Status::FailedPrecondition(
        "nothing to resume: trainer is not fitted");
  }
  if (optimizer_ == nullptr) {
    return common::Status::FailedPrecondition(
        "checkpoint carries no optimizer state; it was saved before training "
        "or by a pre-resume version — call Fit to retrain instead");
  }
  if (epochs_completed_ >= config_.epochs) return common::Status::Ok();
  TrainEpochs(epochs_completed_, callback);
  return common::Status::Ok();
}

common::Status RrreTrainer::ResumeWith(const data::ReviewDataset& train,
                                       int64_t extra_epochs,
                                       EpochCallback callback) {
  if (!fitted()) {
    return common::Status::FailedPrecondition(
        "nothing to warm-start from: trainer is not fitted");
  }
  if (optimizer_ == nullptr) {
    return common::Status::FailedPrecondition(
        "checkpoint carries no optimizer state; it was saved before training "
        "or by a pre-resume version — call Fit to retrain instead");
  }
  if (extra_epochs <= 0) {
    return common::Status::InvalidArgument("extra_epochs must be positive");
  }
  if (!train.indexed() || train.size() == 0) {
    return common::Status::InvalidArgument(
        "warm-start corpus must be indexed and non-empty");
  }
  if (train.num_users() != train_->num_users() ||
      train.num_items() != train_->num_items()) {
    return common::Status::FailedPrecondition(
        "warm-start corpus universe differs from the fitted one; the id "
        "embedding tables are sized to the original universe");
  }
  train_ = std::make_unique<data::ReviewDataset>(train);
  features_ = std::make_unique<FeatureBuilder>(config_, train_.get(),
                                               vocab_.get());
  // The vocabulary and rating offset stay pinned to the corpus that fitted
  // them: the FM head learned residuals around that offset, and both values
  // round-trip exactly through Save/Load, which keeps a reloaded warm start
  // bitwise identical to an in-process one.
  config_.epochs = epochs_completed_ + extra_epochs;
  TrainEpochs(epochs_completed_, callback);
  return common::Status::Ok();
}

std::vector<std::string> RrreTrainer::CheckpointSuffixes(bool with_optimizer) {
  std::vector<std::string> suffixes = {".model", ".vocab", ".train.tsv"};
  if (with_optimizer) suffixes.push_back(".optimizer");
  suffixes.push_back(".meta");
  return suffixes;
}

const RrreModel& RrreTrainer::model() const {
  RRRE_CHECK(fitted());
  return *model_;
}

const text::Vocabulary& RrreTrainer::vocab() const {
  RRRE_CHECK(fitted());
  return *vocab_;
}

const data::ReviewDataset& RrreTrainer::train_data() const {
  RRRE_CHECK(fitted());
  return *train_;
}

}  // namespace rrre::core
