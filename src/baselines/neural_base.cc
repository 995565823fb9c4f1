#include "baselines/neural_base.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "common/threadpool.h"
#include "nn/loss.h"
#include "tensor/ops.h"
#include "text/tokenizer.h"
#include "text/word2vec.h"

namespace rrre::baselines {

using common::Rng;
using tensor::Tensor;

NeuralRatingBaseline::NeuralRatingBaseline(CommonConfig config)
    : config_(config), rng_(config.seed) {
  RRRE_CHECK_GT(config_.epochs, 0);
  RRRE_CHECK_GT(config_.batch_size, 0);
  RRRE_CHECK_GE(config_.shard_size, 1);
}

void NeuralRatingBaseline::Fit(const data::ReviewDataset& train) {
  RRRE_CHECK(train.indexed());
  RRRE_CHECK_GT(train.size(), 0);
  train_ = std::make_unique<data::ReviewDataset>(train);

  std::vector<std::vector<std::string>> docs;
  docs.reserve(static_cast<size_t>(train_->size()));
  for (const data::Review& r : train_->reviews()) {
    docs.push_back(text::Tokenize(r.text));
  }
  vocab_ = std::make_unique<text::Vocabulary>(
      text::Vocabulary::Build(docs, config_.vocab_min_count));

  Rng init_rng = rng_.Fork();
  BuildModel(train_->num_users(), train_->num_items(), vocab_->size(),
             init_rng);

  if (config_.pretrain_word_vectors) {
    std::vector<std::vector<int64_t>> id_docs;
    id_docs.reserve(docs.size());
    for (const auto& doc : docs) id_docs.push_back(vocab_->Encode(doc));
    text::SkipGramConfig sg;
    sg.dim = config_.word_dim;
    sg.epochs = config_.pretrain_epochs;
    text::SkipGramTrainer pretrainer(sg, vocab_->size());
    Rng sg_rng = rng_.Fork();
    word_embedding()->SetWeights(pretrainer.Train(id_docs, sg_rng));
  }

  // The Table III setup: the pretrained word table stays frozen.
  std::vector<Tensor> params;
  const Tensor& table = word_embedding()->table();
  for (const Tensor& p : module()->Parameters()) {
    if (p.impl() != table.impl()) params.push_back(p);
  }
  optimizer_ = std::make_unique<nn::Adam>(params, config_.lr);

  step_ = std::make_unique<nn::ShardedStep>(config_.shard_size);

  const int64_t n = train_->size();
  std::vector<int64_t> order(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  for (int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng_.Shuffle(order);
    for (int64_t start = 0; start < n; start += config_.batch_size) {
      const int64_t bsz = std::min(n, start + config_.batch_size) - start;
      // Mean MSE over the batch splits exactly into sum_s frac_s * MSE_s.
      auto shard_loss = [&](const nn::ShardedStep::Shard& shard, Rng& rng) {
        std::vector<std::pair<int64_t, int64_t>> pairs;
        std::vector<int64_t> exclude;
        std::vector<float> targets;
        for (int64_t p = start + shard.begin; p < start + shard.end; ++p) {
          const int64_t idx = order[static_cast<size_t>(p)];
          const data::Review& r = train_->review(idx);
          pairs.emplace_back(r.user, r.item);
          // The Table III setup: the target review is dropped from its own
          // input during training.
          exclude.push_back(idx);
          targets.push_back(r.rating);
        }
        Tensor pred = ForwardRating(pairs, exclude, /*training=*/true, rng);
        return tensor::MulScalar(nn::MseLoss(pred, targets), shard.frac);
      };
      step_->Run(bsz, module()->Parameters(), rng_, shard_loss);
      if (config_.grad_clip > 0.0) {
        auto params_ref = optimizer_->params();
        nn::ClipGradNorm(params_ref, config_.grad_clip);
      }
      optimizer_->Step();
    }
  }
  fitted_ = true;
}

std::vector<double> NeuralRatingBaseline::PredictRatings(
    const std::vector<std::pair<int64_t, int64_t>>& pairs) {
  RRRE_CHECK(fitted_) << "call Fit() first";
  const int64_t n = static_cast<int64_t>(pairs.size());
  std::vector<double> out(static_cast<size_t>(n));
  const int64_t bs = config_.batch_size;
  const int64_t num_chunks = (n + bs - 1) / bs;
  // Forward-only chunks with disjoint output ranges; rngs forked serially so
  // results do not depend on chunk scheduling.
  std::vector<Rng> chunk_rngs;
  chunk_rngs.reserve(static_cast<size_t>(num_chunks));
  for (int64_t c = 0; c < num_chunks; ++c) chunk_rngs.push_back(rng_.Fork());
  common::ParallelFor(0, num_chunks, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t c = lo; c < hi; ++c) {
      const int64_t start = c * bs;
      const int64_t end = std::min(n, start + bs);
      std::vector<std::pair<int64_t, int64_t>> chunk(pairs.begin() + start,
                                                     pairs.begin() + end);
      std::vector<int64_t> exclude(chunk.size(), -1);
      Tensor pred = ForwardRating(chunk, exclude, /*training=*/false,
                                  chunk_rngs[static_cast<size_t>(c)]);
      for (int64_t i = 0; i < static_cast<int64_t>(chunk.size()); ++i) {
        out[static_cast<size_t>(start + i)] = pred.at(i, 0);
      }
    }
  });
  return out;
}

}  // namespace rrre::baselines
