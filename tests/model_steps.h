#ifndef RRRE_TESTS_MODEL_STEPS_H_
#define RRRE_TESTS_MODEL_STEPS_H_

// Eq. 15's training step over a small RrreModel, run with and without batch
// tapes so tests can hold the taped step to the tape-less one bit for bit.
// Shared by test_kernels (TapeTrainingTest) and test_parallel_determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/threadpool.h"
#include "core/config.h"
#include "core/features.h"
#include "core/model.h"
#include "data/dataset.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/sharded_step.h"
#include "tensor/grad_sink.h"
#include "tensor/ops.h"
#include "tensor/tape.h"
#include "tensor/tensor.h"
#include "text/tokenizer.h"
#include "text/vocab.h"

namespace rrre::test {

/// Losses (as bits, one per slice of each batch) and every parameter grad of
/// the steps RunModelSteps ran.
struct ModelSteps {
  std::vector<uint32_t> losses;
  std::vector<std::vector<float>> grads;
};

/// Builds the loss of examples [begin, end) of the current batch, weighted
/// by `frac`, drawing any randomness from `rng`. Safe to call concurrently
/// on disjoint slices.
using SliceLoss = std::function<tensor::Tensor(int64_t begin, int64_t end,
                                               float frac, common::Rng& rng)>;

/// One gradient pass over a batch of `n` examples: leaves the gradient of
/// the slice losses plus `param_loss` on `params`.
using GradPass = std::function<void(
    int64_t n, const std::vector<tensor::Tensor>& params, common::Rng& rng,
    const SliceLoss& loss, const nn::ShardedStep::ParamLoss& param_loss)>;

/// The whole batch as one slice, its graph built node by node.
inline GradPass EagerPass() {
  return [](int64_t n, const std::vector<tensor::Tensor>&, common::Rng& rng,
            const SliceLoss& loss,
            const nn::ShardedStep::ParamLoss& param_loss) {
    common::Rng step_rng = rng.Fork();
    tensor::Add(loss(0, n, 1.0f, step_rng), param_loss()).Backward();
  };
}

/// The whole batch as one slice on `tape`, keyed by its batch size: a step
/// records the first time it sees a size, and replays after that.
inline GradPass TapePass(tensor::BatchTape* tape) {
  return [tape](int64_t n, const std::vector<tensor::Tensor>&,
                common::Rng& rng, const SliceLoss& loss,
                const nn::ShardedStep::ParamLoss& param_loss) {
    common::Rng step_rng = rng.Fork();
    tape->BeginStep(static_cast<uint64_t>(n));
    tensor::BatchTape::Scope scope(tape);
    tensor::Add(loss(0, n, 1.0f, step_rng), param_loss()).Backward();
  };
}

/// Shards of the batch through `step`, as the trainers run them: each on its
/// own replayed tape, concurrently on the global pool.
inline GradPass ShardedPass(nn::ShardedStep* step) {
  return [step](int64_t n, const std::vector<tensor::Tensor>& params,
                common::Rng& rng, const SliceLoss& loss,
                const nn::ShardedStep::ParamLoss& param_loss) {
    step->Run(
        n, params, rng,
        [&](const nn::ShardedStep::Shard& shard, common::Rng& shard_rng) {
          return loss(shard.begin, shard.end, shard.frac, shard_rng);
        },
        param_loss);
  };
}

/// ShardedPass's oracle: ShardedStep::Run's shards, random streams, sinks
/// and merge, with every graph built node by node.
inline GradPass EagerShardedPass(int64_t shard_size) {
  return [shard_size](int64_t n, const std::vector<tensor::Tensor>& params,
                      common::Rng& rng, const SliceLoss& loss,
                      const nn::ShardedStep::ParamLoss& param_loss) {
    const int64_t num_shards = (n + shard_size - 1) / shard_size;
    const common::Rng batch_rng = rng.Fork();
    std::vector<tensor::GradSink> sinks;
    for (int64_t s = 0; s < num_shards; ++s) sinks.emplace_back(params);
    auto run_shard = [&](int64_t s) {
      const int64_t begin = s * shard_size;
      const int64_t end = std::min(n, begin + shard_size);
      common::Rng shard_rng = batch_rng.Fork(static_cast<uint64_t>(s));
      tensor::Tensor shard_loss =
          loss(begin, end,
               static_cast<float>(end - begin) / static_cast<float>(n),
               shard_rng);
      tensor::GradSink::Scope sink_scope(&sinks[static_cast<size_t>(s)]);
      shard_loss.Backward();
    };
    if (num_shards == 1) {
      run_shard(0);
    } else {
      common::ParallelFor(0, num_shards, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t s = lo; s < hi; ++s) run_shard(s);
      });
    }
    // RunModelSteps zeroed every grad; the parameter loss lands first and
    // the shard sums follow in shard order.
    param_loss().Backward();
    std::vector<tensor::GradSink*> merge;
    for (tensor::GradSink& sink : sinks) merge.push_back(&sink);
    tensor::GradSink::AccumulateInto(merge);
  };
}

/// Runs Eq. 15's objective, its L2 term included, forward and backward
/// through a fresh RrreModel over three shuffled passes of `corpus` in
/// batches of config.batch_size (so a full batch and a shorter tail batch),
/// each through `pass` on `threads` threads, with an Adam step after each.
inline ModelSteps RunModelSteps(const core::RrreConfig& config,
                                const data::ReviewDataset& corpus,
                                int threads, const GradPass& pass) {
  common::ThreadPool::SetGlobalSize(threads);
  std::vector<std::vector<std::string>> docs;
  for (const data::Review& r : corpus.reviews()) {
    docs.push_back(text::Tokenize(r.text));
  }
  const text::Vocabulary vocab =
      text::Vocabulary::Build(docs, config.vocab_min_count);
  common::Rng init(7);
  core::RrreModel model(config, corpus.num_users(), corpus.num_items(),
                        vocab.size(), init);
  core::FeatureBuilder features(config, &corpus, &vocab);
  nn::Adam adam(model.Parameters(), config.lr);
  const float lam = static_cast<float>(config.lambda);
  auto param_loss = [&] {
    return tensor::MulScalar(nn::L2Penalty(model.Parameters()),
                             (1.0f - lam) * static_cast<float>(config.gamma));
  };
  const int64_t n = corpus.size();
  std::vector<int64_t> order(static_cast<size_t>(n));
  common::Rng rng(11);
  ModelSteps out;
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (int64_t i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
    rng.Shuffle(order);
    for (int64_t start = 0; start < n; start += config.batch_size) {
      const int64_t bsz = std::min(n, start + config.batch_size) - start;
      // Slice losses by their first example, written from concurrent slices.
      std::vector<uint32_t> loss_bits(static_cast<size_t>(bsz));
      std::vector<char> sliced(static_cast<size_t>(bsz), 0);
      auto slice_loss = [&](int64_t begin, int64_t end, float frac,
                            common::Rng& slice_rng) {
        std::vector<std::pair<int64_t, int64_t>> pairs;
        std::vector<float> targets, weights;
        std::vector<int64_t> labels;
        for (int64_t p = start + begin; p < start + end; ++p) {
          const data::Review& r = corpus.review(order[static_cast<size_t>(p)]);
          pairs.emplace_back(r.user, r.item);
          targets.push_back(r.rating - 3.0f);
          labels.push_back(r.is_benign() ? 1 : 0);
          weights.push_back(r.is_benign() ? 1.0f : 0.0f);
        }
        const core::RrreModel::Batch batch = features.Build(pairs, slice_rng);
        const core::RrreModel::Output o =
            model.Forward(batch, /*training=*/true, &slice_rng);
        tensor::Tensor loss = tensor::Add(
            tensor::MulScalar(
                tensor::CrossEntropyWithLogits(o.reliability_logits, labels),
                lam * frac),
            tensor::MulScalar(
                nn::WeightedMseLoss(o.rating, targets, weights,
                                    nn::WeightedMseNorm::kBatchSize),
                (1.0f - lam) * frac));
        loss_bits[static_cast<size_t>(begin)] =
            std::bit_cast<uint32_t>(loss.item());
        sliced[static_cast<size_t>(begin)] = 1;
        return loss;
      };
      model.ZeroGrad();
      pass(bsz, model.Parameters(), rng, slice_loss, param_loss);
      for (int64_t b = 0; b < bsz; ++b) {
        if (sliced[static_cast<size_t>(b)]) {
          out.losses.push_back(loss_bits[static_cast<size_t>(b)]);
        }
      }
      for (const tensor::Tensor& p : model.Parameters()) {
        out.grads.push_back(p.grad());
      }
      adam.Step();
    }
  }
  return out;
}

/// Expects `got` to hold `want`'s loss and grad bits; `at` names the run.
inline void ExpectSameSteps(const ModelSteps& got, const ModelSteps& want,
                            const std::string& at) {
  EXPECT_EQ(got.losses, want.losses) << at;
  ASSERT_EQ(got.grads.size(), want.grads.size()) << at;
  for (size_t i = 0; i < want.grads.size(); ++i) {
    EXPECT_EQ(got.grads[i], want.grads[i]) << at << " grad " << i;
  }
}

}  // namespace rrre::test

#endif  // RRRE_TESTS_MODEL_STEPS_H_
