#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/deepconn.h"
#include "baselines/der.h"
#include "baselines/narre.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "core/config.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace rrre {
namespace {

using common::Rng;
using common::ThreadPool;
using tensor::Tensor;

/// Restores the global pool size after each test so binaries sharing a ctest
/// invocation are unaffected.
class ParallelDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { original_size_ = ThreadPool::GlobalSize(); }
  void TearDown() override { ThreadPool::SetGlobalSize(original_size_); }

  int original_size_ = 0;
};

// ---------------------------------------------------------------------------
// Kernel-level: forward and backward of the parallelized ops are bitwise
// identical for any thread count.
// ---------------------------------------------------------------------------

struct KernelResult {
  std::vector<float> out;
  std::vector<float> ga;
  std::vector<float> gb;
  std::vector<float> gc;
};

KernelResult RunMatMul(int threads) {
  ThreadPool::SetGlobalSize(threads);
  Rng rng(123);
  Tensor a = Tensor::Randn({37, 23}, rng, 1.0f, /*requires_grad=*/true);
  Tensor b = Tensor::Randn({23, 29}, rng, 1.0f, /*requires_grad=*/true);
  Tensor scale = Tensor::Randn({37, 29}, rng, 1.0f, /*requires_grad=*/false);
  Tensor out = tensor::MatMul(a, b);
  // Non-uniform output grads so backward ordering bugs are visible.
  Tensor loss = tensor::Sum(tensor::Mul(out, scale));
  loss.Backward();
  return {out.ToVector(), a.grad(), b.grad(), {}};
}

TEST_F(ParallelDeterminismTest, MatMulBitwiseAcrossThreadCounts) {
  const KernelResult serial = RunMatMul(1);
  for (int threads : {2, 4}) {
    const KernelResult parallel = RunMatMul(threads);
    EXPECT_EQ(parallel.out, serial.out) << "threads=" << threads;
    EXPECT_EQ(parallel.ga, serial.ga) << "threads=" << threads;
    EXPECT_EQ(parallel.gb, serial.gb) << "threads=" << threads;
  }
}

KernelResult RunConv(int threads) {
  ThreadPool::SetGlobalSize(threads);
  Rng rng(321);
  constexpr int64_t kBatch = 50;  // several kConvChunk-sized chunks
  constexpr int64_t kSeq = 9;
  constexpr int64_t kDim = 7;
  constexpr int64_t kWindow = 3;
  constexpr int64_t kFilters = 11;
  Tensor values =
      Tensor::Randn({kBatch * kSeq, kDim}, rng, 1.0f, /*requires_grad=*/true);
  Tensor kernel = Tensor::Randn({kWindow * kDim, kFilters}, rng, 1.0f,
                                /*requires_grad=*/true);
  Tensor bias = Tensor::Randn({kFilters}, rng, 1.0f, /*requires_grad=*/true);
  Tensor scale =
      Tensor::Randn({kBatch, kFilters}, rng, 1.0f, /*requires_grad=*/false);
  Tensor out = tensor::Conv1dMaxPool(values, kSeq, kernel, bias);
  Tensor loss = tensor::Sum(tensor::Mul(out, scale));
  loss.Backward();
  return {out.ToVector(), values.grad(), kernel.grad(), bias.grad()};
}

TEST_F(ParallelDeterminismTest, Conv1dMaxPoolBitwiseAcrossThreadCounts) {
  const KernelResult serial = RunConv(1);
  for (int threads : {2, 4}) {
    const KernelResult parallel = RunConv(threads);
    EXPECT_EQ(parallel.out, serial.out) << "threads=" << threads;
    EXPECT_EQ(parallel.ga, serial.ga) << "threads=" << threads;
    EXPECT_EQ(parallel.gb, serial.gb) << "threads=" << threads;
    EXPECT_EQ(parallel.gc, serial.gc) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Trainer-level: the data-parallel sharded Fit reaches identical results for
// any thread count, and matches one shard of the whole batch within 1e-6.
// ---------------------------------------------------------------------------

data::ReviewDataset SmallCorpus() {
  data::ReviewDataset ds(6, 5);
  const char* texts[] = {
      "great pasta and friendly staff",   "terrible service avoid this",
      "amazing deal best place in town",  "okay food nothing special",
      "worst scam ever do not go",        "lovely ambiance great wine",
      "decent prices quick service",      "fantastic best pasta in town",
  };
  int64_t ts = 0;
  for (int64_t u = 0; u < 6; ++u) {
    for (int64_t i = 0; i < 5; ++i) {
      data::Review r;
      r.user = u;
      r.item = i;
      r.rating = static_cast<float>(1 + (u * 3 + i * 2) % 5);
      r.timestamp = ++ts;
      r.text = texts[(u * 5 + i) % 8];
      r.label = ((u + i) % 4 == 0) ? data::ReliabilityLabel::kFake
                                   : data::ReliabilityLabel::kBenign;
      ds.Add(r);
    }
  }
  ds.BuildIndex();
  return ds;
}

core::RrreConfig SmallConfig() {
  core::RrreConfig c;
  c.word_dim = 8;
  c.rev_dim = 8;
  c.id_dim = 4;
  c.attention_dim = 6;
  c.fm_factors = 4;
  c.max_tokens = 8;
  c.s_u = 3;
  c.s_i = 4;
  c.batch_size = 16;
  c.epochs = 1;
  c.pretrain_epochs = 1;
  c.lr = 5e-3;
  return c;
}

struct FitResult {
  std::vector<double> losses;
  std::vector<float> params;
  std::vector<double> ratings;
  std::vector<double> reliabilities;
  double brmse = 0.0;
  double auc = 0.0;
};

FitResult RunFit(const core::RrreConfig& config, int threads) {
  ThreadPool::SetGlobalSize(threads);
  data::ReviewDataset corpus = SmallCorpus();
  core::RrreTrainer trainer(config);
  FitResult res;
  trainer.Fit(corpus, [&](const core::RrreTrainer::EpochStats& s) {
    res.losses.push_back(s.loss);
  });
  for (const Tensor& p : trainer.model().Parameters()) {
    const std::vector<float> v = p.ToVector();
    res.params.insert(res.params.end(), v.begin(), v.end());
  }
  auto preds = trainer.PredictDataset(corpus);
  res.ratings = preds.ratings;
  res.reliabilities = preds.reliabilities;
  std::vector<int> labels;
  std::vector<double> targets;
  for (const auto& r : corpus.reviews()) {
    labels.push_back(r.is_benign());
    targets.push_back(r.rating);
  }
  res.brmse = eval::BiasedRmse(preds.ratings, targets, labels);
  res.auc = eval::Auc(preds.reliabilities, labels);
  return res;
}

TEST_F(ParallelDeterminismTest, ShardedFitBitwiseAcrossThreadCounts) {
  // shard_size 16 >= batch_size: one shard per batch, run as a lone shard.
  for (int64_t shard : {int64_t{4}, int64_t{16}}) {
    core::RrreConfig config = SmallConfig();
    config.epochs = 2;
    config.shard_size = shard;
    const FitResult serial = RunFit(config, 1);
    ASSERT_EQ(serial.losses.size(), 2u);
    for (int threads : {2, 4}) {
      const FitResult parallel = RunFit(config, threads);
      EXPECT_EQ(parallel.losses, serial.losses)
          << "shard=" << shard << " threads=" << threads;
      EXPECT_EQ(parallel.params, serial.params)
          << "shard=" << shard << " threads=" << threads;
      EXPECT_EQ(parallel.ratings, serial.ratings)
          << "shard=" << shard << " threads=" << threads;
      EXPECT_EQ(parallel.reliabilities, serial.reliabilities)
          << "shard=" << shard << " threads=" << threads;
      EXPECT_EQ(parallel.brmse, serial.brmse)
          << "shard=" << shard << " threads=" << threads;
      EXPECT_EQ(parallel.auc, serial.auc)
          << "shard=" << shard << " threads=" << threads;
    }
  }
}

TEST_F(ParallelDeterminismTest, ShardedFitBitwiseAcrossRepeatRuns) {
  core::RrreConfig config = SmallConfig();
  config.shard_size = 4;
  const FitResult first = RunFit(config, 4);
  const FitResult second = RunFit(config, 4);
  EXPECT_EQ(first.losses, second.losses);
  EXPECT_EQ(first.params, second.params);
  EXPECT_EQ(first.ratings, second.ratings);
  EXPECT_EQ(first.reliabilities, second.reliabilities);
}

TEST_F(ParallelDeterminismTest, ShardedFitMatchesWholeBatchPath) {
  // One shard of the whole batch against shards of 4: the objective
  // decomposition is exact and only float summation order differs (and the
  // Fork(s) stream each shard draws from, which this config never draws on).
  core::RrreConfig serial_config = SmallConfig();
  serial_config.shard_size = serial_config.batch_size;
  const FitResult serial = RunFit(serial_config, 1);

  core::RrreConfig sharded_config = SmallConfig();
  sharded_config.shard_size = 4;
  const FitResult sharded = RunFit(sharded_config, 4);

  ASSERT_EQ(serial.losses.size(), sharded.losses.size());
  for (size_t i = 0; i < serial.losses.size(); ++i) {
    EXPECT_NEAR(serial.losses[i], sharded.losses[i], 1e-6);
  }
  ASSERT_EQ(serial.params.size(), sharded.params.size());
  double max_diff = 0.0;
  for (size_t i = 0; i < serial.params.size(); ++i) {
    max_diff = std::max(
        max_diff,
        static_cast<double>(std::fabs(serial.params[i] - sharded.params[i])));
  }
  // Per-parameter tolerance is looser than the loss/metric ones: Adam's
  // first-step update is ~lr*sign(g), so for coordinates whose gradient is
  // at rounding-noise level the two summation orders can disagree on the
  // sign and move a full step apart. Thread-count invariance (the
  // determinism contract) is bitwise — see the tests above; this one only
  // checks the objective decomposition across *math paths*.
  EXPECT_LE(max_diff, 5e-4) << "max parameter divergence";
  ASSERT_EQ(serial.ratings.size(), sharded.ratings.size());
  for (size_t i = 0; i < serial.ratings.size(); ++i) {
    EXPECT_NEAR(serial.ratings[i], sharded.ratings[i], 1e-5);
    EXPECT_NEAR(serial.reliabilities[i], sharded.reliabilities[i], 1e-5);
  }
  EXPECT_NEAR(serial.brmse, sharded.brmse, 1e-5);
  EXPECT_NEAR(serial.auc, sharded.auc, 1e-5);
}

TEST_F(ParallelDeterminismTest, ShardedFitBitwiseAcrossThreadCountsEager) {
  // Same contract as ShardedFitBitwiseAcrossThreadCounts but on the eager
  // (tape-off) path, so a regression in either executor is caught on its own.
  core::RrreConfig config = SmallConfig();
  config.epochs = 2;
  config.shard_size = 4;
  config.use_tape = false;
  const FitResult serial = RunFit(config, 1);
  for (int threads : {2, 4}) {
    const FitResult parallel = RunFit(config, threads);
    EXPECT_EQ(parallel.losses, serial.losses) << "threads=" << threads;
    EXPECT_EQ(parallel.params, serial.params) << "threads=" << threads;
    EXPECT_EQ(parallel.ratings, serial.ratings) << "threads=" << threads;
    EXPECT_EQ(parallel.reliabilities, serial.reliabilities)
        << "threads=" << threads;
  }
}

TEST_F(ParallelDeterminismTest, TapeMatchesEagerAcrossThreadCounts) {
  // The strongest cross-executor claim: taped+fused training at any thread
  // count is bitwise identical to eager serial training, on several shards
  // and on one lone shard as wide as the batch.
  for (int64_t shard : {int64_t{4}, int64_t{16}}) {
    core::RrreConfig eager_config = SmallConfig();
    eager_config.shard_size = shard;
    eager_config.use_tape = false;
    const FitResult eager = RunFit(eager_config, 1);
    core::RrreConfig taped_config = eager_config;
    taped_config.use_tape = true;
    for (int threads : {1, 4}) {
      const FitResult taped = RunFit(taped_config, threads);
      EXPECT_EQ(taped.losses, eager.losses)
          << "shard=" << shard << " threads=" << threads;
      EXPECT_EQ(taped.params, eager.params)
          << "shard=" << shard << " threads=" << threads;
      EXPECT_EQ(taped.ratings, eager.ratings)
          << "shard=" << shard << " threads=" << threads;
      EXPECT_EQ(taped.reliabilities, eager.reliabilities)
          << "shard=" << shard << " threads=" << threads;
    }
  }
}

TEST_F(ParallelDeterminismTest, UnevenShardSplitStaysExact) {
  // batch 16 with shard_size 5 -> shards of 5, 5, 5, 1.
  core::RrreConfig config = SmallConfig();
  config.shard_size = 5;
  const FitResult a = RunFit(config, 1);
  const FitResult b = RunFit(config, 4);
  EXPECT_EQ(a.losses, b.losses);
  EXPECT_EQ(a.params, b.params);
}

// ---------------------------------------------------------------------------
// Baseline-level: DeepCoNN, NARRE and DER train through the same
// data-parallel step as RRRE, so the same thread-count contract holds for
// them on one shard and on many, with the tape on and off.
// ---------------------------------------------------------------------------

std::unique_ptr<baselines::NeuralRatingBaseline> MakeBaseline(
    const std::string& name, int64_t shard_size, bool use_tape) {
  baselines::NeuralRatingBaseline::CommonConfig common;
  common.word_dim = 8;
  common.epochs = 2;
  common.batch_size = 16;
  common.pretrain_epochs = 1;
  common.shard_size = shard_size;
  common.use_tape = use_tape;
  if (name == "deepconn") {
    baselines::DeepCoNN::Config c;
    c.common = common;
    c.doc_tokens = 16;
    c.filters = 4;
    c.latent_dim = 4;
    c.fm_factors = 4;
    return std::make_unique<baselines::DeepCoNN>(c);
  }
  if (name == "narre") {
    baselines::Narre::Config c;
    c.common = common;
    c.max_tokens = 8;
    c.s_u = 3;
    c.s_i = 4;
    c.filters = 4;
    c.id_dim = 4;
    c.attention_dim = 6;
    c.latent_dim = 4;
    c.fm_factors = 4;
    return std::make_unique<baselines::Narre>(c);
  }
  baselines::Der::Config c;
  c.common = common;
  c.max_tokens = 8;
  c.s_u = 3;
  c.s_i = 4;
  c.filters = 4;
  c.hidden = 4;
  c.id_dim = 4;
  c.fm_factors = 4;
  return std::make_unique<baselines::Der>(c);
}

TEST_F(ParallelDeterminismTest, NeuralBaselinesBitwiseAcrossThreadCounts) {
  // 21 training reviews: a 16-example batch and a 5-example tail, so
  // shard_size 4 covers full shards and a 1-example tail shard, and 16 trains
  // each batch as one lone shard.
  Rng split_rng(11);
  const auto [train, test] = SmallCorpus().Split(0.7, split_rng);
  std::vector<std::pair<int64_t, int64_t>> held_out;
  for (const data::Review& r : test.reviews()) {
    held_out.emplace_back(r.user, r.item);
  }
  ASSERT_FALSE(held_out.empty());
  for (const char* name : {"deepconn", "narre", "der"}) {
    for (int64_t shard : {int64_t{16}, int64_t{4}}) {
      for (bool tape : {true, false}) {
        std::vector<std::vector<double>> preds;
        for (int threads : {1, 4}) {
          ThreadPool::SetGlobalSize(threads);
          auto model = MakeBaseline(name, shard, tape);
          model->Fit(train);
          preds.push_back(model->PredictRatings(held_out));
        }
        EXPECT_EQ(preds[1], preds[0])
            << name << " shard=" << shard << " tape=" << tape;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoint-level: a run interrupted by Save + Load + Resume is bitwise
// identical to one that was never interrupted — the checkpoint captures the
// optimizer moments, step count and RNG state exactly.
// ---------------------------------------------------------------------------

std::vector<float> FlattenParams(const core::RrreTrainer& trainer) {
  std::vector<float> params;
  for (const Tensor& p : trainer.model().Parameters()) {
    const std::vector<float> v = p.ToVector();
    params.insert(params.end(), v.begin(), v.end());
  }
  return params;
}

void RemoveCheckpoint(const std::string& prefix) {
  for (const char* suffix :
       {".model", ".vocab", ".train.tsv", ".meta", ".optimizer"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST_F(ParallelDeterminismTest, KillThenResumeIsBitwiseIdentical) {
  ThreadPool::SetGlobalSize(2);
  data::ReviewDataset corpus = SmallCorpus();
  core::RrreConfig config = SmallConfig();
  config.epochs = 4;

  // Reference: 4 uninterrupted epochs.
  std::vector<double> straight_losses;
  core::RrreTrainer straight(config);
  straight.Fit(corpus, [&](const core::RrreTrainer::EpochStats& s) {
    straight_losses.push_back(s.loss);
  });
  ASSERT_EQ(straight_losses.size(), 4u);

  // "Killed" run: train 2 epochs, checkpoint, then restore into a fresh
  // trainer (simulating a new process) and Resume the remaining two.
  const std::string prefix = ::testing::TempDir() + "/resume_ckpt";
  std::vector<double> resumed_losses;
  {
    core::RrreConfig half = config;
    half.epochs = 2;
    core::RrreTrainer first(half);
    first.Fit(corpus, [&](const core::RrreTrainer::EpochStats& s) {
      resumed_losses.push_back(s.loss);
    });
    ASSERT_TRUE(first.Save(prefix).ok());
  }
  core::RrreTrainer resumed(config);  // Full-length schedule this time.
  ASSERT_TRUE(resumed.Load(prefix).ok());
  EXPECT_EQ(resumed.epochs_completed(), 2);
  ASSERT_TRUE(resumed
                  .Resume([&](const core::RrreTrainer::EpochStats& s) {
                    resumed_losses.push_back(s.loss);
                  })
                  .ok());
  EXPECT_EQ(resumed.epochs_completed(), 4);

  // Bitwise: per-epoch losses, every parameter, and downstream predictions.
  EXPECT_EQ(resumed_losses, straight_losses);
  EXPECT_EQ(FlattenParams(resumed), FlattenParams(straight));
  const auto expect = straight.PredictDataset(corpus);
  const auto actual = resumed.PredictDataset(corpus);
  EXPECT_EQ(actual.ratings, expect.ratings);
  EXPECT_EQ(actual.reliabilities, expect.reliabilities);
  RemoveCheckpoint(prefix);
}

TEST_F(ParallelDeterminismTest, ResumeIsExactAtEveryInterruptionPoint) {
  // Interrupt after each possible epoch boundary; every resume must land on
  // the same final parameters.
  data::ReviewDataset corpus = SmallCorpus();
  core::RrreConfig config = SmallConfig();
  config.epochs = 3;
  core::RrreTrainer straight(config);
  straight.Fit(corpus);
  const std::vector<float> want = FlattenParams(straight);

  const std::string prefix = ::testing::TempDir() + "/resume_pt_ckpt";
  for (int64_t stop = 1; stop < config.epochs; ++stop) {
    core::RrreConfig partial = config;
    partial.epochs = stop;
    core::RrreTrainer first(partial);
    first.Fit(corpus);
    ASSERT_TRUE(first.Save(prefix).ok());
    core::RrreTrainer resumed(config);
    ASSERT_TRUE(resumed.Load(prefix).ok());
    ASSERT_TRUE(resumed.Resume().ok());
    EXPECT_EQ(FlattenParams(resumed), want) << "interrupted after " << stop;
    RemoveCheckpoint(prefix);
  }
}

TEST_F(ParallelDeterminismTest, ResumeAfterAllEpochsIsANoOp) {
  data::ReviewDataset corpus = SmallCorpus();
  core::RrreConfig config = SmallConfig();  // epochs = 1
  core::RrreTrainer trainer(config);
  trainer.Fit(corpus);
  const std::string prefix = ::testing::TempDir() + "/resume_noop_ckpt";
  ASSERT_TRUE(trainer.Save(prefix).ok());
  core::RrreTrainer resumed(config);
  ASSERT_TRUE(resumed.Load(prefix).ok());
  const std::vector<float> before = FlattenParams(resumed);
  int callbacks = 0;
  ASSERT_TRUE(
      resumed.Resume([&](const core::RrreTrainer::EpochStats&) { ++callbacks; })
          .ok());
  EXPECT_EQ(callbacks, 0);
  EXPECT_EQ(FlattenParams(resumed), before);
  RemoveCheckpoint(prefix);
}

TEST_F(ParallelDeterminismTest, ResumeIsThreadCountInvariant) {
  // Save on 1 thread, resume on 4 — still bitwise equal to the straight run.
  data::ReviewDataset corpus = SmallCorpus();
  core::RrreConfig config = SmallConfig();
  config.epochs = 2;
  config.shard_size = 4;
  ThreadPool::SetGlobalSize(1);
  core::RrreTrainer straight(config);
  straight.Fit(corpus);

  const std::string prefix = ::testing::TempDir() + "/resume_threads_ckpt";
  core::RrreConfig half = config;
  half.epochs = 1;
  core::RrreTrainer first(half);
  first.Fit(corpus);
  ASSERT_TRUE(first.Save(prefix).ok());

  ThreadPool::SetGlobalSize(4);
  core::RrreTrainer resumed(config);
  ASSERT_TRUE(resumed.Load(prefix).ok());
  ASSERT_TRUE(resumed.Resume().ok());
  EXPECT_EQ(FlattenParams(resumed), FlattenParams(straight));
  RemoveCheckpoint(prefix);
}

}  // namespace
}  // namespace rrre
