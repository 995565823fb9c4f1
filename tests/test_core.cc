#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.h"
#include "core/config.h"
#include "core/features.h"
#include "core/model.h"
#include "core/recommender.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "nn/attention.h"
#include "tensor/ops.h"
#include "text/tokenizer.h"

namespace rrre::core {
namespace {

using common::Rng;

/// A tiny config that keeps unit tests fast on one core.
RrreConfig TinyConfig() {
  RrreConfig c;
  c.word_dim = 8;
  c.rev_dim = 8;
  c.id_dim = 4;
  c.attention_dim = 6;
  c.fm_factors = 4;
  c.max_tokens = 8;
  c.s_u = 3;
  c.s_i = 4;
  c.batch_size = 16;
  c.epochs = 2;
  c.pretrain_epochs = 1;
  c.lr = 5e-3;
  return c;
}

data::ReviewDataset TinyCorpus(uint64_t seed = 9) {
  Rng rng(seed);
  data::DatasetProfile p = data::YelpChiProfile(0.04);
  return data::GenerateSyntheticDataset(p, rng);
}

// ---------------------------------------------------------------------------
// FeatureBuilder
// ---------------------------------------------------------------------------

class FeatureBuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = std::make_unique<data::ReviewDataset>(3, 2);
    auto add = [&](int64_t u, int64_t i, float r, int64_t ts,
                   const std::string& text) {
      data::Review rev;
      rev.user = u;
      rev.item = i;
      rev.rating = r;
      rev.timestamp = ts;
      rev.text = text;
      ds_->Add(rev);
    };
    add(0, 0, 5.0f, 1, "great pasta here");
    add(0, 1, 4.0f, 2, "friendly staff");
    add(1, 0, 1.0f, 3, "worst scam avoid");
    add(2, 1, 3.0f, 4, "okay average");
    ds_->BuildIndex();
    std::vector<std::vector<std::string>> docs;
    for (const auto& r : ds_->reviews()) docs.push_back(text::Tokenize(r.text));
    vocab_ = std::make_unique<text::Vocabulary>(
        text::Vocabulary::Build(docs, /*min_count=*/1));
    config_ = TinyConfig();
    builder_ = std::make_unique<FeatureBuilder>(config_, ds_.get(),
                                                vocab_.get());
  }

  RrreConfig config_;
  std::unique_ptr<data::ReviewDataset> ds_;
  std::unique_ptr<text::Vocabulary> vocab_;
  std::unique_ptr<FeatureBuilder> builder_;
};

TEST_F(FeatureBuilderTest, ShapesMatchConfig) {
  Rng rng(1);
  auto batch = builder_->Build({{0, 0}, {2, 1}}, rng);
  EXPECT_EQ(batch.batch_size, 2);
  EXPECT_EQ(batch.user_hist_tokens.size(),
            static_cast<size_t>(2 * config_.s_u * config_.max_tokens));
  EXPECT_EQ(batch.user_hist_mask.size(), static_cast<size_t>(2 * config_.s_u));
  EXPECT_EQ(batch.item_hist_mask.size(), static_cast<size_t>(2 * config_.s_i));
}

TEST_F(FeatureBuilderTest, MaskReflectsHistoryLength) {
  Rng rng(1);
  auto batch = builder_->Build({{0, 0}}, rng);
  // User 0 wrote 2 reviews; s_u = 3 -> 2 live slots + 1 masked.
  int live = 0;
  for (float m : batch.user_hist_mask) {
    if (m == 0.0f) ++live;
  }
  EXPECT_EQ(live, 2);
  // Item 0 has 2 reviews; s_i = 4 -> 2 live slots.
  live = 0;
  for (float m : batch.item_hist_mask) {
    if (m == 0.0f) ++live;
  }
  EXPECT_EQ(live, 2);
}

TEST_F(FeatureBuilderTest, PadSlotsCarryPadTokens) {
  Rng rng(1);
  auto batch = builder_->Build({{2, 1}}, rng);
  // User 2 wrote 1 review; slots 1..2 are pads -> all pad tokens.
  for (int64_t slot = 1; slot < config_.s_u; ++slot) {
    for (int64_t t = 0; t < config_.max_tokens; ++t) {
      EXPECT_EQ(batch.user_hist_tokens[static_cast<size_t>(
                    slot * config_.max_tokens + t)],
                text::Vocabulary::kPadId);
    }
  }
}

TEST_F(FeatureBuilderTest, ItemHistoryCarriesWriterIds) {
  Rng rng(1);
  auto batch = builder_->Build({{0, 0}}, rng);
  // Item 0's reviews were written by users 0 and 1 (time order: 0 then 1).
  EXPECT_EQ(batch.item_hist_users[0], 0);
  EXPECT_EQ(batch.item_hist_users[1], 1);
  // All item-history slots are for item 0.
  for (int64_t s = 0; s < 2; ++s) EXPECT_EQ(batch.item_hist_items[s], 0);
}

TEST_F(FeatureBuilderTest, ExcludeRemovesTargetReview) {
  Rng rng(1);
  // Pair (0,0), excluding review 0 (user 0's review of item 0).
  auto batch = builder_->Build({{0, 0}}, {0}, rng);
  int live = 0;
  for (float m : batch.user_hist_mask) {
    if (m == 0.0f) ++live;
  }
  EXPECT_EQ(live, 1);  // Only the review of item 1 remains.
  EXPECT_EQ(batch.user_hist_items[0], 1);
}

// ---------------------------------------------------------------------------
// ReviewEncoder
// ---------------------------------------------------------------------------

TEST(ReviewEncoderTest, EncodesSlotsToRevDim) {
  Rng rng(41);
  nn::Embedding words(10, 6, rng);
  ReviewEncoder encoder(&words, /*max_tokens=*/4, /*rev_dim=*/8, rng);
  // Two slots of 4 token ids each.
  std::vector<int64_t> tokens = {2, 3, 4, 0, 5, 6, 0, 0};
  tensor::Tensor out = encoder.Encode(tokens, 2);
  EXPECT_EQ(out.shape(), (tensor::Shape{2, 8}));
  EXPECT_EQ(encoder.rev_dim(), 8);
}

TEST(ReviewEncoderTest, AllPadSlotsAreIdentical) {
  Rng rng(43);
  nn::Embedding words(10, 6, rng);
  ReviewEncoder encoder(&words, 4, 8, rng);
  std::vector<int64_t> tokens(8, text::Vocabulary::kPadId);
  tensor::Tensor out = encoder.Encode(tokens, 2);
  for (int64_t j = 0; j < 8; ++j) {
    EXPECT_EQ(out.at(0, j), out.at(1, j));
  }
}

TEST(ReviewEncoderTest, TokenOrderMatters) {
  Rng rng(47);
  nn::Embedding words(10, 6, rng);
  ReviewEncoder encoder(&words, 4, 8, rng);
  tensor::Tensor forward = encoder.Encode({2, 3, 4, 5}, 1);
  tensor::Tensor reversed = encoder.Encode({5, 4, 3, 2}, 1);
  bool differs = false;
  for (int64_t j = 0; j < 8; ++j) {
    if (std::abs(forward.at(0, j) - reversed.at(0, j)) > 1e-6f) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------------
// RrreModel
// ---------------------------------------------------------------------------

class ModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = TinyConfig();
    ds_ = std::make_unique<data::ReviewDataset>(TinyCorpus());
    std::vector<std::vector<std::string>> docs;
    for (const auto& r : ds_->reviews()) docs.push_back(text::Tokenize(r.text));
    vocab_ = std::make_unique<text::Vocabulary>(
        text::Vocabulary::Build(docs, 1));
    Rng rng(3);
    model_ = std::make_unique<RrreModel>(config_, ds_->num_users(),
                                         ds_->num_items(), vocab_->size(),
                                         rng);
    builder_ = std::make_unique<FeatureBuilder>(config_, ds_.get(),
                                                vocab_.get());
  }

  RrreModel::Batch MakeBatch(int64_t n) {
    Rng rng(7);
    std::vector<std::pair<int64_t, int64_t>> pairs;
    for (int64_t i = 0; i < n; ++i) {
      const data::Review& r = ds_->review(i * 3 % ds_->size());
      pairs.emplace_back(r.user, r.item);
    }
    return builder_->Build(pairs, rng);
  }

  RrreConfig config_;
  std::unique_ptr<data::ReviewDataset> ds_;
  std::unique_ptr<text::Vocabulary> vocab_;
  std::unique_ptr<RrreModel> model_;
  std::unique_ptr<FeatureBuilder> builder_;
};

TEST_F(ModelTest, ForwardShapes) {
  auto batch = MakeBatch(4);
  auto out = model_->Forward(batch, false, nullptr);
  EXPECT_EQ(out.rating.shape(), (tensor::Shape{4, 1}));
  EXPECT_EQ(out.reliability_logits.shape(), (tensor::Shape{4, 2}));
  EXPECT_EQ(out.reliability.shape(), (tensor::Shape{4, 2}));
  EXPECT_EQ(out.x_u.shape(), (tensor::Shape{4, config_.rev_dim}));
  EXPECT_EQ(out.y_i.shape(), (tensor::Shape{4, config_.rev_dim}));
  EXPECT_EQ(out.user_alphas.shape(), (tensor::Shape{4, config_.s_u}));
  EXPECT_EQ(out.item_alphas.shape(), (tensor::Shape{4, config_.s_i}));
}

TEST_F(ModelTest, ReliabilityIsDistribution) {
  auto batch = MakeBatch(4);
  auto out = model_->Forward(batch, false, nullptr);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(out.reliability.at(i, 0) + out.reliability.at(i, 1), 1.0f,
                1e-5f);
    EXPECT_GE(out.reliability.at(i, 1), 0.0f);
  }
}

TEST_F(ModelTest, MaskedSlotsGetNoAttention) {
  auto batch = MakeBatch(4);
  auto out = model_->Forward(batch, false, nullptr);
  for (int64_t b = 0; b < 4; ++b) {
    float sum = 0.0f;
    for (int64_t s = 0; s < config_.s_u; ++s) {
      const float mask =
          batch.user_hist_mask[static_cast<size_t>(b * config_.s_u + s)];
      if (mask != 0.0f) {
        EXPECT_LT(out.user_alphas.at(b, s), 1e-6f);
      }
      sum += out.user_alphas.at(b, s);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }
}

TEST_F(ModelTest, MeanPoolingAblationGivesUniformWeights) {
  config_.use_attention = false;
  Rng rng(5);
  RrreModel mean_model(config_, ds_->num_users(), ds_->num_items(),
                       vocab_->size(), rng);
  auto batch = MakeBatch(3);
  auto out = mean_model.Forward(batch, false, nullptr);
  for (int64_t b = 0; b < 3; ++b) {
    int live = 0;
    for (int64_t s = 0; s < config_.s_u; ++s) {
      if (batch.user_hist_mask[static_cast<size_t>(b * config_.s_u + s)] ==
          0.0f) {
        ++live;
      }
    }
    for (int64_t s = 0; s < config_.s_u; ++s) {
      const bool is_live =
          batch.user_hist_mask[static_cast<size_t>(b * config_.s_u + s)] ==
          0.0f;
      if (is_live) {
        EXPECT_NEAR(out.user_alphas.at(b, s), 1.0f / live, 1e-4f);
      }
    }
  }
}

TEST_F(ModelTest, DeterministicInference) {
  auto batch = MakeBatch(4);
  auto o1 = model_->Forward(batch, false, nullptr);
  auto o2 = model_->Forward(batch, false, nullptr);
  EXPECT_EQ(o1.rating.ToVector(), o2.rating.ToVector());
  EXPECT_EQ(o1.reliability.ToVector(), o2.reliability.ToVector());
}

TEST_F(ModelTest, GradReachesBothHeadsAndTowers) {
  auto batch = MakeBatch(4);
  auto out = model_->Forward(batch, true, nullptr);
  std::vector<int64_t> labels = {1, 0, 1, 1};
  tensor::Tensor loss = tensor::Add(
      tensor::CrossEntropyWithLogits(out.reliability_logits, labels),
      tensor::Mean(tensor::Square(out.rating)));
  loss.Backward();
  int with_grad = 0;
  int total = 0;
  for (const auto& [name, p] : model_->NamedParameters()) {
    ++total;
    double norm = 0.0;
    if (p.impl()->grad.size() == p.impl()->data.size()) {
      for (float g : p.impl()->grad) norm += std::abs(g);
    }
    if (norm > 0.0) ++with_grad;
  }
  // Everything except attention b2 (softmax shift-invariance) and possibly
  // untouched embedding rows should receive gradient.
  EXPECT_GE(with_grad, total - 2);
}

// ---------------------------------------------------------------------------
// Trainer end-to-end
// ---------------------------------------------------------------------------

TEST(TrainerTest, LossDecreasesAcrossEpochs) {
  RrreConfig config = TinyConfig();
  config.epochs = 4;
  RrreTrainer trainer(config);
  std::vector<double> losses;
  trainer.Fit(TinyCorpus(), [&](const RrreTrainer::EpochStats& s) {
    losses.push_back(s.loss);
  });
  ASSERT_EQ(losses.size(), 4u);
  EXPECT_LT(losses.back(), losses.front());
}

TEST(TrainerTest, LearnsReliabilitySignalOnTrain) {
  RrreConfig config = TinyConfig();
  config.epochs = 4;
  RrreTrainer trainer(config);
  data::ReviewDataset corpus = TinyCorpus();
  trainer.Fit(corpus);
  auto preds = trainer.PredictDataset(corpus);
  std::vector<int> labels;
  for (const auto& r : corpus.reviews()) labels.push_back(r.is_benign());
  const double auc = eval::Auc(preds.reliabilities, labels);
  EXPECT_GT(auc, 0.8) << "train AUC";
}

TEST(TrainerTest, GeneralizesToHeldOutReviews) {
  // The bounds hold for the median over five trainer seeds (42 and the next
  // four of a 32-seed sweep): over that sweep one seed's held-out AUC has a
  // standard deviation of about 0.02, and 2 of the 32 seeds read 0.65 or
  // below at every shard size.
  Rng rng(11);
  Rng gen_rng(13);
  data::ReviewDataset corpus = data::GenerateSyntheticDataset(
      data::YelpChiProfile(0.12), gen_rng);
  auto [train, test] = corpus.Split(0.7, rng);
  std::vector<int> labels;
  std::vector<double> targets;
  for (const auto& r : test.reviews()) {
    labels.push_back(r.is_benign());
    targets.push_back(r.rating);
  }
  std::vector<double> aucs;
  std::vector<double> brmses;
  for (const uint64_t seed : {42, 1001, 1002, 1003, 1004}) {
    RrreConfig config = TinyConfig();
    config.epochs = 5;
    config.seed = seed;
    RrreTrainer trainer(config);
    trainer.Fit(train);
    auto preds = trainer.PredictDataset(test);
    aucs.push_back(eval::Auc(preds.reliabilities, labels));
    brmses.push_back(eval::BiasedRmse(preds.ratings, targets, labels));
  }
  std::sort(aucs.begin(), aucs.end());
  std::sort(brmses.begin(), brmses.end());
  EXPECT_GT(aucs[2], 0.65) << "median test AUC";
  EXPECT_LT(brmses[2], 1.6) << "median test bRMSE";
}

TEST(TrainerTest, PredictionsAreFiniteAndPlausible) {
  RrreConfig config = TinyConfig();
  RrreTrainer trainer(config);
  data::ReviewDataset corpus = TinyCorpus();
  trainer.Fit(corpus);
  auto preds = trainer.PredictDataset(corpus);
  for (double r : preds.ratings) {
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_GT(r, -5.0);
    EXPECT_LT(r, 12.0);
  }
  for (double l : preds.reliabilities) {
    EXPECT_GE(l, 0.0);
    EXPECT_LE(l, 1.0);
  }
}

TEST(TrainerTest, DeterministicAcrossRunsWithSameSeed) {
  RrreConfig config = TinyConfig();
  config.epochs = 1;
  data::ReviewDataset corpus = TinyCorpus();
  RrreTrainer a(config);
  a.Fit(corpus);
  RrreTrainer b(config);
  b.Fit(corpus);
  auto pa = a.PredictDataset(corpus);
  auto pb = b.PredictDataset(corpus);
  EXPECT_EQ(pa.ratings, pb.ratings);
  EXPECT_EQ(pa.reliabilities, pb.reliabilities);
}

TEST(TrainerTest, RrreMinusUsesUnbiasedLoss) {
  // Just exercises the Eq. 13 path end to end.
  RrreConfig config = TinyConfig();
  config.biased_loss = false;
  config.epochs = 1;
  RrreTrainer trainer(config);
  trainer.Fit(TinyCorpus());
  EXPECT_TRUE(trainer.fitted());
}

TEST(TrainerTest, PredictBeforeFitIsFatal) {
  RrreTrainer trainer(TinyConfig());
  EXPECT_DEATH(trainer.PredictPairs({{0, 0}}), "Fit");
}

TEST(TrainerTest, NegativeShardSizeIsFatal) {
  // Every shard_size below 1 is refused, 0 included.
  for (const int64_t shard : {int64_t{-4}, int64_t{0}}) {
    RrreConfig config = TinyConfig();
    config.shard_size = shard;
    EXPECT_DEATH({ RrreTrainer trainer(config); }, "shard_size") << shard;
  }
}

TEST(TrainerTest, TapeOffIsFatal) {
  // Training has one path; perfbench still sets both fields to true.
  RrreConfig no_tape = TinyConfig();
  no_tape.use_tape = false;
  EXPECT_DEATH({ RrreTrainer trainer(no_tape); }, "use_tape");
  RrreConfig no_replay = TinyConfig();
  no_replay.tape_replay = false;
  EXPECT_DEATH({ RrreTrainer trainer(no_replay); }, "tape_replay");
}

// ---------------------------------------------------------------------------
// ReliableRecommender
// ---------------------------------------------------------------------------

class RecommenderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RrreConfig config = TinyConfig();
    config.epochs = 2;
    trainer_ = std::make_unique<RrreTrainer>(config);
    corpus_ = std::make_unique<data::ReviewDataset>(TinyCorpus());
    trainer_->Fit(*corpus_);
    recommender_ = std::make_unique<ReliableRecommender>(trainer_.get());
  }

  std::unique_ptr<RrreTrainer> trainer_;
  std::unique_ptr<data::ReviewDataset> corpus_;
  std::unique_ptr<ReliableRecommender> recommender_;
};

TEST_F(RecommenderTest, ReturnsRequestedCount) {
  auto recs = recommender_->Recommend(0, 3, 10);
  EXPECT_EQ(recs.size(), 3u);
}

TEST_F(RecommenderTest, ResultsSortedByReliability) {
  auto recs = recommender_->Recommend(0, 5, 15);
  for (size_t i = 1; i < recs.size(); ++i) {
    EXPECT_GE(recs[i - 1].reliability, recs[i].reliability);
  }
}

TEST_F(RecommenderTest, CandidatesComeFromTopRatedPool) {
  // Every recommended item must have a rating at least as high as the
  // candidate_pool-th best rating over all unseen items.
  const int64_t pool = 10;
  auto recs = recommender_->Recommend(1, 3, pool);
  ASSERT_FALSE(recs.empty());
  // Rebuild the full rating ranking over the same unseen-item universe.
  const auto& train = trainer_->train_data();
  std::set<int64_t> seen;
  for (int64_t idx : train.ReviewsByUser(1)) {
    seen.insert(train.review(idx).item);
  }
  std::vector<std::pair<int64_t, int64_t>> pairs;
  for (int64_t i = 0; i < corpus_->num_items(); ++i) {
    if (!seen.count(i)) pairs.emplace_back(1, i);
  }
  auto preds = trainer_->PredictPairs(pairs);
  std::vector<double> ratings = preds.ratings;
  std::sort(ratings.begin(), ratings.end(), std::greater<>());
  const double cutoff = ratings[static_cast<size_t>(pool - 1)];
  for (const auto& rec : recs) {
    EXPECT_GE(rec.rating, cutoff - 1e-6);
  }
}

TEST_F(RecommenderTest, ExcludesSeenItems) {
  // Find a user with at least one training review.
  const auto& train = trainer_->train_data();
  int64_t user = -1;
  for (int64_t u = 0; u < train.num_users(); ++u) {
    if (!train.ReviewsByUser(u).empty()) {
      user = u;
      break;
    }
  }
  ASSERT_GE(user, 0);
  std::set<int64_t> seen;
  for (int64_t idx : train.ReviewsByUser(user)) {
    seen.insert(train.review(idx).item);
  }
  auto recs = recommender_->Recommend(user, 5, 20, /*exclude_seen=*/true);
  for (const auto& rec : recs) {
    EXPECT_FALSE(seen.count(rec.item)) << "item " << rec.item;
  }
}

TEST_F(RecommenderTest, ExplanationsComeFromItemReviews) {
  // Pick an item with several reviews.
  const auto& train = trainer_->train_data();
  int64_t item = -1;
  for (int64_t i = 0; i < train.num_items(); ++i) {
    if (train.ReviewsByItem(i).size() >= 4) {
      item = i;
      break;
    }
  }
  ASSERT_GE(item, 0);
  auto explanations = recommender_->Explain(item, 2, 4);
  ASSERT_EQ(explanations.size(), 2u);
  for (const auto& e : explanations) {
    EXPECT_EQ(train.review(e.review_index).item, item);
    EXPECT_EQ(train.review(e.review_index).text, e.text);
  }
  // Sorted by reliability.
  EXPECT_GE(explanations[0].reliability, explanations[1].reliability);
}

TEST_F(RecommenderTest, EmptyForItemWithoutReviews) {
  const auto& train = trainer_->train_data();
  for (int64_t i = 0; i < train.num_items(); ++i) {
    if (train.ReviewsByItem(i).empty()) {
      EXPECT_TRUE(recommender_->Explain(i, 3).empty());
      return;
    }
  }
  GTEST_SKIP() << "no empty item in this corpus";
}

}  // namespace
}  // namespace rrre::core
