// Tests of the tower-cached BatchScorer: exactness against the full
// pipeline, cache reuse and the stale-parameters check.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/timer.h"
#include "core/scorer.h"
#include "core/trainer.h"
#include "data/synthetic.h"

namespace rrre::core {
namespace {

using common::Rng;

class BatchScorerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(31);
    corpus_ = new data::ReviewDataset(data::GenerateSyntheticDataset(
        data::YelpChiProfile(0.05), rng));
    RrreConfig config;
    config.word_dim = 8;
    config.rev_dim = 8;
    config.id_dim = 4;
    config.attention_dim = 6;
    config.fm_factors = 4;
    config.max_tokens = 8;
    config.s_u = 3;
    config.s_i = 4;
    config.epochs = 2;
    config.pretrain_epochs = 1;
    trainer_ = new RrreTrainer(config);
    trainer_->Fit(*corpus_);
  }

  static void TearDownTestSuite() {
    delete trainer_;
    delete corpus_;
    trainer_ = nullptr;
    corpus_ = nullptr;
  }

  static data::ReviewDataset* corpus_;
  static RrreTrainer* trainer_;
};

data::ReviewDataset* BatchScorerTest::corpus_ = nullptr;
RrreTrainer* BatchScorerTest::trainer_ = nullptr;

TEST_F(BatchScorerTest, MatchesFullPipelineExactly) {
  std::vector<std::pair<int64_t, int64_t>> pairs;
  for (int64_t i = 0; i < 60; ++i) {
    const data::Review& r = corpus_->review(i % corpus_->size());
    pairs.emplace_back(r.user, r.item);
  }
  auto full = trainer_->PredictPairs(pairs);
  BatchScorer scorer(trainer_);
  auto fast = scorer.Score(pairs);
  ASSERT_EQ(full.ratings.size(), fast.ratings.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_NEAR(full.ratings[i], fast.ratings[i], 2e-4) << i;
    EXPECT_NEAR(full.reliabilities[i], fast.reliabilities[i], 2e-5) << i;
  }
}

TEST_F(BatchScorerTest, CachesAreReusedAcrossCalls) {
  BatchScorer scorer(trainer_);
  scorer.Score({{0, 0}, {0, 1}, {1, 0}});
  EXPECT_EQ(scorer.cached_users(), 2);
  EXPECT_EQ(scorer.cached_items(), 2);
  scorer.Score({{0, 1}, {1, 1}});
  EXPECT_EQ(scorer.cached_users(), 2);  // No new users.
  EXPECT_EQ(scorer.cached_items(), 2);  // Item 1 already cached.
}

TEST_F(BatchScorerTest, ScoreAllItemsForUserCoversCatalog) {
  BatchScorer scorer(trainer_);
  auto preds = scorer.ScoreAllItemsForUser(2);
  EXPECT_EQ(preds.ratings.size(),
            static_cast<size_t>(corpus_->num_items()));
  EXPECT_EQ(scorer.cached_items(), corpus_->num_items());
  for (double l : preds.reliabilities) {
    EXPECT_GE(l, 0.0);
    EXPECT_LE(l, 1.0);
  }
}

TEST_F(BatchScorerTest, CachedCatalogScoringIsFasterSecondTime) {
  BatchScorer scorer(trainer_);
  common::Timer cold_timer;
  scorer.ScoreAllItemsForUser(3);
  const double cold = cold_timer.ElapsedSeconds();
  common::Timer warm_timer;
  scorer.ScoreAllItemsForUser(4);  // Item profiles all cached already.
  const double warm = warm_timer.ElapsedSeconds();
  EXPECT_LT(warm, cold);  // Heads only vs towers + heads.
}

TEST_F(BatchScorerTest, StaleCachesAreACheckedError) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  BatchScorer scorer(trainer_);
  scorer.Score({{0, 0}});
  // Further training bumps the trainer's params_version; the next scoring
  // call must die loudly instead of mixing old cached towers with new
  // parameters. (The mutation happens in the death-test child process, so
  // the suite's shared trainer is unaffected.)
  EXPECT_DEATH(
      {
        trainer_->Fit(*corpus_);
        scorer.Score({{0, 0}});
      },
      "stale");
}

TEST_F(BatchScorerTest, ProfilesIndependentOfPairedCounterpart) {
  // The same user scored against two different items must reuse one cached
  // profile and produce a reliability that differs only through the item.
  BatchScorer scorer(trainer_);
  auto a = scorer.Score({{5, 0}});
  auto b = scorer.Score({{5, 1}});
  EXPECT_EQ(scorer.cached_users(), 1);
  // Cross-check against the trainer's full pipeline for both pairs.
  auto full = trainer_->PredictPairs({{5, 0}, {5, 1}});
  EXPECT_NEAR(a.reliabilities[0], full.reliabilities[0], 2e-5);
  EXPECT_NEAR(b.reliabilities[0], full.reliabilities[1], 2e-5);
}

}  // namespace
}  // namespace rrre::core
