#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "baselines/behavior_features.h"
#include "baselines/deepconn.h"
#include "baselines/der.h"
#include "baselines/icwsm13.h"
#include "baselines/logreg.h"
#include "baselines/narre.h"
#include "baselines/pmf.h"
#include "baselines/rev2.h"
#include "baselines/rrre_adapter.h"
#include "baselines/speagle.h"
#include "common/rng.h"
#include "core/config.h"
#include "data/synthetic.h"
#include "eval/metrics.h"

namespace rrre::baselines {
namespace {

using common::Rng;

struct SplitCorpus {
  data::ReviewDataset train;
  data::ReviewDataset test;
  data::SyntheticWorld world;
};

SplitCorpus MakeCorpus(double scale = 0.08, uint64_t seed = 5) {
  Rng rng(seed);
  data::SyntheticWorld world;
  data::ReviewDataset full = data::GenerateSyntheticDataset(
      data::YelpChiProfile(scale), rng, &world);
  auto [train, test] = full.Split(0.7, rng);
  return SplitCorpus{std::move(train), std::move(test), std::move(world)};
}

std::vector<double> Targets(const data::ReviewDataset& ds) {
  std::vector<double> out;
  for (const auto& r : ds.reviews()) out.push_back(r.rating);
  return out;
}

std::vector<int> Labels(const data::ReviewDataset& ds) {
  std::vector<int> out;
  for (const auto& r : ds.reviews()) out.push_back(r.is_benign() ? 1 : 0);
  return out;
}

// ---------------------------------------------------------------------------
// PMF
// ---------------------------------------------------------------------------

TEST(PmfTest, BeatsGlobalMeanOnHeldOut) {
  SplitCorpus c = MakeCorpus();
  Pmf pmf;
  pmf.Fit(c.train);
  const auto preds = pmf.PredictDataset(c.test);
  const auto targets = Targets(c.test);
  const double pmf_rmse = eval::Rmse(preds, targets);
  double mean = 0.0;
  for (const auto& r : c.train.reviews()) mean += r.rating;
  mean /= static_cast<double>(c.train.size());
  const double mean_rmse =
      eval::Rmse(std::vector<double>(targets.size(), mean), targets);
  EXPECT_LT(pmf_rmse, mean_rmse);
}

TEST(PmfTest, FitsTrainingSetClosely) {
  SplitCorpus c = MakeCorpus();
  Pmf::Config config;
  config.epochs = 50;
  Pmf pmf(config);
  pmf.Fit(c.train);
  const double rmse =
      eval::Rmse(pmf.PredictDataset(c.train), Targets(c.train));
  EXPECT_LT(rmse, 0.9);
}

TEST(PmfTest, DeterministicForSeed) {
  SplitCorpus c = MakeCorpus();
  Pmf a;
  a.Fit(c.train);
  Pmf b;
  b.Fit(c.train);
  EXPECT_EQ(a.PredictDataset(c.test), b.PredictDataset(c.test));
}

// ---------------------------------------------------------------------------
// Logistic regression
// ---------------------------------------------------------------------------

TEST(LogRegTest, SeparableDataLearned) {
  Rng rng(1);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 200; ++i) {
    const double a = rng.Normal();
    const double b = rng.Normal();
    x.push_back({a, b});
    y.push_back(a + b > 0 ? 1 : 0);
  }
  LogisticRegression clf;
  clf.Fit(x, y);
  const auto proba = clf.PredictProba(x);
  int correct = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    correct += ((proba[i] > 0.5) == (y[i] == 1)) ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(correct) / x.size(), 0.95);
}

TEST(LogRegTest, ProbabilitiesInUnitInterval) {
  std::vector<std::vector<double>> x = {{100.0}, {-100.0}, {0.0}};
  std::vector<int> y = {1, 0, 1};
  LogisticRegression clf;
  clf.Fit(x, y);
  for (double p : clf.PredictProba(x)) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(LogRegTest, ConstantFeatureIsHarmless) {
  std::vector<std::vector<double>> x = {{1.0, 5.0}, {-1.0, 5.0}, {2.0, 5.0},
                                        {-2.0, 5.0}};
  std::vector<int> y = {1, 0, 1, 0};
  LogisticRegression clf;
  clf.Fit(x, y);
  const auto p = clf.PredictProba(x);
  EXPECT_GT(p[0], 0.5);
  EXPECT_LT(p[1], 0.5);
}

// ---------------------------------------------------------------------------
// Behavior features
// ---------------------------------------------------------------------------

TEST(BehaviorFeaturesTest, FakeReviewsHaveStrongerSignals) {
  SplitCorpus c = MakeCorpus(0.15);
  const data::ReviewDataset combined =
      data::ReviewDataset::Merge(c.train, c.test);
  const auto features = ComputeBehaviorFeatures(combined);
  double fake_dev = 0.0;
  double benign_dev = 0.0;
  double fake_burst = 0.0;
  double benign_burst = 0.0;
  int64_t nf = 0;
  int64_t nb = 0;
  for (int64_t i = 0; i < combined.size(); ++i) {
    const auto& f = features[static_cast<size_t>(i)];
    if (combined.review(i).is_benign()) {
      benign_dev += f.rating_deviation;
      benign_burst += f.item_burst;
      ++nb;
    } else {
      fake_dev += f.rating_deviation;
      fake_burst += f.item_burst;
      ++nf;
    }
  }
  ASSERT_GT(nf, 0);
  ASSERT_GT(nb, 0);
  EXPECT_GT(fake_dev / nf, benign_dev / nb);
  EXPECT_GT(fake_burst / nf, benign_burst / nb);
}

TEST(BehaviorFeaturesTest, VectorHasDeclaredArity) {
  SplitCorpus c = MakeCorpus(0.05);
  const auto features = ComputeBehaviorFeatures(c.train);
  ASSERT_FALSE(features.empty());
  EXPECT_EQ(features[0].ToVector().size(),
            static_cast<size_t>(BehaviorFeatures::kNumFeatures));
}

// ---------------------------------------------------------------------------
// Reliability baselines
// ---------------------------------------------------------------------------

TEST(Icwsm13Test, DetectsPlantedFraud) {
  SplitCorpus c = MakeCorpus(0.15);
  Icwsm13 detector;
  detector.Fit(c.train);
  const auto scores = detector.ScoreReviews(c.test);
  EXPECT_GT(eval::Auc(scores, Labels(c.test)), 0.7);
}

TEST(SpEagleTest, DetectsPlantedFraud) {
  SplitCorpus c = MakeCorpus(0.15);
  SpEaglePlus detector;
  detector.Fit(c.train);
  const auto scores = detector.ScoreReviews(c.test);
  EXPECT_GT(eval::Auc(scores, Labels(c.test)), 0.7);
}

TEST(SpEagleTest, UnsupervisedVariantBeatsChanceWithoutLabels) {
  SplitCorpus c = MakeCorpus(0.15);
  SpEaglePlus::Config config;
  config.supervised_priors = false;  // Plain SpEagle.
  SpEaglePlus detector(config);
  detector.Fit(c.train);
  const auto scores = detector.ScoreReviews(c.test);
  EXPECT_GT(eval::Auc(scores, Labels(c.test)), 0.6);
}

TEST(SpEagleTest, SupervisionImprovesOverUnsupervised) {
  SplitCorpus c = MakeCorpus(0.15);
  SpEaglePlus::Config unsup_config;
  unsup_config.supervised_priors = false;
  SpEaglePlus unsupervised(unsup_config);
  unsupervised.Fit(c.train);
  SpEaglePlus supervised;
  supervised.Fit(c.train);
  const auto labels = Labels(c.test);
  EXPECT_GE(eval::Auc(supervised.ScoreReviews(c.test), labels) + 0.03,
            eval::Auc(unsupervised.ScoreReviews(c.test), labels));
}

TEST(SpEagleTest, ScoresAreProbabilities) {
  SplitCorpus c = MakeCorpus(0.05);
  SpEaglePlus detector;
  detector.Fit(c.train);
  for (double s : detector.ScoreReviews(c.test)) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(Rev2Test, FairnessGoodnessReliabilityBounded) {
  SplitCorpus c = MakeCorpus(0.1);
  Rev2 rev2;
  const auto solution = rev2.Solve(c.train);
  EXPECT_TRUE(solution.converged);
  for (double f : solution.fairness) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
  for (double g : solution.goodness) {
    EXPECT_GE(g, -1.0);
    EXPECT_LE(g, 1.0);
  }
  for (double r : solution.reliability) {
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
  }
}

TEST(Rev2Test, FraudstersAreLessFair) {
  SplitCorpus c = MakeCorpus(0.15);
  Rev2 rev2;
  const data::ReviewDataset combined =
      data::ReviewDataset::Merge(c.train, c.test);
  const auto solution = rev2.Solve(combined);
  double fraud_f = 0.0;
  double benign_f = 0.0;
  int64_t nf = 0;
  int64_t nb = 0;
  for (int64_t u = 0; u < combined.num_users(); ++u) {
    if (combined.ReviewsByUser(u).empty()) continue;
    if (c.world.is_fraudster[static_cast<size_t>(u)]) {
      fraud_f += solution.fairness[static_cast<size_t>(u)];
      ++nf;
    } else {
      benign_f += solution.fairness[static_cast<size_t>(u)];
      ++nb;
    }
  }
  ASSERT_GT(nf, 0);
  ASSERT_GT(nb, 0);
  EXPECT_LT(fraud_f / nf, benign_f / nb);
}

TEST(Rev2Test, RanksBetterThanChance) {
  SplitCorpus c = MakeCorpus(0.15);
  Rev2 detector;
  detector.Fit(c.train);
  const auto scores = detector.ScoreReviews(c.test);
  EXPECT_GT(eval::Auc(scores, Labels(c.test)), 0.55);
}

// ---------------------------------------------------------------------------
// Neural rating baselines (kept tiny for test speed)
// ---------------------------------------------------------------------------

NeuralRatingBaseline::CommonConfig TinyCommon() {
  NeuralRatingBaseline::CommonConfig c;
  c.word_dim = 8;
  c.epochs = 2;
  c.batch_size = 16;
  c.pretrain_epochs = 1;
  return c;
}

TEST(DeepConnTest, TrainsAndPredictsReasonably) {
  SplitCorpus c = MakeCorpus(0.05);
  DeepCoNN::Config config;
  config.common = TinyCommon();
  config.doc_tokens = 32;
  config.filters = 8;
  config.latent_dim = 4;
  DeepCoNN model(config);
  model.Fit(c.train);
  const auto preds = model.PredictDataset(c.test);
  ASSERT_EQ(preds.size(), static_cast<size_t>(c.test.size()));
  for (double p : preds) EXPECT_TRUE(std::isfinite(p));
  EXPECT_LT(eval::Rmse(preds, Targets(c.test)), 2.5);
}

TEST(NarreTest, TrainsAndPredictsReasonably) {
  SplitCorpus c = MakeCorpus(0.05);
  Narre::Config config;
  config.common = TinyCommon();
  config.max_tokens = 8;
  config.s_u = 3;
  config.s_i = 4;
  config.filters = 8;
  config.id_dim = 4;
  config.attention_dim = 6;
  config.latent_dim = 8;
  Narre model(config);
  model.Fit(c.train);
  const auto preds = model.PredictDataset(c.test);
  ASSERT_EQ(preds.size(), static_cast<size_t>(c.test.size()));
  EXPECT_LT(eval::Rmse(preds, Targets(c.test)), 2.0);
}

TEST(DerTest, TrainsAndPredictsReasonably) {
  SplitCorpus c = MakeCorpus(0.05);
  Der::Config config;
  config.common = TinyCommon();
  config.max_tokens = 8;
  config.s_u = 3;
  config.s_i = 4;
  config.filters = 8;
  config.hidden = 8;
  config.id_dim = 4;
  Der model(config);
  model.Fit(c.train);
  const auto preds = model.PredictDataset(c.test);
  ASSERT_EQ(preds.size(), static_cast<size_t>(c.test.size()));
  EXPECT_LT(eval::Rmse(preds, Targets(c.test)), 2.0);
}

TEST(NeuralBaselineTest, PredictBeforeFitIsFatal) {
  DeepCoNN model;
  EXPECT_DEATH(model.PredictRatings({{0, 0}}), "Fit");
}

TEST(NeuralBaselineTest, NegativeShardSizeIsFatal) {
  // Every shard_size below 1 is refused, 0 included.
  for (const int64_t shard : {int64_t{-4}, int64_t{0}}) {
    DeepCoNN::Config config;
    config.common.shard_size = shard;
    EXPECT_DEATH({ DeepCoNN model(config); }, "shard_size") << shard;
  }
}

TEST(NeuralBaselineTest, ShippedShardSizeIsTheMeasuredOne) {
  // The benchmark and the bench harness train at shard_size 8; the shipped
  // trainers default to the same step.
  EXPECT_EQ(core::RrreConfig().shard_size, 8);
  EXPECT_EQ(NeuralRatingBaseline::CommonConfig().shard_size, 8);
}

// ---------------------------------------------------------------------------
// RRRE adapter
// ---------------------------------------------------------------------------

TEST(RrreAdapterTest, ServesBothInterfaces) {
  SplitCorpus c = MakeCorpus(0.05);
  core::RrreConfig config;
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
  RrreAdapter adapter(config);
  adapter.Fit(c.train);
  RatingPredictor& rating = adapter;
  ReliabilityPredictor& reliability = adapter;
  const auto ratings = rating.PredictDataset(c.test);
  const auto scores = reliability.ScoreReviews(c.test);
  EXPECT_EQ(ratings.size(), static_cast<size_t>(c.test.size()));
  EXPECT_EQ(scores.size(), static_cast<size_t>(c.test.size()));
  for (double s : scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

}  // namespace
}  // namespace rrre::baselines
