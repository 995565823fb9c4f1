// Tests of the extension features: vocabulary persistence, trainer
// checkpointing, and the semi-supervised self-training loop (the paper's
// Sec. V future work).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/io.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/semi_supervised.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "text/vocab.h"

namespace rrre {
namespace {

using common::Rng;

core::RrreConfig TinyConfig() {
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
  c.epochs = 2;
  c.pretrain_epochs = 1;
  return c;
}

data::ReviewDataset TinyCorpus(uint64_t seed = 9) {
  Rng rng(seed);
  return data::GenerateSyntheticDataset(data::YelpChiProfile(0.05), rng);
}

// ---------------------------------------------------------------------------
// Vocabulary persistence
// ---------------------------------------------------------------------------

TEST(VocabPersistenceTest, SaveLoadRoundTrip) {
  text::Vocabulary v = text::Vocabulary::Build(
      {{"good", "food"}, {"good", "beer"}}, /*min_count=*/1);
  const std::string path = ::testing::TempDir() + "/vocab_rt.txt";
  ASSERT_TRUE(v.Save(path).ok());
  auto loaded = text::Vocabulary::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), v.size());
  for (int64_t id = 0; id < v.size(); ++id) {
    EXPECT_EQ(loaded.value().Token(id), v.Token(id));
    EXPECT_EQ(loaded.value().Id(v.Token(id)), id);
  }
  std::remove(path.c_str());
}

TEST(VocabPersistenceTest, LoadRejectsMissingSpecials) {
  const std::string path = ::testing::TempDir() + "/vocab_bad.txt";
  FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("good\nfood\n", f);
  std::fclose(f);
  EXPECT_FALSE(text::Vocabulary::Load(path).ok());
  std::remove(path.c_str());
}

TEST(VocabPersistenceTest, LoadRejectsDuplicates) {
  const std::string path = ::testing::TempDir() + "/vocab_dup.txt";
  FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("<pad>\n<unk>\ngood\ngood\n", f);
  std::fclose(f);
  EXPECT_FALSE(text::Vocabulary::Load(path).ok());
  std::remove(path.c_str());
}

TEST(VocabPersistenceTest, LoadMissingFileFails) {
  EXPECT_FALSE(text::Vocabulary::Load("/nope/vocab.txt").ok());
}

// ---------------------------------------------------------------------------
// Trainer checkpointing
// ---------------------------------------------------------------------------

TEST(TrainerPersistenceTest, SaveLoadReproducesPredictions) {
  data::ReviewDataset corpus = TinyCorpus();
  core::RrreTrainer trainer(TinyConfig());
  trainer.Fit(corpus);
  const std::string prefix = ::testing::TempDir() + "/rrre_ckpt";
  ASSERT_TRUE(trainer.Save(prefix).ok());

  core::RrreTrainer restored(TinyConfig());
  ASSERT_TRUE(restored.Load(prefix).ok());
  EXPECT_TRUE(restored.fitted());

  std::vector<std::pair<int64_t, int64_t>> pairs;
  for (int64_t i = 0; i < std::min<int64_t>(corpus.size(), 40); ++i) {
    pairs.emplace_back(corpus.review(i).user, corpus.review(i).item);
  }
  auto a = trainer.PredictPairs(pairs);
  auto b = restored.PredictPairs(pairs);
  ASSERT_EQ(a.ratings.size(), b.ratings.size());
  for (size_t i = 0; i < a.ratings.size(); ++i) {
    EXPECT_NEAR(a.ratings[i], b.ratings[i], 1e-5) << i;
    EXPECT_NEAR(a.reliabilities[i], b.reliabilities[i], 1e-5) << i;
  }
  for (const char* suffix :
       {".model", ".vocab", ".train.tsv", ".meta", ".optimizer"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(TrainerPersistenceTest, SaveUnfittedFails) {
  core::RrreTrainer trainer(TinyConfig());
  EXPECT_FALSE(trainer.Save(::testing::TempDir() + "/nofit").ok());
}

TEST(TrainerPersistenceTest, LoadMissingCheckpointFails) {
  core::RrreTrainer trainer(TinyConfig());
  EXPECT_FALSE(trainer.Load("/definitely/not/there").ok());
}

TEST(TrainerPersistenceTest, LoadWithMismatchedConfigFails) {
  data::ReviewDataset corpus = TinyCorpus();
  core::RrreTrainer trainer(TinyConfig());
  trainer.Fit(corpus);
  const std::string prefix = ::testing::TempDir() + "/rrre_mismatch";
  ASSERT_TRUE(trainer.Save(prefix).ok());
  core::RrreConfig other = TinyConfig();
  other.rev_dim = 16;  // Different tower width -> shape mismatch.
  core::RrreTrainer restored(other);
  EXPECT_FALSE(restored.Load(prefix).ok());
  for (const char* suffix :
       {".model", ".vocab", ".train.tsv", ".meta", ".optimizer"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(TrainerPersistenceTest, LegacyScalarMetaLoadsButCannotResume) {
  // Checkpoints written before format v2 stored only the rating offset in
  // .meta and no .optimizer file. They must still load and predict, but
  // Resume must fail with a descriptive error instead of silently
  // restarting the optimizer from zeroed moments.
  data::ReviewDataset corpus = TinyCorpus();
  core::RrreTrainer trainer(TinyConfig());
  trainer.Fit(corpus);
  const std::string prefix = ::testing::TempDir() + "/rrre_legacy";
  ASSERT_TRUE(trainer.Save(prefix).ok());
  // Rewrite .meta in the legacy single-number format and drop .optimizer.
  {
    FILE* f = std::fopen((prefix + ".meta").c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "%.17g\n", trainer.rating_offset());
    std::fclose(f);
  }
  std::remove((prefix + ".optimizer").c_str());

  core::RrreTrainer restored(TinyConfig());
  ASSERT_TRUE(restored.Load(prefix).ok());
  EXPECT_TRUE(restored.fitted());
  EXPECT_NEAR(restored.rating_offset(), trainer.rating_offset(), 1e-12);
  auto status = restored.Resume();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("optimizer"), std::string::npos)
      << status.ToString();
  for (const char* suffix : {".model", ".vocab", ".train.tsv", ".meta"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(TrainerPersistenceTest, ResumeWithoutLoadFails) {
  core::RrreTrainer trainer(TinyConfig());
  EXPECT_FALSE(trainer.Resume().ok());
}

TEST(TrainerPersistenceTest, SaveCapturesEpochCounter) {
  data::ReviewDataset corpus = TinyCorpus();
  core::RrreTrainer trainer(TinyConfig());  // epochs = 2
  trainer.Fit(corpus);
  EXPECT_EQ(trainer.epochs_completed(), 2);
  const std::string prefix = ::testing::TempDir() + "/rrre_epochs";
  ASSERT_TRUE(trainer.Save(prefix).ok());
  core::RrreTrainer restored(TinyConfig());
  ASSERT_TRUE(restored.Load(prefix).ok());
  EXPECT_EQ(restored.epochs_completed(), 2);
  for (const char* suffix :
       {".model", ".vocab", ".train.tsv", ".meta", ".optimizer"}) {
    std::remove((prefix + suffix).c_str());
  }
}

// Saves a TinyConfig checkpoint at `prefix`.
void SaveTinyCheckpoint(const std::string& prefix) {
  core::RrreTrainer trainer(TinyConfig());
  trainer.Fit(TinyCorpus());
  ASSERT_TRUE(trainer.Save(prefix).ok());
}

void RemoveCheckpoint(const std::string& prefix) {
  for (const std::string& suffix :
       core::RrreTrainer::CheckpointSuffixes(/*with_optimizer=*/true)) {
    std::remove((prefix + suffix).c_str());
  }
}

/// Rewrites <prefix>.meta line by line through `edit`; an empty result drops
/// the line.
template <typename Edit>
void RewriteMeta(const std::string& prefix, Edit edit) {
  auto meta = common::ReadFile(prefix + ".meta");
  ASSERT_TRUE(meta.ok());
  std::string out;
  for (const std::string& line : common::Split(meta.value(), '\n')) {
    const std::string edited = line.empty() ? line : edit(line);
    if (!edited.empty()) out += edited + "\n";
  }
  ASSERT_TRUE(common::WriteFile(prefix + ".meta", out).ok());
}

TEST(TrainerPersistenceTest, LoadRefusesAnotherHistoryShape) {
  const std::string prefix = ::testing::TempDir() + "/rrre_shape";
  SaveTinyCheckpoint(prefix);
  const struct {
    const char* field;
    int64_t core::RrreConfig::*member;
  } kFields[] = {{"s_u", &core::RrreConfig::s_u},
                 {"s_i", &core::RrreConfig::s_i},
                 {"max_tokens", &core::RrreConfig::max_tokens}};
  for (const auto& f : kFields) {
    core::RrreConfig other = TinyConfig();
    other.*f.member += 1;
    core::RrreTrainer restored(other);
    const common::Status status = restored.Load(prefix);
    EXPECT_EQ(status.code(), common::StatusCode::kFailedPrecondition)
        << f.field << ": " << status.ToString();
    EXPECT_NE(status.message().find(f.field), std::string::npos)
        << status.ToString();
    EXPECT_FALSE(restored.fitted()) << f.field;
  }
  core::RrreTrainer same(TinyConfig());
  EXPECT_TRUE(same.Load(prefix).ok());
  RemoveCheckpoint(prefix);
}

TEST(TrainerPersistenceTest, MetaWithoutHistoryShapeLoadsUnchecked) {
  // A .meta written before the history shape was recorded loads under any
  // shape, as it always did.
  const std::string prefix = ::testing::TempDir() + "/rrre_shape_legacy";
  SaveTinyCheckpoint(prefix);
  RewriteMeta(prefix, [](const std::string& line) {
    const bool shape = common::StartsWith(line, "s_u=") ||
                       common::StartsWith(line, "s_i=") ||
                       common::StartsWith(line, "max_tokens=");
    return shape ? std::string() : line;
  });
  core::RrreConfig other = TinyConfig();
  other.s_u += 1;
  other.s_i += 1;
  other.max_tokens += 1;
  core::RrreTrainer restored(other);
  EXPECT_TRUE(restored.Load(prefix).ok());
  RemoveCheckpoint(prefix);
}

TEST(TrainerPersistenceTest, MalformedHistoryShapeIsRefused) {
  const std::string prefix = ::testing::TempDir() + "/rrre_shape_bad";
  SaveTinyCheckpoint(prefix);
  for (const std::string bad :
       {"s_u=3x", "s_u=-3", "s_u= 3", "s_u=+3", "s_u="}) {
    RewriteMeta(prefix, [&](const std::string& line) {
      return common::StartsWith(line, "s_u=") ? bad : line;
    });
    core::RrreTrainer restored(TinyConfig());
    const common::Status status = restored.Load(prefix);
    EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument)
        << bad << ": " << status.ToString();
  }
  RemoveCheckpoint(prefix);
}

// ---------------------------------------------------------------------------
// Semi-supervised self-training
// ---------------------------------------------------------------------------

TEST(SemiSupervisedTest, FitRunsAndRecordsRounds) {
  Rng rng(13);
  data::ReviewDataset corpus = TinyCorpus(21);
  auto [labeled, unlabeled] = corpus.Split(0.5, rng);

  core::SemiSupervisedConfig config;
  config.base = TinyConfig();
  config.rounds = 2;
  config.confidence = 0.8;
  core::SemiSupervisedRrre model(config);
  model.Fit(labeled, unlabeled);

  ASSERT_EQ(model.round_stats().size(), 3u);  // warm-up + 2 rounds.
  for (size_t r = 1; r < model.round_stats().size(); ++r) {
    const auto& s = model.round_stats()[r];
    EXPECT_EQ(s.round, static_cast<int64_t>(r));
    EXPECT_GE(s.pseudo_benign, 0);
    EXPECT_GE(s.pseudo_fake, 0);
    EXPECT_LE(s.pseudo_benign + s.pseudo_fake, unlabeled.size());
  }
  EXPECT_TRUE(model.trainer().fitted());
}

TEST(SemiSupervisedTest, PseudoLabelsMostlyCorrectOnConfidentPool) {
  // With a decently trained base model, adopted pseudo-labels should agree
  // with the hidden ground truth far better than the base rate.
  Rng rng(17);
  Rng gen_rng(29);
  data::ReviewDataset corpus = data::GenerateSyntheticDataset(
      data::YelpChiProfile(0.12), gen_rng);
  auto [labeled, unlabeled] = corpus.Split(0.6, rng);

  core::SemiSupervisedConfig config;
  config.base = TinyConfig();
  config.base.epochs = 4;
  config.rounds = 1;
  config.confidence = 0.95;
  core::SemiSupervisedRrre model(config);
  model.Fit(labeled, unlabeled);

  // Re-derive the adopted pseudo-labels and compare with hidden labels.
  core::RrreTrainer reference(config.base);
  reference.Fit(labeled);
  auto preds = reference.PredictDatasetTransductive(unlabeled);
  int64_t adopted = 0;
  int64_t correct = 0;
  for (int64_t i = 0; i < unlabeled.size(); ++i) {
    const double p = preds.reliabilities[static_cast<size_t>(i)];
    if (p >= config.confidence) {
      ++adopted;
      correct += unlabeled.review(i).is_benign() ? 1 : 0;
    } else if (p <= 1.0 - config.confidence) {
      ++adopted;
      correct += unlabeled.review(i).is_benign() ? 0 : 1;
    }
  }
  ASSERT_GT(adopted, 20);
  EXPECT_GT(static_cast<double>(correct) / adopted, 0.85);
}

TEST(SemiSupervisedTest, ZeroRoundsEqualsSupervised) {
  Rng rng(19);
  data::ReviewDataset corpus = TinyCorpus(33);
  auto [labeled, unlabeled] = corpus.Split(0.5, rng);

  core::SemiSupervisedConfig config;
  config.base = TinyConfig();
  config.rounds = 0;
  core::SemiSupervisedRrre ss(config);
  ss.Fit(labeled, unlabeled);
  core::RrreTrainer supervised(TinyConfig());
  supervised.Fit(labeled);

  std::vector<std::pair<int64_t, int64_t>> pairs;
  for (int64_t i = 0; i < std::min<int64_t>(unlabeled.size(), 30); ++i) {
    pairs.emplace_back(unlabeled.review(i).user, unlabeled.review(i).item);
  }
  auto a = ss.trainer().PredictPairs(pairs);
  auto b = supervised.PredictPairs(pairs);
  EXPECT_EQ(a.reliabilities, b.reliabilities);
}

}  // namespace
}  // namespace rrre
