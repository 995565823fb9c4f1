// Tests of the dynamic micro-batching scheduler behind rrre_served:
// correctness against the reference BatchScorer, admission control /
// overload behavior, graceful stop, and hot checkpoint reload under
// concurrent load. This suite runs under ThreadSanitizer in tools/check.sh.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/scorer.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "serve/batcher.h"

namespace rrre::serve {
namespace {

using common::Rng;
using common::Status;

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

/// Collects asynchronous batcher completions with a bounded wait.
class Completions {
 public:
  void Add(size_t index, const Status& status,
           std::vector<MicroBatcher::ScoredPair> results) {
    std::lock_guard<std::mutex> lock(mu_);
    if (index >= slots_.size()) slots_.resize(index + 1);
    slots_[index].done = true;
    slots_[index].status = status;
    slots_[index].results = std::move(results);
    ++done_;
    cv_.notify_all();
  }

  /// True when `n` completions arrived within the deadline.
  bool WaitFor(int64_t n, int seconds = 30) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(seconds),
                        [&] { return done_ >= n; });
  }

  struct Slot {
    bool done = false;
    Status status = Status::Ok();
    std::vector<MicroBatcher::ScoredPair> results;
  };

  Slot slot(size_t index) {
    std::lock_guard<std::mutex> lock(mu_);
    return slots_.at(index);
  }

  int64_t done() {
    std::lock_guard<std::mutex> lock(mu_);
    return done_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Slot> slots_;
  int64_t done_ = 0;
};

/// One fitted + checkpointed trainer shared by the suite; each test loads
/// its own trainer instance from the checkpoint (fitting is the expensive
/// part).
class MicroBatcherTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(27);
    corpus_ = new data::ReviewDataset(
        data::GenerateSyntheticDataset(data::YelpChiProfile(0.05), rng));
    auto trainer = std::make_unique<core::RrreTrainer>(TinyConfig());
    trainer->Fit(*corpus_);
    // ctest runs every test as its own process, concurrently: the fixture
    // paths must be per-process or parallel tests race on the checkpoint.
    prefix_ = new std::string(::testing::TempDir() + "/batcher_ckpt_" +
                              std::to_string(::getpid()));
    ASSERT_TRUE(trainer->Save(*prefix_).ok());
    reference_trainer_ = trainer.release();
    reference_scorer_ = new core::BatchScorer(reference_trainer_);
  }

  static void TearDownTestSuite() {
    for (const char* suffix :
         {".model", ".vocab", ".train.tsv", ".meta", ".optimizer"}) {
      std::remove((*prefix_ + suffix).c_str());
    }
    delete reference_scorer_;
    delete reference_trainer_;
    delete corpus_;
    delete prefix_;
    reference_scorer_ = nullptr;
    reference_trainer_ = nullptr;
    corpus_ = nullptr;
    prefix_ = nullptr;
  }

  static std::unique_ptr<core::RrreTrainer> LoadTrainer() {
    auto trainer = std::make_unique<core::RrreTrainer>(TinyConfig());
    RRRE_CHECK_OK(trainer->Load(*prefix_));
    return trainer;
  }

  static data::ReviewDataset* corpus_;
  static core::RrreTrainer* reference_trainer_;
  static core::BatchScorer* reference_scorer_;
  static std::string* prefix_;
};

data::ReviewDataset* MicroBatcherTest::corpus_ = nullptr;
core::RrreTrainer* MicroBatcherTest::reference_trainer_ = nullptr;
core::BatchScorer* MicroBatcherTest::reference_scorer_ = nullptr;
std::string* MicroBatcherTest::prefix_ = nullptr;

TEST_F(MicroBatcherTest, ScoresMatchReferenceScorer) {
  MicroBatcher::Options options;
  options.max_batch = 16;
  options.max_delay_us = 500;
  MicroBatcher batcher(LoadTrainer(), options);

  std::vector<std::pair<int64_t, int64_t>> pairs;
  for (int64_t i = 0; i < 40; ++i) {
    pairs.emplace_back(i % corpus_->num_users(), (i * 3) % corpus_->num_items());
  }
  Completions completions;
  for (size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_TRUE(batcher.TrySubmit(
        pairs[i].first, pairs[i].second,
        [&completions, i](const Status& status,
                          const std::vector<MicroBatcher::ScoredPair>& r) {
          completions.Add(i, status, r);
        }));
  }
  ASSERT_TRUE(completions.WaitFor(static_cast<int64_t>(pairs.size())));

  // A trainer loaded from the same checkpoint must score identically — the
  // batcher is a scheduler, not a different model.
  const auto reference = reference_scorer_->Score(pairs);
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto slot = completions.slot(i);
    ASSERT_TRUE(slot.status.ok()) << slot.status.ToString();
    ASSERT_EQ(slot.results.size(), 1u);
    EXPECT_EQ(slot.results[0].user, pairs[i].first);
    EXPECT_EQ(slot.results[0].item, pairs[i].second);
    EXPECT_DOUBLE_EQ(slot.results[0].rating, reference.ratings[i]) << i;
    EXPECT_DOUBLE_EQ(slot.results[0].reliability, reference.reliabilities[i])
        << i;
  }

  const MicroBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.submitted, 40);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.pairs_scored, 40);
  EXPECT_GE(stats.batches, 1);
  EXPECT_EQ(stats.batch_pairs.count(), stats.batches);
  EXPECT_EQ(stats.batch_latency_us.count(), stats.batches);
}

TEST_F(MicroBatcherTest, ConcurrentSubmittersAllComplete) {
  MicroBatcher::Options options;
  options.max_batch = 8;
  options.max_delay_us = 200;
  MicroBatcher batcher(LoadTrainer(), options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 30;
  Completions completions;
  std::vector<std::pair<int64_t, int64_t>> pairs(kThreads * kPerThread);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int n = 0; n < kPerThread; ++n) {
        const size_t index = static_cast<size_t>(t * kPerThread + n);
        const int64_t user = (t * 7 + n) % corpus_->num_users();
        const int64_t item = (t * 11 + n * 3) % corpus_->num_items();
        pairs[index] = {user, item};
        ASSERT_TRUE(batcher.TrySubmit(
            user, item,
            [&completions, index](
                const Status& status,
                const std::vector<MicroBatcher::ScoredPair>& r) {
              completions.Add(index, status, r);
            }));
      }
    });
  }
  for (auto& t : submitters) t.join();
  ASSERT_TRUE(completions.WaitFor(kThreads * kPerThread));

  const auto reference = reference_scorer_->Score(pairs);
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto slot = completions.slot(i);
    ASSERT_TRUE(slot.status.ok());
    ASSERT_EQ(slot.results.size(), 1u);
    EXPECT_DOUBLE_EQ(slot.results[0].rating, reference.ratings[i]) << i;
    EXPECT_DOUBLE_EQ(slot.results[0].reliability, reference.reliabilities[i])
        << i;
  }
  EXPECT_EQ(batcher.stats().pairs_scored, kThreads * kPerThread);
}

TEST_F(MicroBatcherTest, CatalogRequestExpandsAllItemsInOrder) {
  MicroBatcher batcher(LoadTrainer(), MicroBatcher::Options{});
  Completions completions;
  ASSERT_TRUE(batcher.TrySubmit(
      3, MicroBatcher::kCatalogItem,
      [&completions](const Status& status,
                     const std::vector<MicroBatcher::ScoredPair>& r) {
        completions.Add(0, status, r);
      }));
  ASSERT_TRUE(completions.WaitFor(1));
  const auto slot = completions.slot(0);
  ASSERT_TRUE(slot.status.ok());
  ASSERT_EQ(static_cast<int64_t>(slot.results.size()), corpus_->num_items());
  const auto reference = reference_scorer_->ScoreAllItemsForUser(3);
  for (size_t i = 0; i < slot.results.size(); ++i) {
    EXPECT_EQ(slot.results[i].user, 3);
    EXPECT_EQ(slot.results[i].item, static_cast<int64_t>(i));
    EXPECT_DOUBLE_EQ(slot.results[i].rating, reference.ratings[i]);
    EXPECT_DOUBLE_EQ(slot.results[i].reliability, reference.reliabilities[i]);
  }
}

TEST_F(MicroBatcherTest, AdmissionControlRejectsWhenQueueFull) {
  MicroBatcher::Options options;
  options.queue_capacity = 4;
  options.start_paused = true;  // Deterministic: nothing drains the queue.
  MicroBatcher batcher(LoadTrainer(), options);

  Completions completions;
  auto submit = [&](size_t index) {
    return batcher.TrySubmit(
        0, 0,
        [&completions, index](const Status& status,
                              const std::vector<MicroBatcher::ScoredPair>& r) {
          completions.Add(index, status, r);
        });
  };
  for (size_t i = 0; i < 4; ++i) EXPECT_TRUE(submit(i)) << i;
  EXPECT_FALSE(submit(4));  // Queue full: reject, never block.
  EXPECT_FALSE(submit(5));
  EXPECT_EQ(batcher.stats().rejected, 2);
  EXPECT_EQ(completions.done(), 0);  // Nothing executed while paused.

  batcher.Resume();
  ASSERT_TRUE(completions.WaitFor(4));
  for (size_t i = 0; i < 4; ++i) EXPECT_TRUE(completions.slot(i).status.ok());
  EXPECT_EQ(batcher.stats().pairs_scored, 4);
}

TEST_F(MicroBatcherTest, StopDrainsAdmittedRequestsEvenWhenPaused) {
  MicroBatcher::Options options;
  options.start_paused = true;
  MicroBatcher batcher(LoadTrainer(), options);
  Completions completions;
  for (size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(batcher.TrySubmit(
        static_cast<int64_t>(i), 1,
        [&completions, i](const Status& status,
                          const std::vector<MicroBatcher::ScoredPair>& r) {
          completions.Add(i, status, r);
        }));
  }
  batcher.Stop();  // Overrides the pause and drains before joining.
  EXPECT_EQ(completions.done(), 6);
  for (size_t i = 0; i < 6; ++i) EXPECT_TRUE(completions.slot(i).status.ok());
  // After Stop, admission is closed.
  EXPECT_FALSE(batcher.TrySubmit(0, 0, nullptr));
}

TEST_F(MicroBatcherTest, OutOfRangeIdsFailCleanlyAtExecution) {
  MicroBatcher batcher(LoadTrainer(), MicroBatcher::Options{});
  Completions completions;
  ASSERT_TRUE(batcher.TrySubmit(
      corpus_->num_users() + 100, 0,
      [&completions](const Status& status,
                     const std::vector<MicroBatcher::ScoredPair>& r) {
        completions.Add(0, status, r);
      }));
  ASSERT_TRUE(completions.WaitFor(1));
  const auto slot = completions.slot(0);
  EXPECT_FALSE(slot.status.ok());
  EXPECT_EQ(slot.status.code(), common::StatusCode::kOutOfRange);
  EXPECT_TRUE(slot.results.empty());
}

TEST_F(MicroBatcherTest, ReloadSwapsSnapshotAndBumpsGeneration) {
  MicroBatcher batcher(LoadTrainer(), MicroBatcher::Options{});
  EXPECT_EQ(batcher.generation(), 0);
  const int64_t version_before = batcher.params_version();

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status reload_status = Status::Ok();
  int64_t generation = -2;
  batcher.RequestReload(*prefix_, [&](const Status& s, int64_t g) {
    std::lock_guard<std::mutex> lock(mu);
    reload_status = s;
    generation = g;
    done = true;
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30), [&] { return done; }));
  }
  EXPECT_TRUE(reload_status.ok()) << reload_status.ToString();
  EXPECT_EQ(generation, 1);
  EXPECT_EQ(batcher.generation(), 1);
  EXPECT_EQ(batcher.stats().reloads, 1);
  // Same checkpoint loaded into a fresh trainer: same params_version value
  // (one Load bump) and identical scores.
  EXPECT_EQ(batcher.params_version(), version_before);

  Completions completions;
  ASSERT_TRUE(batcher.TrySubmit(
      1, 2,
      [&completions](const Status& status,
                     const std::vector<MicroBatcher::ScoredPair>& r) {
        completions.Add(0, status, r);
      }));
  ASSERT_TRUE(completions.WaitFor(1));
  const auto reference = reference_scorer_->Score({{1, 2}});
  EXPECT_DOUBLE_EQ(completions.slot(0).results[0].rating,
                   reference.ratings[0]);
}

TEST_F(MicroBatcherTest, ReloadOntoASecondCheckpointServesItsScores) {
  // A reload onto different parameters must serve them: a reload that kept
  // computing the snapshot's store from the old trainer would still answer
  // A's scores here.
  Rng rng_b(99);
  const data::ReviewDataset corpus_b =
      data::GenerateSyntheticDataset(data::YelpChiProfile(0.05), rng_b);
  core::RrreTrainer trainer_b(TinyConfig());
  trainer_b.Fit(corpus_b);
  const std::string prefix_b = ::testing::TempDir() + "/batcher_ckpt_b_" +
                               std::to_string(::getpid());
  ASSERT_TRUE(trainer_b.Save(prefix_b).ok());
  core::RrreTrainer loaded_b(TinyConfig());
  ASSERT_TRUE(loaded_b.Load(prefix_b).ok());
  core::BatchScorer scorer_b(&loaded_b);

  MicroBatcher batcher(LoadTrainer(), MicroBatcher::Options{});
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status reload_status = Status::Ok();
  batcher.RequestReload(prefix_b, [&](const Status& s, int64_t) {
    std::lock_guard<std::mutex> lock(mu);
    reload_status = s;
    done = true;
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(
        cv.wait_for(lock, std::chrono::seconds(30), [&] { return done; }));
  }
  ASSERT_TRUE(reload_status.ok()) << reload_status.ToString();
  EXPECT_EQ(batcher.generation(), 1);

  Completions completions;
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(batcher.TrySubmit(
        3, i == 0 ? 2 : MicroBatcher::kCatalogItem,
        [&completions, i](const Status& status,
                          const std::vector<MicroBatcher::ScoredPair>& r) {
          completions.Add(i, status, r);
        }));
  }
  ASSERT_TRUE(completions.WaitFor(2));
  const auto pair = completions.slot(0);
  ASSERT_TRUE(pair.status.ok()) << pair.status.ToString();
  ASSERT_EQ(pair.results.size(), 1u);
  const auto pair_b = scorer_b.Score({{3, 2}});
  const auto pair_a = reference_scorer_->Score({{3, 2}});
  EXPECT_EQ(pair.results[0].rating, pair_b.ratings[0]);
  EXPECT_EQ(pair.results[0].reliability, pair_b.reliabilities[0]);
  EXPECT_NE(pair.results[0].rating, pair_a.ratings[0]);

  const auto catalog = completions.slot(1);
  ASSERT_TRUE(catalog.status.ok()) << catalog.status.ToString();
  const auto catalog_b = scorer_b.ScoreAllItemsForUser(3);
  const auto catalog_a = reference_scorer_->ScoreAllItemsForUser(3);
  ASSERT_EQ(catalog.results.size(), catalog_b.ratings.size());
  bool differs_from_a = false;
  for (size_t i = 0; i < catalog.results.size(); ++i) {
    EXPECT_EQ(catalog.results[i].item, static_cast<int64_t>(i));
    EXPECT_EQ(catalog.results[i].rating, catalog_b.ratings[i]) << i;
    EXPECT_EQ(catalog.results[i].reliability, catalog_b.reliabilities[i]) << i;
    differs_from_a |= catalog.results[i].rating != catalog_a.ratings[i];
  }
  EXPECT_TRUE(differs_from_a);
  for (const char* suffix :
       {".model", ".vocab", ".train.tsv", ".meta", ".optimizer"}) {
    std::remove((prefix_b + suffix).c_str());
  }
}

TEST_F(MicroBatcherTest, FailedReloadKeepsServingOldSnapshot) {
  MicroBatcher batcher(LoadTrainer(), MicroBatcher::Options{});
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status reload_status = Status::Ok();
  batcher.RequestReload(::testing::TempDir() + "/no_such_checkpoint",
                        [&](const Status& s, int64_t) {
                          std::lock_guard<std::mutex> lock(mu);
                          reload_status = s;
                          done = true;
                          cv.notify_all();
                        });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30), [&] { return done; }));
  }
  EXPECT_FALSE(reload_status.ok());
  EXPECT_EQ(batcher.generation(), 0);
  EXPECT_EQ(batcher.stats().reloads, 0);

  // The old snapshot still serves, bit-for-bit.
  Completions completions;
  ASSERT_TRUE(batcher.TrySubmit(
      2, 3,
      [&completions](const Status& status,
                     const std::vector<MicroBatcher::ScoredPair>& r) {
        completions.Add(0, status, r);
      }));
  ASSERT_TRUE(completions.WaitFor(1));
  ASSERT_TRUE(completions.slot(0).status.ok());
  const auto reference = reference_scorer_->Score({{2, 3}});
  EXPECT_DOUBLE_EQ(completions.slot(0).results[0].rating,
                   reference.ratings[0]);
}

TEST_F(MicroBatcherTest, HotReloadUnderConcurrentLoadIsSafe) {
  // The acceptance-criteria stress: submitters hammer the queue while
  // reloads swap the snapshot. The batcher CHECKs that no batch ever mixes
  // parameter versions, so a violation aborts the test hard. All admitted
  // requests must still complete (same checkpoint -> identical scores).
  MicroBatcher::Options options;
  options.max_batch = 8;
  options.max_delay_us = 100;
  MicroBatcher batcher(LoadTrainer(), options);

  constexpr int kThreads = 3;
  constexpr int kPerThread = 25;
  Completions completions;
  std::atomic<int64_t> accepted{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int n = 0; n < kPerThread; ++n) {
        const size_t index = static_cast<size_t>(t * kPerThread + n);
        if (batcher.TrySubmit(
                (t + n) % corpus_->num_users(), n % corpus_->num_items(),
                [&completions, index](
                    const Status& status,
                    const std::vector<MicroBatcher::ScoredPair>& r) {
                  completions.Add(index, status, r);
                })) {
          accepted.fetch_add(1);
        }
        if (n % 8 == 0) std::this_thread::yield();
      }
    });
  }
  std::atomic<int64_t> reloads_done{0};
  std::thread reloader([&] {
    for (int r = 0; r < 3; ++r) {
      batcher.RequestReload(*prefix_, [&](const Status& s, int64_t) {
        EXPECT_TRUE(s.ok()) << s.ToString();
        reloads_done.fetch_add(1);
      });
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  for (auto& t : submitters) t.join();
  reloader.join();
  batcher.Drain();
  batcher.Stop();
  EXPECT_EQ(completions.done(), accepted.load());
  EXPECT_EQ(batcher.generation(), 3);
  EXPECT_EQ(reloads_done.load(), 3);
  // Spot-check correctness across the reload boundary: every completed
  // request scored exactly as the reference (the checkpoint never changed).
  for (int t = 0; t < kThreads; ++t) {
    const size_t index = static_cast<size_t>(t * kPerThread);
    const auto slot = completions.slot(index);
    if (!slot.done || !slot.status.ok()) continue;
    const auto reference = reference_scorer_->Score(
        {{(t + 0) % corpus_->num_users(), 0 % corpus_->num_items()}});
    EXPECT_DOUBLE_EQ(slot.results[0].rating, reference.ratings[0]);
  }
}

}  // namespace
}  // namespace rrre::serve
