// Tests for the adversarial fraud arena (src/data/adversary.h) and the
// streaming retrain loop (src/stream): partition determinism across
// regeneration, generation order and thread counts; the per-tier evasion
// properties each escalation is supposed to exhibit; the versioned publish
// layout's crash-safety; kill-then-resume bitwise identity of the driver;
// live hot-reload convergence; and a seeded fault-injection soak
// (StreamFaultsTest, run in the check.sh failpoint leg) proving the daemon
// loop survives injected publish/reload faults on the old snapshot.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/io.h"
#include "common/socket.h"
#include "common/strings.h"
#include "common/threadpool.h"
#include "core/tower_store.h"
#include "core/trainer.h"
#include "data/adversary.h"
#include "data/profiles.h"
#include "data/wordbanks.h"
#include "serve/router.h"
#include "serve/server.h"
#include "stream/detection.h"
#include "stream/driver.h"
#include "stream/publish.h"

namespace rrre {
namespace {

using data::AdversaryConfig;
using data::AdversaryModel;
using data::AdversaryTier;
using data::ReviewDataset;

// ---------------------------------------------------------------------------
// Helpers

AdversaryConfig TinyArenaConfig() {
  AdversaryConfig config;
  config.profile = data::YelpChiProfile(0.02);
  config.days_per_partition = 250;  // 3 partitions over the 730-day horizon.
  config.schedule = {{0, AdversaryTier::kStatic},
                     {250, AdversaryTier::kParaphrase},
                     {500, AdversaryTier::kCamouflage}};
  config.seed = 42;
  return config;
}

core::RrreConfig TinyTrainerConfig() {
  core::RrreConfig config;
  config.word_dim = 4;
  config.rev_dim = 8;
  config.id_dim = 4;
  config.attention_dim = 4;
  config.fm_factors = 2;
  config.max_tokens = 4;
  config.s_u = 2;
  config.s_i = 2;
  config.epochs = 1;
  config.batch_size = 16;
  config.pretrain_word_vectors = false;
  config.vocab_min_count = 1;
  return config;
}

void ExpectSameReviews(const ReviewDataset& a, const ReviewDataset& b) {
  ASSERT_EQ(a.size(), b.size());
  for (int64_t i = 0; i < a.size(); ++i) {
    const data::Review& ra = a.review(i);
    const data::Review& rb = b.review(i);
    ASSERT_EQ(ra.user, rb.user) << "review " << i;
    ASSERT_EQ(ra.item, rb.item) << "review " << i;
    ASSERT_EQ(ra.rating, rb.rating) << "review " << i;
    ASSERT_EQ(ra.label, rb.label) << "review " << i;
    ASSERT_EQ(ra.timestamp, rb.timestamp) << "review " << i;
    ASSERT_EQ(ra.text, rb.text) << "review " << i;
  }
}

/// The distinctly spammy register: generic superlatives and smear words the
/// static campaigns use and the paraphrase tier must avoid.
std::unordered_set<std::string> SpamRegister() {
  std::unordered_set<std::string> words;
  for (std::string_view w : data::wordbanks::SpamPromote()) {
    words.emplace(w);
  }
  for (std::string_view w : data::wordbanks::SpamDemote()) {
    words.emplace(w);
  }
  return words;
}

/// The live params version of a server, scraped the way the router's health
/// checker and the driver's reload barrier do: the STATS fingerprint= token.
uint64_t ScrapeFingerprint(uint16_t port) {
  auto socket = common::Socket::Connect("127.0.0.1", port);
  EXPECT_TRUE(socket.ok());
  EXPECT_TRUE(socket.value().SendAll("STATS\n").ok());
  common::LineReader reader(&socket.value());
  auto line = reader.ReadLine();
  EXPECT_TRUE(line.ok() && line.value().has_value());
  for (const std::string& token : common::Split(*line.value(), '\t')) {
    if (common::StartsWith(token, "fingerprint=")) {
      return std::strtoull(token.c_str() + sizeof("fingerprint=") - 1,
                           nullptr, 10);
    }
  }
  ADD_FAILURE() << "no fingerprint in STATS: " << *line.value();
  return 0;
}

std::string TempRoot(const std::string& tag) {
  const std::string root =
      "/tmp/rrre_test_stream_" + tag + "_" + std::to_string(::getpid());
  std::system(("rm -rf " + root).c_str());
  return root;
}

// ---------------------------------------------------------------------------
// Arena determinism

TEST(ArenaTest, RegenerationIsDeterministic) {
  const AdversaryModel a(TinyArenaConfig());
  const AdversaryModel b(TinyArenaConfig());
  ASSERT_EQ(a.num_partitions(), 3);
  for (int64_t k = 0; k < a.num_partitions(); ++k) {
    ExpectSameReviews(a.Partition(k), b.Partition(k));
    ExpectSameReviews(a.EvalSlice(k), b.EvalSlice(k));
  }
}

TEST(ArenaTest, GenerationOrderDoesNotMatter) {
  const AdversaryModel model(TinyArenaConfig());
  // Generate out of order, with eval slices interleaved, then regenerate in
  // order: the keyed forks must make every slice order-independent.
  const ReviewDataset p2 = model.Partition(2);
  const ReviewDataset e1 = model.EvalSlice(1);
  const ReviewDataset p0 = model.Partition(0);
  ExpectSameReviews(p0, model.Partition(0));
  ExpectSameReviews(e1, model.EvalSlice(1));
  ExpectSameReviews(p2, model.Partition(2));
}

TEST(ArenaTest, ThreadCountDoesNotChangePartitions) {
  const int original = common::ThreadPool::GlobalSize();
  common::ThreadPool::SetGlobalSize(1);
  const AdversaryModel a(TinyArenaConfig());
  std::vector<ReviewDataset> at_one;
  for (int64_t k = 0; k < a.num_partitions(); ++k) {
    at_one.push_back(a.Partition(k));
  }
  common::ThreadPool::SetGlobalSize(4);
  const AdversaryModel b(TinyArenaConfig());
  for (int64_t k = 0; k < b.num_partitions(); ++k) {
    ExpectSameReviews(at_one[k], b.Partition(k));
  }
  common::ThreadPool::SetGlobalSize(original);
}

TEST(ArenaTest, CumulativeThroughConcatenatesPartitions) {
  const AdversaryModel model(TinyArenaConfig());
  const ReviewDataset cumulative = model.CumulativeThrough(2);
  int64_t offset = 0;
  for (int64_t k = 0; k <= 2; ++k) {
    const ReviewDataset part = model.Partition(k);
    for (int64_t i = 0; i < part.size(); ++i) {
      const data::Review& expected = part.review(i);
      const data::Review& got = cumulative.review(offset + i);
      ASSERT_EQ(expected.user, got.user);
      ASSERT_EQ(expected.text, got.text);
      ASSERT_EQ(expected.timestamp, got.timestamp);
    }
    offset += part.size();
  }
  ASSERT_EQ(offset, cumulative.size());
  EXPECT_TRUE(cumulative.indexed());
}

TEST(ArenaTest, TierScheduleMapsToPartitions) {
  const AdversaryModel model(TinyArenaConfig());
  EXPECT_EQ(model.TierOfPartition(0), AdversaryTier::kStatic);
  EXPECT_EQ(model.TierOfPartition(1), AdversaryTier::kParaphrase);
  EXPECT_EQ(model.TierOfPartition(2), AdversaryTier::kCamouflage);
  EXPECT_EQ(model.TierOnDay(249), AdversaryTier::kStatic);
  EXPECT_EQ(model.TierOnDay(250), AdversaryTier::kParaphrase);
  EXPECT_EQ(model.TierOnDay(729), AdversaryTier::kCamouflage);
}

// ---------------------------------------------------------------------------
// Tier evasion properties (asserted on eval slices: noise-free labels)

TEST(ArenaTest, StaticTierUsesSpamRegister) {
  const AdversaryModel model(TinyArenaConfig());
  const std::unordered_set<std::string> spammy = SpamRegister();
  const ReviewDataset eval = model.EvalSlice(0);
  int64_t fakes = 0, with_register = 0;
  for (const data::Review& review : eval.reviews()) {
    if (review.is_benign()) continue;
    ++fakes;
    for (const std::string& token : common::Split(review.text, ' ')) {
      if (spammy.count(token) > 0) {
        ++with_register;
        break;
      }
    }
  }
  ASSERT_GT(fakes, 0);
  EXPECT_GT(with_register, 0)
      << "tier-0 campaigns should carry the spam register";
}

TEST(ArenaTest, ParaphraseTierAvoidsSpamRegister) {
  const AdversaryModel model(TinyArenaConfig());
  const std::unordered_set<std::string> spammy = SpamRegister();
  const ReviewDataset eval = model.EvalSlice(1);
  int64_t fakes = 0;
  for (const data::Review& review : eval.reviews()) {
    if (review.is_benign()) continue;
    ++fakes;
    for (const std::string& token : common::Split(review.text, ' ')) {
      EXPECT_EQ(spammy.count(token), 0u)
          << "paraphrased spam leaked register word \"" << token << "\"";
    }
  }
  ASSERT_GT(fakes, 0);
}

TEST(ArenaTest, CamouflageTierHugsItemMeansAndUsesRings) {
  const AdversaryModel model(TinyArenaConfig());
  const ReviewDataset tier0 = model.EvalSlice(0);
  const ReviewDataset tier2 = model.EvalSlice(2);
  auto mean_deviation = [&](const ReviewDataset& ds) {
    double sum = 0.0;
    int64_t n = 0;
    for (const data::Review& review : ds.reviews()) {
      if (review.is_benign()) continue;
      sum += std::abs(static_cast<double>(review.rating) -
                      model.ItemBenignMean(review.item));
      ++n;
    }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  };
  // Camouflaged ratings sit near the item's benign mean; static campaigns
  // use the extremes.
  EXPECT_LT(mean_deviation(tier2), mean_deviation(tier0));

  // Every camouflage-tier campaign author is a sockpuppet-ring fraudster.
  std::set<int64_t> ring_members;
  for (const std::vector<int64_t>& ring : model.rings()) {
    ring_members.insert(ring.begin(), ring.end());
  }
  int64_t fakes = 0;
  for (const data::Review& review : tier2.reviews()) {
    if (review.is_benign()) continue;
    ++fakes;
    EXPECT_TRUE(model.is_fraudster()[review.user]);
    EXPECT_EQ(ring_members.count(review.user), 1u);
  }
  ASSERT_GT(fakes, 0);
}

TEST(ArenaTest, CamouflageTierDripsAcrossTheWindow) {
  const AdversaryModel model(TinyArenaConfig());
  const ReviewDataset tier2 = model.Partition(2);
  int64_t lo = INT64_MAX, hi = INT64_MIN, fakes = 0;
  for (const data::Review& review : tier2.reviews()) {
    if (review.is_benign()) continue;
    ++fakes;
    lo = std::min(lo, review.timestamp);
    hi = std::max(hi, review.timestamp);
  }
  ASSERT_GT(fakes, 5);
  // The slow burn spreads campaign reviews across most of the partition
  // window (230 days here) instead of a burst.
  EXPECT_GT(hi - lo, 230 / 2);
}

// ---------------------------------------------------------------------------
// Detection-lag tracker

TEST(DetectionTest, ColdWaveRecoversAgainstAbsoluteTargets) {
  stream::DetectionLagTracker::Options options;
  options.cold_auc_target = 0.7;
  options.cold_brmse_target = 1.15;
  stream::DetectionLagTracker tracker(options);
  tracker.OnEpoch(0, 0, 0, 1.5, 0.55);
  tracker.OnEpoch(1, 0, 0, 1.2, 0.65);
  tracker.OnEpoch(2, 0, 0, 1.1, 0.75);  // Crosses both targets.
  ASSERT_EQ(tracker.waves().size(), 1u);
  const stream::WaveStat& wave = tracker.waves()[0];
  EXPECT_EQ(wave.lag_epochs, 3);
  EXPECT_EQ(wave.epochs_observed, 3);
  EXPECT_DOUBLE_EQ(wave.worst_auc, 0.55);
  EXPECT_DOUBLE_EQ(wave.worst_brmse, 1.5);
}

TEST(DetectionTest, TierChangeOpensWaveAgainstPreAttackBaseline) {
  stream::DetectionLagTracker::Options options;
  options.auc_slack = 0.98;
  options.brmse_slack = 1.05;
  stream::DetectionLagTracker tracker(options);
  tracker.OnEpoch(0, 0, 0, 1.0, 0.80);  // Cold wave, instantly recovered.
  tracker.OnEpoch(1, 0, 0, 0.9, 0.85);  // Pre-attack baseline.
  tracker.OnEpoch(2, 1, 1, 1.4, 0.50);  // Attack bites.
  tracker.OnEpoch(3, 1, 1, 1.1, 0.70);
  tracker.OnEpoch(4, 1, 1, 0.92, 0.84);  // Within slack of baseline.
  ASSERT_EQ(tracker.waves().size(), 2u);
  const stream::WaveStat& wave = tracker.waves()[1];
  EXPECT_EQ(wave.tier, 1);
  EXPECT_DOUBLE_EQ(wave.baseline_auc, 0.85);
  EXPECT_DOUBLE_EQ(wave.baseline_brmse, 0.9);
  EXPECT_NEAR(wave.target_auc, 0.98 * 0.85, 1e-12);
  EXPECT_NEAR(wave.target_brmse, 1.05 * 0.9, 1e-12);
  EXPECT_EQ(wave.start_epoch, 2);
  EXPECT_EQ(wave.lag_epochs, 3);  // Epochs 2, 3, 4.
  EXPECT_DOUBLE_EQ(wave.worst_auc, 0.50);
  EXPECT_DOUBLE_EQ(wave.worst_brmse, 1.4);
}

TEST(DetectionTest, UnrecoveredWaveReportsMinusOne) {
  stream::DetectionLagTracker tracker;
  tracker.OnEpoch(0, 0, 0, 1.0, 0.80);
  tracker.OnEpoch(1, 1, 1, 2.0, 0.40);
  tracker.OnEpoch(2, 1, 1, 1.9, 0.45);
  ASSERT_EQ(tracker.waves().size(), 2u);
  EXPECT_EQ(tracker.waves()[1].lag_epochs, -1);
  EXPECT_EQ(tracker.waves()[1].epochs_observed, 2);
}

// ---------------------------------------------------------------------------
// Publish layout

/// A generation dir holding a fake "checkpoint" (arbitrary bytes are fine:
/// the fingerprint is size+CRC of <prefix>.model, no parsing).
stream::Manifest WriteFakeGeneration(const std::string& root,
                                     int64_t generation) {
  const std::string dir = stream::GenerationDir(root, generation);
  EXPECT_TRUE(common::EnsureDir(dir).ok());
  stream::Manifest m;
  m.generation = generation;
  m.partition = generation;
  m.tier = 1;
  m.epochs_completed = generation + 1;
  m.checkpoint = "ckpt";
  m.files = {"ckpt.model", "ckpt.meta"};
  EXPECT_TRUE(common::AtomicWriteFile(
                  dir + "/ckpt.model",
                  "model-bytes-" + std::to_string(generation))
                  .ok());
  EXPECT_TRUE(common::AtomicWriteFile(dir + "/ckpt.meta", "meta").ok());
  auto fingerprint = core::CheckpointParamsFingerprint(dir + "/ckpt");
  EXPECT_TRUE(fingerprint.ok());
  m.params_fingerprint = fingerprint.value();
  return m;
}

TEST(PublishTest, ManifestRoundTrips) {
  const std::string root = TempRoot("manifest");
  const stream::Manifest written = WriteFakeGeneration(root, 0);
  const std::string dir = stream::GenerationDir(root, 0);
  ASSERT_TRUE(stream::WriteManifest(dir, written).ok());
  auto read = stream::ReadManifest(dir);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().generation, 0);
  EXPECT_EQ(read.value().partition, 0);
  EXPECT_EQ(read.value().tier, 1);
  EXPECT_EQ(read.value().epochs_completed, 1);
  EXPECT_EQ(read.value().params_fingerprint, written.params_fingerprint);
  EXPECT_EQ(read.value().checkpoint, "ckpt");
  EXPECT_EQ(read.value().store, "");
  EXPECT_EQ(read.value().files, written.files);
}

TEST(PublishTest, ReadManifestRejectsMissingArtifact) {
  const std::string root = TempRoot("missing");
  stream::Manifest m = WriteFakeGeneration(root, 0);
  m.files.push_back("ckpt.tower_store");  // Never written.
  const std::string dir = stream::GenerationDir(root, 0);
  ASSERT_TRUE(stream::WriteManifest(dir, m).ok());
  EXPECT_FALSE(stream::ReadManifest(dir).ok());
}

TEST(PublishTest, ReadManifestRejectsFingerprintMismatch) {
  const std::string root = TempRoot("fingerprint");
  stream::Manifest m = WriteFakeGeneration(root, 0);
  m.params_fingerprint ^= 0xdeadbeef;
  const std::string dir = stream::GenerationDir(root, 0);
  ASSERT_TRUE(stream::WriteManifest(dir, m).ok());
  EXPECT_FALSE(stream::ReadManifest(dir).ok());
}

TEST(PublishTest, LatestGenerationSkipsTornGenerations) {
  const std::string root = TempRoot("latest");
  EXPECT_FALSE(stream::LatestGeneration(root).ok());  // No root yet.
  ASSERT_TRUE(common::EnsureDir(root).ok());
  EXPECT_FALSE(stream::LatestGeneration(root).ok());  // Empty root.

  const stream::Manifest g0 = WriteFakeGeneration(root, 0);
  ASSERT_TRUE(
      stream::WriteManifest(stream::GenerationDir(root, 0), g0).ok());
  // Generation 1: artifacts but no manifest (crash before the commit point).
  WriteFakeGeneration(root, 1);
  // Generation 2: a torn manifest.
  WriteFakeGeneration(root, 2);
  ASSERT_TRUE(common::AtomicWriteFile(
                  stream::GenerationDir(root, 2) + "/MANIFEST", "format=1\ngar")
                  .ok());
  auto latest = stream::LatestGeneration(root);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest.value().first.generation, 0);
  EXPECT_EQ(latest.value().second, stream::GenerationDir(root, 0));
}

TEST(PublishTest, UpdateCurrentLinkSwapsAndSurvivesFaults) {
  const std::string root = TempRoot("link");
  ASSERT_TRUE(common::EnsureDir(root).ok());
  ASSERT_TRUE(stream::UpdateCurrentLink(root, 0).ok());
  char buf[256];
  ssize_t n = ::readlink((root + "/current").c_str(), buf, sizeof(buf) - 1);
  ASSERT_GT(n, 0);
  EXPECT_EQ(std::string(buf, n), "gen-000000");

  ASSERT_TRUE(stream::UpdateCurrentLink(root, 1).ok());
  n = ::readlink((root + "/current").c_str(), buf, sizeof(buf) - 1);
  ASSERT_GT(n, 0);
  EXPECT_EQ(std::string(buf, n), "gen-000001");

  // An injected rename fault must leave the previous link untouched.
  common::failpoint::Arm("publish.rename");
  EXPECT_FALSE(stream::UpdateCurrentLink(root, 2).ok());
  common::failpoint::DisarmAll();
  n = ::readlink((root + "/current").c_str(), buf, sizeof(buf) - 1);
  ASSERT_GT(n, 0);
  EXPECT_EQ(std::string(buf, n), "gen-000001");
}

TEST(PublishTest, WriteManifestFaultLeavesNoManifest) {
  const std::string root = TempRoot("wmfault");
  const stream::Manifest m = WriteFakeGeneration(root, 0);
  const std::string dir = stream::GenerationDir(root, 0);
  common::failpoint::Arm("manifest.rename");
  EXPECT_FALSE(stream::WriteManifest(dir, m).ok());
  common::failpoint::DisarmAll();
  struct stat st;
  EXPECT_NE(::stat((dir + "/MANIFEST").c_str(), &st), 0)
      << "a failed manifest commit must not leave a MANIFEST";
  // And the commit succeeds once the fault clears.
  ASSERT_TRUE(stream::WriteManifest(dir, m).ok());
  EXPECT_TRUE(stream::ReadManifest(dir).ok());
}

// ---------------------------------------------------------------------------
// Streaming driver

stream::StreamOptions TinyStreamOptions(const std::string& root) {
  stream::StreamOptions options;
  options.config = TinyTrainerConfig();
  options.epochs_per_partition = 1;
  options.publish_root = root;
  options.build_store = false;
  return options;
}

TEST(DriverTest, KillThenResumeIsBitwiseIdentical) {
  const AdversaryModel arena(TinyArenaConfig());
  // Uninterrupted reference stream.
  const std::string root_a = TempRoot("stream_a");
  {
    stream::StreamDriver driver(&arena, TinyStreamOptions(root_a));
    ASSERT_TRUE(driver.Recover().ok());
    while (!driver.Done()) ASSERT_TRUE(driver.Step(nullptr).ok());
  }
  // Killed after partition 1 (driver destroyed mid-stream), finished by a
  // fresh driver that recovers from the manifest.
  const std::string root_b = TempRoot("stream_b");
  {
    stream::StreamDriver driver(&arena, TinyStreamOptions(root_b));
    ASSERT_TRUE(driver.Recover().ok());
    ASSERT_TRUE(driver.Step(nullptr).ok());
    ASSERT_TRUE(driver.Step(nullptr).ok());
  }
  {
    stream::StreamDriver driver(&arena, TinyStreamOptions(root_b));
    ASSERT_TRUE(driver.Recover().ok());
    EXPECT_EQ(driver.next_partition(), 2);
    while (!driver.Done()) ASSERT_TRUE(driver.Step(nullptr).ok());
  }
  const int64_t last = arena.num_partitions() - 1;
  auto manifest =
      stream::ReadManifest(stream::GenerationDir(root_a, last));
  ASSERT_TRUE(manifest.ok());
  for (const std::string& rel : manifest.value().files) {
    auto a = common::ReadFile(stream::GenerationDir(root_a, last) + "/" + rel);
    auto b = common::ReadFile(stream::GenerationDir(root_b, last) + "/" + rel);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value(), b.value()) << rel << " diverged after kill+resume";
  }
}

TEST(DriverTest, RecoverRepairsTheCurrentSymlink) {
  const AdversaryModel arena(TinyArenaConfig());
  const std::string root = TempRoot("repair");
  {
    stream::StreamDriver driver(&arena, TinyStreamOptions(root));
    ASSERT_TRUE(driver.Recover().ok());
    ASSERT_TRUE(driver.Step(nullptr).ok());
  }
  ASSERT_EQ(::unlink((root + "/current").c_str()), 0);
  stream::StreamDriver driver(&arena, TinyStreamOptions(root));
  ASSERT_TRUE(driver.Recover().ok());
  char buf[256];
  const ssize_t n =
      ::readlink((root + "/current").c_str(), buf, sizeof(buf) - 1);
  ASSERT_GT(n, 0);
  EXPECT_EQ(std::string(buf, n), "gen-000000");
  EXPECT_EQ(driver.next_partition(), 1);
}

TEST(DriverTest, HotReloadConvergesALiveServer) {
  const AdversaryModel arena(TinyArenaConfig());
  const std::string root = TempRoot("reload");
  stream::StreamOptions options = TinyStreamOptions(root);
  options.build_store = true;
  {
    stream::StreamDriver bootstrap(&arena, options);
    ASSERT_TRUE(bootstrap.Recover().ok());
    ASSERT_TRUE(bootstrap.Step(nullptr).ok());
  }
  serve::ServerOptions server_options;
  server_options.config = options.config;
  server_options.model_prefix = stream::CurrentPath(root, "ckpt");
  server_options.store_path = stream::CurrentPath(root, "ckpt.tower_store");
  server_options.port = 0;
  auto server = serve::Server::Start(server_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  options.reload_endpoints = {{"127.0.0.1", server.value()->port()}};
  stream::StreamDriver driver(&arena, options);
  ASSERT_TRUE(driver.Recover().ok());
  EXPECT_EQ(driver.next_partition(), 1);
  int64_t rolls = 0;
  while (!driver.Done()) {
    stream::GenerationResult result;
    ASSERT_TRUE(driver.Step(&result).ok());
    EXPECT_TRUE(result.reloaded);
    ++rolls;
  }
  EXPECT_EQ(rolls, 2);
  const serve::ServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.batcher.reloads, 2);
  server.value()->Shutdown();
}

TEST(DriverTest, ReloadThatServesAnotherFingerprintFailsAtOnce) {
  // A server started on generation 0's own checkpoint path, not on the
  // `current` link: its RELOAD succeeds but reloads generation 0, so the
  // first STATS after the ack already shows the roll went wrong. Step must
  // fail then, naming both fingerprints and the quarantined count, not poll
  // until reload_timeout_ms.
  const AdversaryModel arena(TinyArenaConfig());
  const std::string root = TempRoot("wrong_fingerprint");
  stream::StreamOptions options = TinyStreamOptions(root);
  options.build_store = true;
  {
    stream::StreamDriver bootstrap(&arena, options);
    ASSERT_TRUE(bootstrap.Recover().ok());
    ASSERT_TRUE(bootstrap.Step(nullptr).ok());
  }
  serve::ServerOptions server_options;
  server_options.config = options.config;
  server_options.model_prefix = stream::GenerationDir(root, 0) + "/ckpt";
  server_options.store_path =
      stream::GenerationDir(root, 0) + "/ckpt.tower_store";
  server_options.port = 0;
  auto server = serve::Server::Start(server_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint64_t served = ScrapeFingerprint(server.value()->port());

  options.reload_endpoints = {{"127.0.0.1", server.value()->port()}};
  options.reload_timeout_ms = 30000;
  stream::StreamDriver driver(&arena, options);
  ASSERT_TRUE(driver.Recover().ok());
  const auto start = std::chrono::steady_clock::now();
  const common::Status status = driver.Step(nullptr);
  const auto waited = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(status.ok());
  EXPECT_LT(waited, std::chrono::milliseconds(options.reload_timeout_ms / 3))
      << "Step waited for the reload deadline";
  EXPECT_EQ(server.value()->stats().batcher.reloads, 1);
  auto published = core::CheckpointParamsFingerprint(
      stream::GenerationDir(root, 1) + "/ckpt");
  ASSERT_TRUE(published.ok());
  ASSERT_NE(published.value(), served);
  const std::string message = status.message();
  EXPECT_NE(message.find(std::to_string(served)), std::string::npos)
      << message;
  EXPECT_NE(message.find(std::to_string(published.value())),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("quarantined=0"), std::string::npos) << message;
  server.value()->Shutdown();
}

TEST(DriverTest, RouterMetricsExposeQuarantineGauge) {
  const AdversaryModel arena(TinyArenaConfig());
  const std::string root = TempRoot("metrics");
  stream::StreamOptions options = TinyStreamOptions(root);
  options.build_store = true;
  {
    stream::StreamDriver bootstrap(&arena, options);
    ASSERT_TRUE(bootstrap.Recover().ok());
    ASSERT_TRUE(bootstrap.Step(nullptr).ok());
  }
  serve::ServerOptions server_options;
  server_options.config = options.config;
  server_options.model_prefix = stream::CurrentPath(root, "ckpt");
  server_options.store_path = stream::CurrentPath(root, "ckpt.tower_store");
  server_options.port = 0;
  auto server = serve::Server::Start(server_options);
  ASSERT_TRUE(server.ok());
  serve::RouterOptions router_options;
  router_options.backends = {{"127.0.0.1", server.value()->port()}};
  auto router = serve::Router::Start(router_options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  // The rrre_loadgen --metrics scrape path: METRICS over the line protocol.
  auto socket = common::Socket::Connect("127.0.0.1", router.value()->port());
  ASSERT_TRUE(socket.ok());
  ASSERT_TRUE(socket.value().SendAll("METRICS\n").ok());
  common::LineReader reader(&socket.value());
  auto header = reader.ReadLine();
  ASSERT_TRUE(header.ok() && header.value().has_value());
  ASSERT_TRUE(common::StartsWith(*header.value(), "#metrics\tlines="));
  const long long lines = std::atoll(header.value()->c_str() +
                                     sizeof("#metrics\tlines=") - 1);
  bool saw_quarantined_gauge = false;
  for (long long i = 0; i < lines; ++i) {
    auto line = reader.ReadLine();
    ASSERT_TRUE(line.ok() && line.value().has_value());
    if (common::StartsWith(*line.value(), "rrre_router_quarantined")) {
      saw_quarantined_gauge = true;
      EXPECT_TRUE(common::EndsWith(*line.value(), " 0"))
          << "healthy fleet must scrape quarantined=0: " << *line.value();
    }
  }
  EXPECT_TRUE(saw_quarantined_gauge)
      << "rrre_router_quarantined missing from the METRICS exposition";
  router.value()->Shutdown();
  server.value()->Shutdown();
}

// ---------------------------------------------------------------------------
// Fault-injection soak (run in the check.sh failpoint leg)

TEST(StreamFaultsTest, DaemonLoopSurvivesInjectedPublishAndReloadFaults) {
  AdversaryConfig arena_config = TinyArenaConfig();
  arena_config.days_per_partition = 365;  // 2 partitions.
  arena_config.schedule = {{0, AdversaryTier::kStatic},
                           {365, AdversaryTier::kParaphrase}};
  const AdversaryModel arena(arena_config);
  const std::string root = TempRoot("faults");
  stream::StreamOptions options = TinyStreamOptions(root);
  options.build_store = true;

  // Generation 0 publishes cleanly; the fleet starts on it.
  {
    stream::StreamDriver bootstrap(&arena, options);
    ASSERT_TRUE(bootstrap.Recover().ok());
    ASSERT_TRUE(bootstrap.Step(nullptr).ok());
  }
  serve::ServerOptions server_options;
  server_options.config = options.config;
  server_options.model_prefix = stream::CurrentPath(root, "ckpt");
  server_options.store_path = stream::CurrentPath(root, "ckpt.tower_store");
  server_options.port = 0;
  auto server = serve::Server::Start(server_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint64_t gen0_fingerprint = ScrapeFingerprint(server.value()->port());

  // Seeded fault schedule across the publish and reload seams: the manifest
  // commit, the tower-store write and the server's reload path all fail
  // probabilistically, replayably (spec + seed).
  ASSERT_TRUE(common::failpoint::ArmFromSpec(
                  "manifest.rename:error,prob=0.7,seed=7;"
                  "store.write:error,prob=0.5,seed=11;"
                  "serve.reload:error,prob=0.7,seed=13")
                  .ok());

  options.reload_endpoints = {{"127.0.0.1", server.value()->port()}};
  stream::StreamDriver driver(&arena, options);
  ASSERT_TRUE(driver.Recover().ok());
  EXPECT_EQ(driver.next_partition(), 1);
  int64_t attempts = 0, failures = 0;
  while (!driver.Done()) {
    ++attempts;
    ASSERT_LT(attempts, 200) << "daemon loop did not converge under faults";
    const common::Status status = driver.Step(nullptr);
    if (status.ok()) continue;
    ++failures;
    // The old snapshot must keep serving while the publish/reload retries:
    // a scoring request through the live server still answers.
    auto probe = common::Socket::Connect("127.0.0.1", server.value()->port());
    ASSERT_TRUE(probe.ok());
    ASSERT_TRUE(probe.value().SendAll("0\t0\n").ok());
    common::LineReader reader(&probe.value());
    auto line = reader.ReadLine();
    ASSERT_TRUE(line.ok() && line.value().has_value());
    EXPECT_FALSE(common::StartsWith(*line.value(), "!ERR"))
        << "old snapshot stopped serving during faulted publish: "
        << *line.value();
  }
  common::failpoint::DisarmAll();
  EXPECT_GT(failures, 0) << "the fault schedule never fired — soak is vacuous";

  // The stream finished: the server must now serve the *new* generation.
  const uint64_t served = ScrapeFingerprint(server.value()->port());
  auto published = core::CheckpointParamsFingerprint(
      stream::GenerationDir(root, 1) + "/ckpt");
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(served, published.value());
  EXPECT_NE(served, gen0_fingerprint);
  server.value()->Shutdown();
}

}  // namespace
}  // namespace rrre
