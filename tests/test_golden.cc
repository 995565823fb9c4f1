// Absolute bits of the training and serving paths.
//
// Every other bitwise test compares two paths of one build: eager with tape,
// 1 thread with 4, resumed with uninterrupted. A change that moves the bits
// of every path alike passes all of them. The constants below were recorded
// from small fixed sharded Fits (tape and replay on, gamma > 0, clipping
// that fires on every step) on x86-64 with glibc 2.36. They pin:
//  - an FNV-1a of every RRRE parameter and of the Adam state, at 1 thread
//    and at 4;
//  - the bit patterns of each epoch's losses;
//  - an FNV-1a of DeepCoNN's parameters after a short Fit;
//  - after a Fit at the default review width: the held-out AUC and bRMSE
//    bit patterns, an FNV-1a of the tower store file, and an FNV-1a of the
//    score lines for fixed pair and catalog requests, scored from live
//    towers and from the store.
//
// exp and tanh are transcriptions of glibc's, but the cross-entropy, Adam's
// bias corrections and the normal draws still call libm's log, pow, sin and
// cos, so the constants hold only for the libm they were recorded with;
// under any other the suite skips and names the mismatch. A change that moves a constant on purpose updates it
// and says why in CHANGES.md; a change whose contract is "no bit moves"
// leaves this file alone.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include "baselines/deepconn.h"
#include "common/io.h"
#include "common/threadpool.h"
#include "core/config.h"
#include "core/scorer.h"
#include "core/tower_store.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "nn/module.h"
#include "serve/protocol.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"

namespace rrre {
namespace {

using common::ThreadPool;
using tensor::Tensor;

/// Empty when this build runs the libm the constants were recorded with,
/// else the platform it runs instead.
std::string PlatformMismatch() {
#if !defined(__x86_64__)
  return "a non-x86-64 target";
#elif !defined(__GLIBC__)
  return "a libc other than glibc";
#else
  const std::string version = gnu_get_libc_version();
  return version == "2.36" ? "" : "glibc " + version;
#endif
}

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t Fnv1a(uint64_t h, const void* bytes, size_t n) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t HashTensors(const std::vector<Tensor>& tensors) {
  uint64_t h = kFnvOffset;
  for (const Tensor& t : tensors) {
    h = Fnv1a(h, t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
  }
  return h;
}

/// Names and values, in the map's (sorted) key order.
uint64_t HashNamedTensors(const std::map<std::string, Tensor>& tensors) {
  uint64_t h = kFnvOffset;
  for (const auto& [name, t] : tensors) {
    h = Fnv1a(h, name.data(), name.size());
    h = Fnv1a(h, t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

data::ReviewDataset GoldenCorpus() {
  data::ReviewDataset ds(6, 5);
  const char* texts[] = {
      "great pasta and friendly staff",  "terrible service avoid this",
      "amazing deal best place in town", "okay food nothing special",
      "worst scam ever do not go",       "lovely ambiance great wine",
      "decent prices quick service",     "fantastic best pasta in town",
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

/// Reviews of the golden corpus's users and items that training never sees,
/// with both labels present so the AUC is defined.
data::ReviewDataset HeldOutCorpus() {
  data::ReviewDataset ds(6, 5);
  const char* texts[] = {
      "friendly staff and great wine", "avoid this scam place",
      "best deal in town",             "nothing special quick service",
  };
  int64_t ts = 100;
  for (int64_t u = 0; u < 6; ++u) {
    for (int64_t i = u % 2; i < 5; i += 2) {
      data::Review r;
      r.user = u;
      r.item = i;
      r.rating = static_cast<float>(1 + (u + i * 3) % 5);
      r.timestamp = ++ts;
      r.text = texts[(u + i) % 4];
      r.label = ((u + 2 * i) % 3 == 0) ? data::ReliabilityLabel::kFake
                                       : data::ReliabilityLabel::kBenign;
      ds.Add(r);
    }
  }
  ds.BuildIndex();
  return ds;
}

/// 30 examples in batches of 16 (a full and a tail batch), shards of 4.
core::RrreConfig GoldenConfig() {
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
  c.epochs = 3;
  c.pretrain_epochs = 1;
  c.lr = 5e-3;
  c.shard_size = 4;
  c.use_tape = true;
  c.tape_replay = true;
  c.gamma = 1e-2;
  c.grad_clip = 1e-3;
  return c;
}

/// The golden config at the default review width: rev_dim 32 gives each
/// LSTM direction H = 16 units, so the encoder's 8-lane gate paths run (at
/// rev_dim 8, H = 4 reaches only their scalar tails).
core::RrreConfig ServingConfig() {
  core::RrreConfig c = GoldenConfig();
  c.rev_dim = core::RrreConfig().rev_dim;
  return c;
}

struct GoldenRun {
  uint64_t params = 0;
  uint64_t adam_state = 0;
  std::vector<uint64_t> loss_bits;  ///< loss, loss1, loss2 per epoch.
  double min_grad_norm = 0.0;
};

GoldenRun RunRrre(int threads) {
  ThreadPool::SetGlobalSize(threads);
  const core::RrreConfig config = GoldenConfig();
  core::RrreTrainer trainer(config);
  GoldenRun run;
  run.min_grad_norm = -1.0;
  trainer.Fit(GoldenCorpus(), [&](const core::RrreTrainer::EpochStats& s) {
    for (double v : {s.loss, s.loss1, s.loss2}) {
      run.loss_bits.push_back(std::bit_cast<uint64_t>(v));
    }
    if (run.min_grad_norm < 0.0 || s.grad_norm < run.min_grad_norm) {
      run.min_grad_norm = s.grad_norm;
    }
  });
  run.params = HashTensors(trainer.model().Parameters());
  const std::string prefix = ::testing::TempDir() + "/golden_rrre_" +
                             std::to_string(threads);
  EXPECT_TRUE(trainer.Save(prefix).ok());
  auto state = tensor::LoadTensors(prefix + ".optimizer");
  EXPECT_TRUE(state.ok()) << state.status().ToString();
  if (state.ok()) run.adam_state = HashNamedTensors(state.value());
  for (const std::string& suffix :
       core::RrreTrainer::CheckpointSuffixes(/*with_optimizer=*/true)) {
    std::remove((prefix + suffix).c_str());
  }
  return run;
}

struct ServingRun {
  uint64_t auc_bits = 0;
  uint64_t brmse_bits = 0;
  uint64_t store_file = 0;
  uint64_t live_lines = 0;   ///< Score lines from live towers.
  uint64_t store_lines = 0;  ///< The same requests from the mapped store.
};

/// Pair requests, then catalog requests, formatted as the server writes
/// them, hashed in request order.
uint64_t HashScoreLines(core::BatchScorer& scorer) {
  const std::vector<std::pair<int64_t, int64_t>> pairs = {
      {0, 0}, {5, 4}, {2, 3}, {3, 1}, {1, 2}, {4, 0}, {0, 4}, {2, 3}};
  std::string wire;
  const auto scored = scorer.Score(pairs);
  for (size_t p = 0; p < pairs.size(); ++p) {
    wire += serve::FormatScoreLine(pairs[p].first, pairs[p].second,
                                   scored.ratings[p], scored.reliabilities[p]);
  }
  for (int64_t user : {3, 0, 5}) {
    const auto catalog = scorer.ScoreAllItemsForUser(user);
    const int64_t count = static_cast<int64_t>(catalog.ratings.size());
    wire += serve::FormatCatalogHeader(user, count);
    for (int64_t item = 0; item < count; ++item) {
      wire += serve::FormatScoreLine(user, item, catalog.ratings[item],
                                     catalog.reliabilities[item]);
    }
  }
  return Fnv1a(kFnvOffset, wire.data(), wire.size());
}

ServingRun RunServing(int threads) {
  ThreadPool::SetGlobalSize(threads);
  core::RrreTrainer trainer(ServingConfig());
  trainer.Fit(GoldenCorpus());
  ServingRun run;
  const core::RrreTrainer::EvalResult eval = trainer.Evaluate(HeldOutCorpus());
  run.auc_bits = std::bit_cast<uint64_t>(eval.auc);
  run.brmse_bits = std::bit_cast<uint64_t>(eval.brmse);

  const std::string prefix = ::testing::TempDir() + "/golden_serving_" +
                             std::to_string(threads);
  const std::string store_path = prefix + ".towers";
  EXPECT_TRUE(trainer.Save(prefix).ok());
  EXPECT_TRUE(core::BuildTowerStore(trainer, prefix, store_path).ok());
  auto bytes = common::ReadFile(store_path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  if (bytes.ok()) {
    run.store_file =
        Fnv1a(kFnvOffset, bytes.value().data(), bytes.value().size());
  }

  core::BatchScorer live(&trainer);
  run.live_lines = HashScoreLines(live);
  auto store = core::MapTowerStoreForCheckpoint(store_path, prefix, trainer);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  if (store.ok()) {
    core::BatchScorer backed(&trainer);
    backed.AttachStore(store.value());
    run.store_lines = HashScoreLines(backed);
  }
  std::remove(store_path.c_str());
  for (const std::string& suffix :
       core::RrreTrainer::CheckpointSuffixes(/*with_optimizer=*/true)) {
    std::remove((prefix + suffix).c_str());
  }
  return run;
}

/// DeepCoNN with its network exposed, so the test can hash it.
class GoldenDeepCoNN : public baselines::DeepCoNN {
 public:
  using DeepCoNN::DeepCoNN;
  std::vector<Tensor> Params() { return module()->Parameters(); }
};

class GoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    original_threads_ = ThreadPool::GlobalSize();
    const std::string mismatch = PlatformMismatch();
    if (!mismatch.empty()) {
      GTEST_SKIP() << "golden bits were recorded on x86-64 with glibc 2.36; "
                   << "this build runs " << mismatch;
    }
  }
  void TearDown() override { ThreadPool::SetGlobalSize(original_threads_); }

  int original_threads_ = 0;
};

// Recorded values.
constexpr uint64_t kRrreParams = 0xc651cbcdaadc71c8ull;
constexpr uint64_t kRrreAdamState = 0x1c965ad6a8308281ull;
constexpr uint64_t kRrreLossBits[] = {
    // epoch 0: loss, loss1, loss2
    0x3ffcb6a7bd8a3d71ull, 0x3fe5f667d0000000ull, 0x4007390dc98a3d71ull,
    // epoch 1
    0x3ffbbfdd9f07ae14ull, 0x3fe59007a4000000ull, 0x40065bdbb607ae14ull,
    // epoch 2
    0x3ffafe10aae66667ull, 0x3fe52c458e000000ull, 0x4005b2ff47666667ull,
};
constexpr uint64_t kDeepConnParams = 0xf80b6269713327ffull;
constexpr uint64_t kServingAucBits = 0x3fe1eb851eb851ecull;
constexpr uint64_t kServingBrmseBits = 0x3ff8c2350439b036ull;
constexpr uint64_t kServingStoreFile = 0xcc794ebd9b44aca4ull;
constexpr uint64_t kServingScoreLines = 0x4334e5e0d7e115e1ull;

TEST_F(GoldenTest, RrreSharedFitPinsParametersAdamStateAndLosses) {
  for (int threads : {1, 4}) {
    const GoldenRun run = RunRrre(threads);
    // The clip fires (every epoch's mean pre-clip norm is above it), so its
    // scale pass is pinned too.
    EXPECT_GT(run.min_grad_norm, GoldenConfig().grad_clip)
        << "threads=" << threads;
    EXPECT_EQ(Hex(run.params), Hex(kRrreParams)) << "threads=" << threads;
    EXPECT_EQ(Hex(run.adam_state), Hex(kRrreAdamState))
        << "threads=" << threads;
    ASSERT_EQ(run.loss_bits.size(), std::size(kRrreLossBits));
    for (size_t i = 0; i < run.loss_bits.size(); ++i) {
      EXPECT_EQ(Hex(run.loss_bits[i]), Hex(kRrreLossBits[i]))
          << "threads=" << threads << " epoch " << i / 3 << " loss "
          << i % 3;
    }
  }
}

TEST_F(GoldenTest, DeepConnShortFitPinsParameters) {
  ThreadPool::SetGlobalSize(4);
  baselines::DeepCoNN::Config config;
  config.common.word_dim = 8;
  config.common.epochs = 2;
  config.common.batch_size = 16;
  config.common.pretrain_epochs = 1;
  config.common.shard_size = 4;
  config.common.grad_clip = 1e-2;
  config.doc_tokens = 16;
  config.filters = 6;
  config.latent_dim = 4;
  config.fm_factors = 4;
  GoldenDeepCoNN model(config);
  model.Fit(GoldenCorpus());
  EXPECT_EQ(Hex(HashTensors(model.Params())), Hex(kDeepConnParams));
}

TEST_F(GoldenTest, RrreServingPinsEvaluationStoreAndScoreLines) {
  for (int threads : {1, 4}) {
    const ServingRun run = RunServing(threads);
    EXPECT_EQ(Hex(run.auc_bits), Hex(kServingAucBits)) << "threads=" << threads;
    EXPECT_EQ(Hex(run.brmse_bits), Hex(kServingBrmseBits))
        << "threads=" << threads;
    EXPECT_EQ(Hex(run.store_file), Hex(kServingStoreFile))
        << "threads=" << threads;
    EXPECT_EQ(Hex(run.live_lines), Hex(kServingScoreLines))
        << "threads=" << threads;
    EXPECT_EQ(Hex(run.store_lines), Hex(kServingScoreLines))
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace rrre
