// Tests of the materialized tower store (core/tower_store.h).
//
// Two halves, mirroring how PR 2 hardened the checkpoint format:
//
//  * TowerStoreFormatTest — no model anywhere: hand-built store files, a
//    corruption corpus (truncation at every prefix length, single-bit flips
//    over every byte of header and payload, bad magic, dim/count overflow,
//    trailing garbage), and failpoint/crash coverage of the publish seam.
//    Every corrupt file must be rejected with a clean Status — never UB —
//    which is what the ASan leg of tools/check.sh verifies.
//
//  * TowerStoreServingTest — a trained checkpoint: store-backed scores must
//    be bitwise identical to live-tower scores for every (user, item) pair,
//    across thread counts and a build/reload cycle; a computed store must
//    hold the published file's rows byte for byte; catalog TSV output must
//    be byte-identical to offline rrre_serve; and the MicroBatcher must
//    swap store + params together — a torn or stale store fails the reload
//    and the old snapshot keeps serving.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/io.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "core/scorer.h"
#include "core/serving.h"
#include "core/tower_store.h"
#include "core/trainer.h"
#include "data/profiles.h"
#include "data/synthetic.h"
#include "serve/batcher.h"
#include "serve/server.h"
#include "tensor/serialize.h"

namespace rrre {
namespace {

using common::Rng;
using common::Status;
namespace failpoint = common::failpoint;

// ---------------------------------------------------------------------------
// Format half: hand-built stores, no model required
// ---------------------------------------------------------------------------

constexpr int64_t kDim = 2;
constexpr int64_t kNumUsers = 3;
constexpr int64_t kNumItems = 2;
constexpr uint64_t kFingerprint = 0xfeedface12345678ull;
constexpr size_t kHeaderBytes = 64;
// 64-byte header + 3*2 user floats + 2*2 item floats.
constexpr size_t kFileBytes = kHeaderBytes + 24 + 16;

std::vector<float> SmallUsers() {
  return {1.5f, -2.25f, 0.0f, 3.75f, -0.5f, 8.0f};
}
std::vector<float> SmallItems() { return {0.25f, -1.0f, 2.0f, -4.5f}; }

class TowerStoreFormatTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::DisarmAll(); }
  void TearDown() override { failpoint::DisarmAll(); }

  static std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }

  /// Writes the canonical small store and returns its path.
  static std::string WriteSmall(const std::string& name) {
    const std::string path = TempPath(name);
    RRRE_CHECK_OK(core::TowerStore::WriteFile(path, kDim, kNumUsers, kNumItems,
                                              kFingerprint, SmallUsers(),
                                              SmallItems()));
    return path;
  }

  static std::string ReadBytes(const std::string& path) {
    auto bytes = common::ReadFile(path);
    RRRE_CHECK_OK(bytes.status());
    return std::move(bytes).ValueOrDie();
  }

  /// Raw non-atomic overwrite — these tests *produce* corrupt files.
  static void WriteRaw(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    RRRE_CHECK(out.good()) << "cannot write " << path;
  }

  template <typename T>
  static void Patch(std::string& bytes, size_t offset, T value) {
    std::memcpy(bytes.data() + offset, &value, sizeof(T));
  }

  /// Recomputes the header CRC after a deliberate field patch, so the test
  /// reaches the *structural* validation behind it instead of tripping the
  /// CRC first.
  static std::string Resign(std::string bytes) {
    const uint32_t crc =
        tensor::Crc32(bytes.data() + 12, kHeaderBytes - 12);
    std::memcpy(bytes.data() + 8, &crc, sizeof(crc));
    return bytes;
  }

  static void ExpectRejected(const std::string& path,
                             const std::string& what) {
    auto store = core::TowerStore::Map(path);
    ASSERT_FALSE(store.ok()) << "corrupt store mapped OK (" << what << ")";
    if (!what.empty()) {
      EXPECT_NE(store.status().message().find(what), std::string::npos)
          << store.status().ToString();
    }
  }
};

TEST_F(TowerStoreFormatTest, RoundTripsBitwiseWithExactGeometry) {
  const std::string path = WriteSmall("fmt_roundtrip.tws");
  EXPECT_EQ(ReadBytes(path).size(), kFileBytes);
  auto store = core::TowerStore::Map(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.value()->dim(), kDim);
  EXPECT_EQ(store.value()->num_users(), kNumUsers);
  EXPECT_EQ(store.value()->num_items(), kNumItems);
  EXPECT_EQ(store.value()->params_fingerprint(), kFingerprint);
  const auto users = SmallUsers();
  const auto items = SmallItems();
  for (int64_t u = 0; u < kNumUsers; ++u) {
    EXPECT_EQ(std::memcmp(store.value()->user_profile(u),
                          users.data() + u * kDim, kDim * sizeof(float)),
              0);
  }
  for (int64_t i = 0; i < kNumItems; ++i) {
    EXPECT_EQ(std::memcmp(store.value()->item_profile(i),
                          items.data() + i * kDim, kDim * sizeof(float)),
              0);
  }
}

TEST_F(TowerStoreFormatTest, ZeroCountSectionsAreValid) {
  // A corpus with ids but no users (or no items) is degenerate but legal;
  // validation must not reject byte-exact empty sections.
  const std::string path = TempPath("fmt_zero.tws");
  ASSERT_TRUE(core::TowerStore::WriteFile(path, kDim, 0, kNumItems,
                                          kFingerprint, {}, SmallItems())
                  .ok());
  auto store = core::TowerStore::Map(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.value()->num_users(), 0);
  EXPECT_EQ(store.value()->num_items(), kNumItems);
}

TEST_F(TowerStoreFormatTest, WriteFileValidatesArguments) {
  const std::string path = TempPath("fmt_args.tws");
  // dim out of range.
  EXPECT_FALSE(core::TowerStore::WriteFile(path, 0, kNumUsers, kNumItems,
                                           kFingerprint, {}, {})
                   .ok());
  EXPECT_FALSE(core::TowerStore::WriteFile(path, int64_t{1} << 20, 1, 1,
                                           kFingerprint, {}, {})
                   .ok());
  // Negative counts.
  EXPECT_FALSE(core::TowerStore::WriteFile(path, kDim, -1, kNumItems,
                                           kFingerprint, {}, SmallItems())
                   .ok());
  // Payload size disagrees with the declared geometry.
  EXPECT_FALSE(core::TowerStore::WriteFile(path, kDim, kNumUsers, kNumItems,
                                           kFingerprint, SmallUsers(),
                                           SmallUsers())
                   .ok());
  EXPECT_NE(::access(path.c_str(), F_OK), 0) << "rejected write left a file";
}

TEST_F(TowerStoreFormatTest, MissingFileIsACleanError) {
  auto store = core::TowerStore::Map(TempPath("does_not_exist.tws"));
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), common::StatusCode::kIoError);
}

TEST_F(TowerStoreFormatTest, TruncationAtEveryPrefixLengthIsRejected) {
  const std::string good = ReadBytes(WriteSmall("fmt_trunc_src.tws"));
  ASSERT_EQ(good.size(), kFileBytes);
  const std::string path = TempPath("fmt_trunc.tws");
  for (size_t keep = 0; keep < good.size(); ++keep) {
    WriteRaw(path, good.substr(0, keep));
    auto store = core::TowerStore::Map(path);
    ASSERT_FALSE(store.ok()) << "prefix of " << keep << " bytes mapped OK";
  }
}

TEST_F(TowerStoreFormatTest, EverySingleBitFlipInTheHeaderIsRejected) {
  const std::string good = ReadBytes(WriteSmall("fmt_flip_hdr_src.tws"));
  const std::string path = TempPath("fmt_flip_hdr.tws");
  for (size_t byte = 0; byte < kHeaderBytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = good;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      WriteRaw(path, bad);
      auto store = core::TowerStore::Map(path);
      ASSERT_FALSE(store.ok())
          << "header bit flip at byte " << byte << " bit " << bit
          << " mapped OK";
    }
  }
}

TEST_F(TowerStoreFormatTest, EverySingleBitFlipInThePayloadIsRejected) {
  const std::string good = ReadBytes(WriteSmall("fmt_flip_pay_src.tws"));
  const std::string path = TempPath("fmt_flip_pay.tws");
  for (size_t byte = kHeaderBytes; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = good;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      WriteRaw(path, bad);
      auto store = core::TowerStore::Map(path);
      ASSERT_FALSE(store.ok())
          << "payload bit flip at byte " << byte << " bit " << bit
          << " mapped OK";
      EXPECT_NE(store.status().message().find("CRC mismatch"),
                std::string::npos)
          << store.status().ToString();
    }
  }
}

TEST_F(TowerStoreFormatTest, BadMagicIsRejected) {
  const std::string good = ReadBytes(WriteSmall("fmt_magic_src.tws"));
  const std::string path = TempPath("fmt_magic.tws");
  std::string bad = good;
  std::memcpy(bad.data(), "WRONGMAG", 8);
  WriteRaw(path, bad);
  ExpectRejected(path, "bad magic");
  // A plausible sibling format (same family, wrong version) too.
  std::memcpy(bad.data(), "RRRETWS2", 8);
  WriteRaw(path, bad);
  ExpectRejected(path, "bad magic");
}

TEST_F(TowerStoreFormatTest, OverflowSizedDimAndCountsAreRejected) {
  const std::string good = ReadBytes(WriteSmall("fmt_overflow_src.tws"));
  const std::string path = TempPath("fmt_overflow.tws");

  struct Case {
    size_t offset;
    uint64_t value;
    size_t width;  ///< 4 = u32 dim, 8 = i64 count.
    const char* what;
  };
  const Case cases[] = {
      // dim (u32 at 12): zero, just past the bound, u32 max.
      {12, 0, 4, "dim out of range"},
      {12, (uint64_t{1} << 16) + 1, 4, "dim out of range"},
      {12, 0xffffffffull, 4, "dim out of range"},
      // num_users (i64 at 16): 2^40-style, past 2^31, negative.
      {16, uint64_t{1} << 40, 8, "user count out of range"},
      {16, (uint64_t{1} << 31) + 1, 8, "user count out of range"},
      {16, static_cast<uint64_t>(-1), 8, "user count out of range"},
      // num_items (i64 at 24): same family.
      {24, uint64_t{1} << 40, 8, "item count out of range"},
      {24, static_cast<uint64_t>(int64_t{-5}), 8, "item count out of range"},
  };
  for (const Case& c : cases) {
    std::string bad = good;
    if (c.width == 4) {
      Patch(bad, c.offset, static_cast<uint32_t>(c.value));
    } else {
      Patch(bad, c.offset, c.value);
    }
    // Re-sign the header so the *bounds check* rejects it, proving the
    // size arithmetic is guarded even when the CRC has been forged.
    WriteRaw(path, Resign(std::move(bad)));
    ExpectRejected(path, c.what);
  }

  // Both counts hostile at once — the 2^40 * 2^40 * dim product would
  // overflow int64 if validation multiplied before bounding.
  std::string bad = good;
  Patch(bad, size_t{16}, uint64_t{1} << 40);
  Patch(bad, size_t{24}, uint64_t{1} << 40);
  WriteRaw(path, Resign(std::move(bad)));
  ExpectRejected(path, "count out of range");
}

TEST_F(TowerStoreFormatTest, ForgedCountWithValidCrcFailsTheSizeCheck) {
  // In-bounds but wrong count, CRC re-signed: only the byte-exact file-size
  // check stands between this header and a wild read past the mapping.
  const std::string good = ReadBytes(WriteSmall("fmt_forged_src.tws"));
  const std::string path = TempPath("fmt_forged.tws");
  std::string bad = good;
  Patch(bad, size_t{16}, int64_t{kNumUsers + 1});
  WriteRaw(path, Resign(std::move(bad)));
  ExpectRejected(path, "truncated payload");

  bad = good;
  Patch(bad, size_t{16}, int64_t{kNumUsers - 1});
  WriteRaw(path, Resign(std::move(bad)));
  ExpectRejected(path, "trailing garbage");
}

TEST_F(TowerStoreFormatTest, TrailingGarbageIsRejected) {
  const std::string good = ReadBytes(WriteSmall("fmt_trailing_src.tws"));
  const std::string path = TempPath("fmt_trailing.tws");
  for (const size_t extra : {size_t{1}, size_t{7}, size_t{4096}}) {
    WriteRaw(path, good + std::string(extra, '\xab'));
    ExpectRejected(path, "trailing garbage");
  }
}

TEST_F(TowerStoreFormatTest, NonZeroReservedBytesAreRejected) {
  const std::string good = ReadBytes(WriteSmall("fmt_reserved_src.tws"));
  const std::string path = TempPath("fmt_reserved.tws");
  for (const size_t offset : {size_t{48}, size_t{55}, size_t{63}}) {
    std::string bad = good;
    bad[offset] = 1;
    WriteRaw(path, Resign(std::move(bad)));
    ExpectRejected(path, "reserved");
  }
}

TEST_F(TowerStoreFormatTest, SwappedSectionCrcsAreRejected) {
  const std::string good = ReadBytes(WriteSmall("fmt_swap_src.tws"));
  const std::string path = TempPath("fmt_swap.tws");
  std::string bad = good;
  char tmp[4];
  std::memcpy(tmp, bad.data() + 40, 4);
  std::memcpy(bad.data() + 40, bad.data() + 44, 4);
  std::memcpy(bad.data() + 44, tmp, 4);
  WriteRaw(path, Resign(std::move(bad)));
  ExpectRejected(path, "CRC mismatch");
}

// ---------------------------------------------------------------------------
// Publish seam under injected faults (failpoint family "store")
// ---------------------------------------------------------------------------

TEST_F(TowerStoreFormatTest, WriteFailureLeavesThePreviousStoreIntact) {
  const std::string path = WriteSmall("fmt_fp_write.tws");
  const std::string before = ReadBytes(path);

  failpoint::Arm("store.write");  // Default action: injected I/O error.
  const std::vector<float> other_users(SmallUsers().size(), 9.0f);
  const Status failed =
      core::TowerStore::WriteFile(path, kDim, kNumUsers, kNumItems,
                                  kFingerprint + 1, other_users, SmallItems());
  failpoint::DisarmAll();
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.ToString().find("store.write"), std::string::npos);

  // Nothing published, nothing leaked: old bytes under the final name, no
  // stray tmp.
  EXPECT_EQ(ReadBytes(path), before);
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
  auto store = core::TowerStore::Map(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.value()->params_fingerprint(), kFingerprint);
}

TEST_F(TowerStoreFormatTest, TornWriteNeverReachesTheFinalName) {
  const std::string path = WriteSmall("fmt_fp_torn.tws");
  const std::string before = ReadBytes(path);

  // Fire on the second evaluation (the user payload), landing 8 bytes of it
  // in the tmp file before failing — a torn mid-payload write.
  failpoint::Config torn;
  torn.action = failpoint::Action::kShortIo;
  torn.arg = 8;
  torn.after = 1;
  torn.count = 1;
  failpoint::Arm("store.write", torn);
  const Status failed = core::TowerStore::WriteFile(
      path, kDim, kNumUsers, kNumItems, kFingerprint + 1,
      std::vector<float>(SmallUsers().size(), 7.0f), SmallItems());
  failpoint::DisarmAll();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failpoint::FireCount("store.write"), 0)  // Counters discarded.
      << "DisarmAll should reset counters";
  EXPECT_EQ(ReadBytes(path), before);
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
}

TEST_F(TowerStoreFormatTest, FsyncAndRenameFailuresLeaveTheOldStore) {
  const std::string path = WriteSmall("fmt_fp_commit.tws");
  const std::string before = ReadBytes(path);
  for (const char* point : {"store.open", "store.fsync", "store.rename"}) {
    failpoint::Arm(point);
    const Status failed = core::TowerStore::WriteFile(
        path, kDim, kNumUsers, kNumItems, kFingerprint + 1,
        std::vector<float>(SmallUsers().size(), 4.0f), SmallItems());
    failpoint::DisarmAll();
    ASSERT_FALSE(failed.ok()) << point;
    EXPECT_NE(failed.ToString().find(point), std::string::npos);
    EXPECT_EQ(ReadBytes(path), before) << point;
    EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0) << point;
  }
}

TEST_F(TowerStoreFormatTest, MmapFailpointSurfacesAsACleanMapError) {
  const std::string path = WriteSmall("fmt_fp_mmap.tws");
  failpoint::Arm("store.mmap");
  auto store = core::TowerStore::Map(path);
  failpoint::DisarmAll();
  ASSERT_FALSE(store.ok());
  EXPECT_NE(store.status().ToString().find("store.mmap"), std::string::npos);
  // Disarmed, the very same file maps fine.
  EXPECT_TRUE(core::TowerStore::Map(path).ok());
}

TEST_F(TowerStoreFormatTest, CrashMidPublishLeavesThePreviousStoreIntact) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string path = WriteSmall("fmt_crash_write.tws");
  const std::string before = ReadBytes(path);
  // Simulated power loss while streaming the replacement's payload: the
  // child dies inside WriteFile with no cleanup at all.
  EXPECT_EXIT(
      {
        failpoint::Config crash;
        crash.action = failpoint::Action::kCrash;
        crash.after = 1;  // Header lands; the user payload crashes.
        failpoint::Arm("store.write", crash);
        const Status status = core::TowerStore::WriteFile(
            path, kDim, kNumUsers, kNumItems, kFingerprint + 1,
            std::vector<float>(SmallUsers().size(), 6.0f), SmallItems());
        (void)status;  // Unreachable: the failpoint exits first.
        std::exit(1);
      },
      ::testing::ExitedWithCode(137), "");
  // Only a stray tmp may exist; the published store is whole and old.
  EXPECT_EQ(ReadBytes(path), before);
  auto store = core::TowerStore::Map(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.value()->params_fingerprint(), kFingerprint);
}

TEST_F(TowerStoreFormatTest, CrashAtRenameLeavesEitherOldOrNewNeverTorn) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string path = WriteSmall("fmt_crash_rename.tws");
  const std::string before = ReadBytes(path);
  EXPECT_EXIT(
      {
        failpoint::Config crash;
        crash.action = failpoint::Action::kCrash;
        failpoint::Arm("store.rename", crash);
        const Status status = core::TowerStore::WriteFile(
            path, kDim, kNumUsers, kNumItems, kFingerprint + 1,
            std::vector<float>(SmallUsers().size(), 2.0f), SmallItems());
        (void)status;
        std::exit(1);
      },
      ::testing::ExitedWithCode(137), "");
  // Crash fired before the rename: the old store must still be the one
  // visible under the final name, fully intact and mappable.
  EXPECT_EQ(ReadBytes(path), before);
  EXPECT_TRUE(core::TowerStore::Map(path).ok());
}

// ---------------------------------------------------------------------------
// Serving half: bitwise equivalence against live towers
// ---------------------------------------------------------------------------

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

/// Restores the global pool size on scope exit, so a failing assertion in a
/// thread-count sweep cannot leak a resized pool into later tests.
class PoolSizeGuard {
 public:
  PoolSizeGuard() : saved_(common::ThreadPool::GlobalSize()) {}
  ~PoolSizeGuard() { common::ThreadPool::SetGlobalSize(saved_); }

 private:
  int saved_;
};

class TowerStoreServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(27);
    corpus_ = new data::ReviewDataset(
        data::GenerateSyntheticDataset(data::YelpChiProfile(0.05), rng));
    // ctest runs every test as its own process, concurrently: the fixture
    // paths must be per-process or parallel tests race on the checkpoint.
    prefix_ = new std::string(::testing::TempDir() + "/tws_ckpt_" +
                              std::to_string(::getpid()));
    {
      core::RrreTrainer fitter(TinyConfig());
      fitter.Fit(*corpus_);
      ASSERT_TRUE(fitter.Save(*prefix_).ok());
    }
    // Everything downstream — the store build, the live reference, the
    // server — works from a *loaded* trainer, exactly like production.
    trainer_ = new core::RrreTrainer(TinyConfig());
    ASSERT_TRUE(trainer_->Load(*prefix_).ok());
    store_path_ = new std::string(*prefix_ + ".tower_store");
    auto built = core::BuildTowerStore(*trainer_, *prefix_, *store_path_);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    EXPECT_EQ(built.value().num_users, trainer_->train_data().num_users());
    EXPECT_EQ(built.value().num_items, trainer_->train_data().num_items());
  }

  static void TearDownTestSuite() {
    for (const char* suffix : {".model", ".vocab", ".train.tsv", ".meta",
                               ".optimizer", ".tower_store"}) {
      std::remove((*prefix_ + suffix).c_str());
    }
    delete trainer_;
    delete corpus_;
    delete prefix_;
    delete store_path_;
    trainer_ = nullptr;
    corpus_ = nullptr;
    prefix_ = nullptr;
    store_path_ = nullptr;
  }

  void SetUp() override { failpoint::DisarmAll(); }
  void TearDown() override { failpoint::DisarmAll(); }

  static std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }

  /// Every (user, item) pair of the corpus — the full test corpus the
  /// acceptance criteria demand bitwise identity over.
  static std::vector<std::pair<int64_t, int64_t>> AllPairs() {
    std::vector<std::pair<int64_t, int64_t>> pairs;
    const int64_t num_users = trainer_->train_data().num_users();
    const int64_t num_items = trainer_->train_data().num_items();
    pairs.reserve(static_cast<size_t>(num_users * num_items));
    for (int64_t u = 0; u < num_users; ++u) {
      for (int64_t i = 0; i < num_items; ++i) pairs.emplace_back(u, i);
    }
    return pairs;
  }

  static std::shared_ptr<const core::TowerStore> MapFixtureStore() {
    auto store =
        core::MapTowerStoreForCheckpoint(*store_path_, *prefix_, *trainer_);
    RRRE_CHECK_OK(store.status());
    return std::move(store).ValueOrDie();
  }

  /// Scores one pair through the batcher and blocks for the result.
  static serve::MicroBatcher::ScoredPair ScoreSync(serve::MicroBatcher& b,
                                                   int64_t user,
                                                   int64_t item) {
    std::promise<serve::MicroBatcher::ScoredPair> done;
    RRRE_CHECK(b.TrySubmit(
        user, item,
        [&done](const Status& status,
                const std::vector<serve::MicroBatcher::ScoredPair>& results) {
          RRRE_CHECK_OK(status);
          RRRE_CHECK_EQ(static_cast<int64_t>(results.size()), int64_t{1});
          done.set_value(results[0]);
        }));
    return done.get_future().get();
  }

  static Status ReloadSync(serve::MicroBatcher& b, const std::string& prefix) {
    std::promise<Status> done;
    b.RequestReload(prefix, [&done](const Status& status, int64_t) {
      done.set_value(status);
    });
    return done.get_future().get();
  }

  static data::ReviewDataset* corpus_;
  static core::RrreTrainer* trainer_;
  static std::string* prefix_;
  static std::string* store_path_;
};

data::ReviewDataset* TowerStoreServingTest::corpus_ = nullptr;
core::RrreTrainer* TowerStoreServingTest::trainer_ = nullptr;
std::string* TowerStoreServingTest::prefix_ = nullptr;
std::string* TowerStoreServingTest::store_path_ = nullptr;

TEST_F(TowerStoreServingTest, StoreBindsToTheCheckpointFingerprint) {
  auto store = MapFixtureStore();
  auto fingerprint = core::CheckpointParamsFingerprint(*prefix_);
  ASSERT_TRUE(fingerprint.ok());
  EXPECT_EQ(store->params_fingerprint(), fingerprint.value());
  EXPECT_EQ(store->dim(), TinyConfig().rev_dim);
}

TEST_F(TowerStoreServingTest,
       StoreScoresBitwiseIdenticalToLiveTowersAcrossThreadCounts) {
  const auto pairs = AllPairs();
  PoolSizeGuard guard;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    common::ThreadPool::SetGlobalSize(threads);

    core::BatchScorer live(trainer_);
    const auto live_preds = live.Score(pairs);

    core::BatchScorer stored(trainer_);
    stored.AttachStore(MapFixtureStore());
    ASSERT_TRUE(stored.store_backed());
    const auto store_preds = stored.Score(pairs);

    // Bitwise, not approximate: the store holds exactly the bytes the
    // towers produce, and the FM head is row-independent.
    ASSERT_EQ(live_preds.ratings.size(), store_preds.ratings.size());
    EXPECT_EQ(live_preds.ratings, store_preds.ratings);
    EXPECT_EQ(live_preds.reliabilities, store_preds.reliabilities);
    // Zero tower work on the store path.
    EXPECT_EQ(stored.cached_users(), 0);
    EXPECT_EQ(stored.cached_items(), 0);
  }
}

TEST_F(TowerStoreServingTest, BuildIsBitwiseDeterministicAcrossThreadCounts) {
  PoolSizeGuard guard;
  common::ThreadPool::SetGlobalSize(1);
  const std::string path1 = TempPath("tws_build_t1.tws");
  ASSERT_TRUE(core::BuildTowerStore(*trainer_, *prefix_, path1).ok());
  common::ThreadPool::SetGlobalSize(4);
  const std::string path4 = TempPath("tws_build_t4.tws");
  ASSERT_TRUE(core::BuildTowerStore(*trainer_, *prefix_, path4).ok());

  auto bytes1 = common::ReadFile(path1);
  auto bytes4 = common::ReadFile(path4);
  auto fixture = common::ReadFile(*store_path_);
  ASSERT_TRUE(bytes1.ok() && bytes4.ok() && fixture.ok());
  EXPECT_EQ(bytes1.value(), bytes4.value());
  EXPECT_EQ(bytes1.value(), fixture.value());
  std::remove(path1.c_str());
  std::remove(path4.c_str());

  // The in-memory store a server computes holds the payload of the
  // published file, byte for byte, at either thread count.
  const std::string& file = fixture.value();
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    common::ThreadPool::SetGlobalSize(threads);
    auto computed = core::ComputeTowerStore(*trainer_, 0x5eed);
    ASSERT_TRUE(computed.ok()) << computed.status().ToString();
    const core::TowerStore& store = *computed.value();
    EXPECT_EQ(store.params_fingerprint(), 0x5eedu);
    const size_t user_bytes =
        static_cast<size_t>(store.num_users() * store.dim()) * sizeof(float);
    const size_t item_bytes =
        static_cast<size_t>(store.num_items() * store.dim()) * sizeof(float);
    ASSERT_EQ(file.size(), kHeaderBytes + user_bytes + item_bytes);
    EXPECT_EQ(std::memcmp(store.user_profile(0), file.data() + kHeaderBytes,
                          user_bytes),
              0);
    EXPECT_EQ(std::memcmp(store.item_profile(0),
                          file.data() + kHeaderBytes + user_bytes, item_bytes),
              0);
  }
}

TEST_F(TowerStoreServingTest, BuildReloadCycleKeepsBitwiseIdentity) {
  const auto pairs = AllPairs();
  core::BatchScorer live(trainer_);
  const auto reference = live.Score(pairs);

  // Cycle 1: fresh build, fresh map, fresh loaded trainer.
  const std::string path = TempPath("tws_cycle.tws");
  ASSERT_TRUE(core::BuildTowerStore(*trainer_, *prefix_, path).ok());
  core::RrreTrainer reloaded(TinyConfig());
  ASSERT_TRUE(reloaded.Load(*prefix_).ok());
  {
    auto store = core::MapTowerStoreForCheckpoint(path, *prefix_, reloaded);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    core::BatchScorer scorer(&reloaded);
    scorer.AttachStore(std::move(store).ValueOrDie());
    const auto preds = scorer.Score(pairs);
    EXPECT_EQ(reference.ratings, preds.ratings);
    EXPECT_EQ(reference.reliabilities, preds.reliabilities);
  }

  // Cycle 2: republish over the same path (atomic replace) and re-map.
  ASSERT_TRUE(core::BuildTowerStore(reloaded, *prefix_, path).ok());
  {
    auto store = core::MapTowerStoreForCheckpoint(path, *prefix_, reloaded);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    core::BatchScorer scorer(&reloaded);
    scorer.AttachStore(std::move(store).ValueOrDie());
    const auto preds = scorer.Score(pairs);
    EXPECT_EQ(reference.ratings, preds.ratings);
    EXPECT_EQ(reference.reliabilities, preds.reliabilities);
  }
  std::remove(path.c_str());
}

TEST_F(TowerStoreServingTest, BuildRequiresDeterministicHistorySampling) {
  core::RrreConfig config = TinyConfig();
  config.sampling = data::SamplingStrategy::kRandom;
  core::RrreTrainer random_trainer(config);
  ASSERT_TRUE(random_trainer.Load(*prefix_).ok());
  auto built = core::BuildTowerStore(random_trainer, *prefix_,
                                     TempPath("tws_random.tws"));
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), common::StatusCode::kInvalidArgument);
  auto computed = core::ComputeTowerStore(random_trainer, 0);
  ASSERT_FALSE(computed.ok());
  EXPECT_EQ(computed.status().code(), common::StatusCode::kInvalidArgument);

  // A server without a published store computes one before it listens, so
  // it refuses the config with a Status instead of aborting.
  serve::ServerOptions options;
  options.config = config;
  options.model_prefix = *prefix_;
  auto server = serve::Server::Start(options);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), common::StatusCode::kInvalidArgument);
}

TEST_F(TowerStoreServingTest, StaleCheckpointFingerprintIsRejected) {
  // A checkpoint whose parameter bytes differ by one appended byte: same
  // geometry, different fingerprint — the stale-store scenario a plain
  // structural check would miss.
  auto model_bytes = common::ReadFile(*prefix_ + ".model");
  ASSERT_TRUE(model_bytes.ok());
  const std::string stale_prefix = TempPath("tws_stale");
  ASSERT_TRUE(
      common::WriteFile(stale_prefix + ".model", model_bytes.value() + "x")
          .ok());
  auto store =
      core::MapTowerStoreForCheckpoint(*store_path_, stale_prefix, *trainer_);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), common::StatusCode::kFailedPrecondition);
  EXPECT_NE(store.status().message().find("different model parameters"),
            std::string::npos);
  std::remove((stale_prefix + ".model").c_str());
}

TEST_F(TowerStoreServingTest, GeometryMismatchIsRejectedEvenWithFreshParams) {
  // Right fingerprint, wrong shape: a store for some other corpus must not
  // attach even if it was built from the same parameter bytes.
  auto fingerprint = core::CheckpointParamsFingerprint(*prefix_);
  ASSERT_TRUE(fingerprint.ok());
  const std::string path = TempPath("tws_geometry.tws");
  ASSERT_TRUE(core::TowerStore::WriteFile(path, 2, 3, 2, fingerprint.value(),
                                          SmallUsers(), SmallItems())
                  .ok());
  auto store = core::MapTowerStoreForCheckpoint(path, *prefix_, *trainer_);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), common::StatusCode::kFailedPrecondition);
  EXPECT_NE(store.status().message().find("rev_dim"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TowerStoreServingTest, CatalogTsvByteIdenticalToOfflineServe) {
  // Catalog-mode requests over every user, served live and store-backed:
  // the two output files must match byte for byte.
  std::string requests = "user\n";
  for (int64_t u = 0; u < trainer_->train_data().num_users(); ++u) {
    requests += std::to_string(u) + "\n";
  }
  const std::string in = TempPath("tws_catalog_req.tsv");
  ASSERT_TRUE(common::WriteFile(in, requests).ok());

  core::ServeOptions options;
  options.model_prefix = *prefix_;
  options.input_path = in;
  options.catalog = true;

  options.output_path = TempPath("tws_catalog_live.tsv");
  auto live = core::LoadAndServe(TinyConfig(), options);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_FALSE(live.value().store_backed);

  options.output_path = TempPath("tws_catalog_store.tsv");
  options.store_path = *store_path_;
  auto stored = core::LoadAndServe(TinyConfig(), options);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_TRUE(stored.value().store_backed);
  EXPECT_EQ(stored.value().num_scored, live.value().num_scored);

  auto live_bytes = common::ReadFile(TempPath("tws_catalog_live.tsv"));
  auto store_bytes = common::ReadFile(TempPath("tws_catalog_store.tsv"));
  ASSERT_TRUE(live_bytes.ok() && store_bytes.ok());
  EXPECT_EQ(live_bytes.value(), store_bytes.value());
  std::remove(TempPath("tws_catalog_req.tsv").c_str());
  std::remove(TempPath("tws_catalog_live.tsv").c_str());
  std::remove(TempPath("tws_catalog_store.tsv").c_str());
}

TEST_F(TowerStoreServingTest, ServeBatchRejectsACorruptStoreUpFront) {
  const std::string bad = TempPath("tws_serve_bad.tws");
  ASSERT_TRUE(common::WriteFile(bad, "not a tower store").ok());
  core::ServeOptions options;
  options.model_prefix = *prefix_;
  options.input_path = TempPath("tws_serve_bad_req.tsv");
  ASSERT_TRUE(common::WriteFile(options.input_path, "user\titem\n0\t0\n").ok());
  options.output_path = TempPath("tws_serve_bad_out.tsv");
  options.store_path = bad;
  auto stats = core::LoadAndServe(TinyConfig(), options);
  ASSERT_FALSE(stats.ok());
  // No output file for a failed serve.
  EXPECT_NE(::access(options.output_path.c_str(), F_OK), 0);
  std::remove(bad.c_str());
  std::remove(options.input_path.c_str());
}

// ---------------------------------------------------------------------------
// MicroBatcher: store + params swap together, or not at all
// ---------------------------------------------------------------------------

TEST_F(TowerStoreServingTest, BatcherServesStoreBackedBitwiseIdentical) {
  core::BatchScorer reference(trainer_);

  auto owned = std::make_unique<core::RrreTrainer>(TinyConfig());
  ASSERT_TRUE(owned->Load(*prefix_).ok());
  serve::MicroBatcher::Options options;
  options.max_delay_us = 0;
  options.store_path = *store_path_;
  serve::MicroBatcher batcher(std::move(owned), options, MapFixtureStore());

  for (const auto& [user, item] :
       {std::pair<int64_t, int64_t>{0, 0}, {3, 1}, {7, 5}}) {
    const auto got = ScoreSync(batcher, user, item);
    const auto want = reference.Score({{user, item}});
    EXPECT_EQ(got.rating, want.ratings[0]);
    EXPECT_EQ(got.reliability, want.reliabilities[0]);
  }
  batcher.Stop();
}

TEST_F(TowerStoreServingTest, TornStoreFailsTheReloadAndOldSnapshotServes) {
  // The batcher works on a test-local copy of the store so this test can
  // corrupt and republish freely.
  const std::string local = TempPath("tws_batcher_reload.tws");
  auto good_bytes = common::ReadFile(*store_path_);
  ASSERT_TRUE(good_bytes.ok());
  ASSERT_TRUE(common::WriteFile(local, good_bytes.value()).ok());

  auto owned = std::make_unique<core::RrreTrainer>(TinyConfig());
  ASSERT_TRUE(owned->Load(*prefix_).ok());
  serve::MicroBatcher::Options options;
  options.max_delay_us = 0;
  options.store_path = local;
  auto initial = core::MapTowerStoreForCheckpoint(local, *prefix_, *trainer_);
  ASSERT_TRUE(initial.ok());
  serve::MicroBatcher batcher(std::move(owned), options,
                              std::move(initial).ValueOrDie());

  const auto before = ScoreSync(batcher, 3, 1);

  // Tear the store on disk (atomic replace — the batcher's live mapping
  // keeps the old inode, exactly like a botched republish in production).
  ASSERT_TRUE(common::WriteFile(local, good_bytes.value().substr(
                                           0, good_bytes.value().size() / 2))
                  .ok());
  const Status torn = ReloadSync(batcher, *prefix_);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(batcher.generation(), 0) << "a torn store must not swap";

  // The old snapshot — parameters AND store — keeps serving, bit for bit.
  const auto after = ScoreSync(batcher, 3, 1);
  EXPECT_EQ(before.rating, after.rating);
  EXPECT_EQ(before.reliability, after.reliability);

  // Republish a good store: the same reload now succeeds and scores are
  // unchanged (same parameters underneath).
  ASSERT_TRUE(common::WriteFile(local, good_bytes.value()).ok());
  ASSERT_TRUE(ReloadSync(batcher, *prefix_).ok());
  EXPECT_EQ(batcher.generation(), 1);
  const auto reloaded = ScoreSync(batcher, 3, 1);
  EXPECT_EQ(before.rating, reloaded.rating);
  EXPECT_EQ(before.reliability, reloaded.reliability);

  batcher.Stop();
  std::remove(local.c_str());
}

TEST_F(TowerStoreServingTest, ReloadFailpointKeepsStoreBackedSnapshot) {
  auto owned = std::make_unique<core::RrreTrainer>(TinyConfig());
  ASSERT_TRUE(owned->Load(*prefix_).ok());
  serve::MicroBatcher::Options options;
  options.max_delay_us = 0;
  options.store_path = *store_path_;
  serve::MicroBatcher batcher(std::move(owned), options, MapFixtureStore());

  const auto before = ScoreSync(batcher, 4, 2);

  failpoint::Config once;
  once.count = 1;
  failpoint::Arm("serve.reload", once);
  const Status failed = ReloadSync(batcher, *prefix_);
  failpoint::DisarmAll();
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.ToString().find("serve.reload"), std::string::npos);
  EXPECT_EQ(batcher.generation(), 0);

  const auto after = ScoreSync(batcher, 4, 2);
  EXPECT_EQ(before.rating, after.rating);
  EXPECT_EQ(before.reliability, after.reliability);

  // And with the fault cleared, the store-backed reload goes through.
  ASSERT_TRUE(ReloadSync(batcher, *prefix_).ok());
  EXPECT_EQ(batcher.generation(), 1);
  batcher.Stop();
}

TEST_F(TowerStoreServingTest, MmapFailpointFailsTheReloadNotTheSnapshot) {
  auto owned = std::make_unique<core::RrreTrainer>(TinyConfig());
  ASSERT_TRUE(owned->Load(*prefix_).ok());
  serve::MicroBatcher::Options options;
  options.max_delay_us = 0;
  options.store_path = *store_path_;
  serve::MicroBatcher batcher(std::move(owned), options, MapFixtureStore());

  const auto before = ScoreSync(batcher, 5, 3);

  // The reload's re-map of the store fails at the mmap seam.
  failpoint::Config once;
  once.count = 1;
  failpoint::Arm("store.mmap", once);
  const Status failed = ReloadSync(batcher, *prefix_);
  failpoint::DisarmAll();
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.ToString().find("store.mmap"), std::string::npos);
  EXPECT_EQ(batcher.generation(), 0);

  const auto after = ScoreSync(batcher, 5, 3);
  EXPECT_EQ(before.rating, after.rating);
  EXPECT_EQ(before.reliability, after.reliability);
  batcher.Stop();
}

}  // namespace
}  // namespace rrre
