// Fault-injection tests built on the common/failpoint framework: the
// framework's trigger schedules themselves, crash-safe AtomicFileWriter
// commits, torn-checkpoint rejection, socket faults (short I/O, EINTR
// storms, resets, deadlines), loadgen retry backoff, hot-reload failure
// isolation, peer resets against a live server, and a seeded randomized
// fault-schedule soak. The suite runs under AddressSanitizer in
// tools/check.sh (`ctest -L failpoint`).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/io.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/socket.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/scorer.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "serve/loadgen.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"

namespace rrre {
namespace {

namespace failpoint = common::failpoint;

using common::Rng;
using common::Socket;
using common::Status;

/// Every test leaves the process-global registry clean so suites cannot
/// leak armed points into each other.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::DisarmAll(); }
  void TearDown() override { failpoint::DisarmAll(); }
};

// ---------------------------------------------------------------------------
// Framework: trigger schedules, spec parsing, counters
// ---------------------------------------------------------------------------

TEST_F(FailpointTest, DisarmedPointsNeverFire) {
  EXPECT_FALSE(failpoint::Enabled());
  EXPECT_FALSE(failpoint::Check("no.such.point").has_value());
  EXPECT_TRUE(failpoint::MaybeError("no.such.point", "op").ok());
  EXPECT_EQ(failpoint::AllowedBytes("no.such.point", 1024), 1024u);
  EXPECT_EQ(failpoint::EvalCount("no.such.point"), 0);
  EXPECT_EQ(failpoint::FireCount("no.such.point"), 0);
}

TEST_F(FailpointTest, ArmAndDisarmToggleTheFastPath) {
  failpoint::Arm("t.enabled");
  EXPECT_TRUE(failpoint::Enabled());
  EXPECT_EQ(failpoint::ArmedPoints(), std::vector<std::string>{"t.enabled"});
  failpoint::Disarm("t.enabled");
  EXPECT_FALSE(failpoint::Enabled());
  EXPECT_TRUE(failpoint::ArmedPoints().empty());
}

TEST_F(FailpointTest, AfterAndCountMakeADeterministicWindow) {
  failpoint::Config config;
  config.after = 2;
  config.count = 2;
  failpoint::Arm("t.window", config);
  // Evaluations 0,1 are skipped; 2,3 fire; 4,5 are past the count budget.
  for (int i = 0; i < 6; ++i) {
    const bool fired = failpoint::Check("t.window").has_value();
    EXPECT_EQ(fired, i == 2 || i == 3) << "evaluation " << i;
  }
  EXPECT_EQ(failpoint::EvalCount("t.window"), 6);
  EXPECT_EQ(failpoint::FireCount("t.window"), 2);
}

TEST_F(FailpointTest, ProbabilisticScheduleReplaysExactlyFromSeed) {
  failpoint::Config config;
  config.prob = 0.5;
  config.seed = 0xdecaf;
  auto draw_pattern = [&config]() {
    failpoint::Arm("t.prob", config);
    std::vector<bool> pattern;
    for (int i = 0; i < 200; ++i) {
      pattern.push_back(failpoint::Check("t.prob").has_value());
    }
    return pattern;
  };
  const std::vector<bool> first = draw_pattern();
  const std::vector<bool> replay = draw_pattern();
  EXPECT_EQ(first, replay);  // Re-arming with the same seed replays exactly.
  const int64_t fires = failpoint::FireCount("t.prob");
  EXPECT_GT(fires, 0);
  EXPECT_LT(fires, 200);
  config.seed = 0xdecaf + 1;
  EXPECT_NE(first, draw_pattern());  // A different seed is a different run.
}

TEST_F(FailpointTest, ShortIoActionCarriesItsByteBudget) {
  failpoint::Config config;
  config.action = failpoint::Action::kShortIo;
  config.arg = 64;
  failpoint::Arm("t.short", config);
  const auto fired = failpoint::Check("t.short");
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->action, failpoint::Action::kShortIo);
  EXPECT_EQ(fired->arg, 64);
}

TEST_F(FailpointTest, MaybeErrorNamesThePointAndOperation) {
  failpoint::Arm("t.err");  // Default action: kError.
  const Status status = failpoint::MaybeError("t.err", "write /dev/null");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("t.err"), std::string::npos);
  EXPECT_NE(status.ToString().find("write /dev/null"), std::string::npos);
  failpoint::Disarm("t.err");
  EXPECT_TRUE(failpoint::MaybeError("t.err", "write /dev/null").ok());
}

TEST_F(FailpointTest, DelayActionSleepsThenProceeds) {
  failpoint::Config config;
  config.action = failpoint::Action::kDelayUs;
  config.arg = 2000;
  failpoint::Arm("t.delay", config);
  common::Timer timer;
  EXPECT_TRUE(failpoint::MaybeError("t.delay", "op").ok());
  EXPECT_GE(timer.ElapsedSeconds(), 0.0015);
}

TEST_F(FailpointTest, AllowedBytesClampsOnlyWhileFiring) {
  failpoint::Config config;
  config.action = failpoint::Action::kShortIo;
  config.arg = 3;
  config.count = 1;
  failpoint::Arm("t.bytes", config);
  EXPECT_EQ(failpoint::AllowedBytes("t.bytes", 10), 3u);
  EXPECT_EQ(failpoint::AllowedBytes("t.bytes", 10), 10u);  // Budget spent.
}

TEST_F(FailpointTest, ArmFromSpecParsesTheFullGrammar) {
  ASSERT_TRUE(failpoint::ArmFromSpec("a.one:short=64,after=3,count=2;"
                                     "b.two:delay=5;"
                                     "c.three")
                  .ok());
  const std::vector<std::string> expected = {"a.one", "b.two", "c.three"};
  EXPECT_EQ(failpoint::ArmedPoints(), expected);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(failpoint::Check("a.one").has_value()) << "after=" << i;
  }
  const auto fired = failpoint::Check("a.one");
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->action, failpoint::Action::kShortIo);
  EXPECT_EQ(fired->arg, 64);
  // Bare point name: default config, fires immediately with kError.
  const auto bare = failpoint::Check("c.three");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->action, failpoint::Action::kError);
}

TEST_F(FailpointTest, MalformedSpecsArmNothing) {
  for (const char* spec :
       {"p:prob=2", "p:after=-1", "p:short=abc", "p:bogus", ":error",
        "p:prob="}) {
    EXPECT_FALSE(failpoint::ArmFromSpec(spec).ok()) << spec;
    EXPECT_TRUE(failpoint::ArmedPoints().empty()) << spec;
  }
  // All-or-nothing: one bad entry poisons the whole spec.
  EXPECT_FALSE(failpoint::ArmFromSpec("good.point:error;p:prob=2").ok());
  EXPECT_TRUE(failpoint::ArmedPoints().empty());
}

// The env-spec tests are deliberately fixture-free: a threadsafe death-test
// child re-runs the whole test (including fixture SetUp), and any failpoint
// call before the death statement would initialize the registry early.
TEST(FailpointEnvTest, EnvironmentSpecArmsAtStartup) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // Threadsafe death tests re-execute the binary, so the child's first
  // failpoint use parses RRRE_FAILPOINTS from scratch — the production
  // startup path, unreachable in-process once the registry exists.
  ASSERT_EQ(setenv("RRRE_FAILPOINTS", "env.point:delay=1,count=3", 1), 0);
  EXPECT_EXIT(
      {
        if (failpoint::Enabled() &&
            failpoint::ArmedPoints() ==
                std::vector<std::string>{"env.point"} &&
            failpoint::Check("env.point").has_value()) {
          std::exit(0);
        }
        std::exit(1);
      },
      ::testing::ExitedWithCode(0), "");
  ASSERT_EQ(unsetenv("RRRE_FAILPOINTS"), 0);
}

TEST(FailpointEnvTest, MalformedEnvironmentSpecIsFatalAtStartup) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ASSERT_EQ(setenv("RRRE_FAILPOINTS", "bad.point:prob=2", 1), 0);
  EXPECT_DEATH(
      {
        failpoint::Enabled();  // First use parses the env spec and dies.
        std::exit(0);
      },
      "RRRE_FAILPOINTS");
  ASSERT_EQ(unsetenv("RRRE_FAILPOINTS"), 0);
}

// ---------------------------------------------------------------------------
// AtomicFileWriter: crash-safe commit sequence
// ---------------------------------------------------------------------------

class AtomicWriteTest : public FailpointTest {
 protected:
  static std::string Path() {
    // ctest runs every case as its own process, concurrently, so the target
    // must be unique per case. The test *name* (not the pid) keys it so a
    // threadsafe death-test child — a re-exec with a new pid — still shares
    // its parent's path.
    return ::testing::TempDir() + "/fp_atomic_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
  }
  void SetUp() override {
    FailpointTest::SetUp();
    std::remove(Path().c_str());
    std::remove((Path() + ".tmp").c_str());
  }
  void TearDown() override {
    std::remove(Path().c_str());
    std::remove((Path() + ".tmp").c_str());
    FailpointTest::TearDown();
  }
};

TEST_F(AtomicWriteTest, CommitPublishesUnderTheFinalNameOnly) {
  ASSERT_TRUE(common::WriteFile(Path(), "old").ok());
  common::AtomicFileWriter writer;
  ASSERT_TRUE(writer.Open(Path()).ok());
  ASSERT_TRUE(writer.Append("new ").ok());
  // Mid-stream the target still reads as the old committed content.
  EXPECT_EQ(common::ReadFile(Path()).value(), "old");
  ASSERT_TRUE(writer.Append("content").ok());
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(common::ReadFile(Path()).value(), "new content");
  EXPECT_NE(::access((Path() + ".tmp").c_str(), F_OK), 0);  // Tmp is gone.
}

TEST_F(AtomicWriteTest, EveryFailingStageLeavesTheOldFileIntact) {
  for (const char* point : {"io.open", "io.write", "io.fsync", "io.rename"}) {
    ASSERT_TRUE(common::WriteFile(Path(), "old").ok()) << point;
    failpoint::Config error;
    error.count = 1;
    failpoint::Arm(point, error);
    const Status status = common::AtomicWriteFile(Path(), "NEW");
    EXPECT_FALSE(status.ok()) << point;
    EXPECT_NE(status.ToString().find(point), std::string::npos) << point;
    EXPECT_EQ(common::ReadFile(Path()).value(), "old") << point;
    // The failed attempt's tmp file was unlinked, not left to accumulate.
    EXPECT_NE(::access((Path() + ".tmp").c_str(), F_OK), 0) << point;
    failpoint::DisarmAll();
  }
}

TEST_F(AtomicWriteTest, ShortWriteTearsOnlyTheTmpFile) {
  ASSERT_TRUE(common::WriteFile(Path(), "old").ok());
  failpoint::Config torn;
  torn.action = failpoint::Action::kShortIo;
  torn.arg = 4;
  torn.count = 1;
  failpoint::Arm("io.write", torn);
  const Status status = common::AtomicWriteFile(Path(), "NEW CONTENT");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("short write"), std::string::npos);
  EXPECT_EQ(common::ReadFile(Path()).value(), "old");
  EXPECT_NE(::access((Path() + ".tmp").c_str(), F_OK), 0);
}

TEST_F(AtomicWriteTest, DirsyncFailureReportsAfterContentIsVisible) {
  // The rename has already happened when the directory sync fails: the new
  // content is visible (and will survive unless the machine dies), but the
  // caller is told durability was not established.
  ASSERT_TRUE(common::WriteFile(Path(), "old").ok());
  failpoint::Config error;
  error.count = 1;
  failpoint::Arm("io.dirsync", error);
  const Status status = common::AtomicWriteFile(Path(), "NEW");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(common::ReadFile(Path()).value(), "NEW");
  EXPECT_NE(::access((Path() + ".tmp").c_str(), F_OK), 0);
}

// ---------------------------------------------------------------------------
// Checkpoints: a save that dies can never tear the previous checkpoint
// ---------------------------------------------------------------------------

class CheckpointFaultTest : public FailpointTest {
 protected:
  static std::string Path() {
    // Test-name keyed for the same reason as AtomicWriteTest::Path: unique
    // across concurrent ctest processes, shared with death-test children.
    return ::testing::TempDir() + "/fp_ckpt_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".bin";
  }

  static std::map<std::string, tensor::Tensor> TensorsA() {
    std::map<std::string, tensor::Tensor> t;
    t.emplace("w", tensor::Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6}));
    t.emplace("b", tensor::Tensor::FromVector({4}, {9, 8, 7, 6}));
    return t;
  }
  static std::map<std::string, tensor::Tensor> TensorsB() {
    std::map<std::string, tensor::Tensor> t;
    t.emplace("w", tensor::Tensor::Full({2, 3}, -1.0f));
    t.emplace("b", tensor::Tensor::Full({4}, -2.0f));
    return t;
  }

  static void ExpectLoadsAsA() {
    auto loaded = tensor::LoadTensors(Path());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const auto a = TensorsA();
    ASSERT_EQ(loaded.value().size(), a.size());
    for (const auto& [name, expected] : a) {
      const tensor::Tensor& got = loaded.value().at(name);
      ASSERT_EQ(got.numel(), expected.numel()) << name;
      for (int64_t i = 0; i < expected.numel(); ++i) {
        EXPECT_EQ(got.at(i), expected.at(i)) << name << "[" << i << "]";
      }
    }
  }

  void SetUp() override {
    FailpointTest::SetUp();
    std::remove(Path().c_str());
    std::remove((Path() + ".tmp").c_str());
  }
  void TearDown() override {
    std::remove(Path().c_str());
    std::remove((Path() + ".tmp").c_str());
    FailpointTest::TearDown();
  }
};

TEST_F(CheckpointFaultTest, FailedResaveNeverTearsTheCheckpoint) {
  ASSERT_TRUE(tensor::SaveTensors(Path(), TensorsA()).ok());
  for (const char* point :
       {"ckpt.open", "ckpt.write", "ckpt.fsync", "ckpt.rename"}) {
    failpoint::Config error;
    error.count = 1;
    failpoint::Arm(point, error);
    EXPECT_FALSE(tensor::SaveTensors(Path(), TensorsB()).ok()) << point;
    failpoint::DisarmAll();
    ExpectLoadsAsA();  // The original checkpoint is untouched and loadable.
  }
}

TEST_F(CheckpointFaultTest, ShortWriteMidSaveLeavesOldCheckpointLoadable) {
  ASSERT_TRUE(tensor::SaveTensors(Path(), TensorsA()).ok());
  // Let a few header appends through, then tear a write: the torn bytes land
  // in the tmp file only.
  failpoint::Config torn;
  torn.action = failpoint::Action::kShortIo;
  torn.arg = 2;
  torn.after = 4;
  torn.count = 1;
  failpoint::Arm("ckpt.write", torn);
  EXPECT_FALSE(tensor::SaveTensors(Path(), TensorsB()).ok());
  failpoint::DisarmAll();
  EXPECT_NE(::access((Path() + ".tmp").c_str(), F_OK), 0);
  ExpectLoadsAsA();
}

TEST_F(CheckpointFaultTest, CrashMidSaveLeavesOldCheckpointLoadable) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ASSERT_TRUE(tensor::SaveTensors(Path(), TensorsA()).ok());
  // Simulated power loss partway through writing the replacement: the child
  // process dies inside SaveTensors with no cleanup at all.
  EXPECT_EXIT(
      {
        failpoint::Config crash;
        crash.action = failpoint::Action::kCrash;
        crash.after = 5;
        failpoint::Arm("ckpt.write", crash);
        const Status status = tensor::SaveTensors(Path(), TensorsB());
        (void)status;  // Unreachable: the failpoint exits first.
        std::exit(1);
      },
      ::testing::ExitedWithCode(137), "");
  ExpectLoadsAsA();  // Only a stray tmp may exist; the checkpoint is whole.
}

TEST_F(CheckpointFaultTest, CrashAtRenameLeavesEitherOldOrNewNeverTorn) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ASSERT_TRUE(tensor::SaveTensors(Path(), TensorsA()).ok());
  EXPECT_EXIT(
      {
        failpoint::Config crash;
        crash.action = failpoint::Action::kCrash;
        failpoint::Arm("ckpt.rename", crash);
        const Status status = tensor::SaveTensors(Path(), TensorsB());
        (void)status;
        std::exit(1);
      },
      ::testing::ExitedWithCode(137), "");
  // Crash before the rename: the old checkpoint must still be the one
  // visible under the final name, fully intact.
  ExpectLoadsAsA();
}

TEST_F(CheckpointFaultTest, TornArtifactIsRejectedByTheLoader) {
  ASSERT_TRUE(tensor::SaveTensors(Path(), TensorsA()).ok());
  auto bytes = common::ReadFile(Path());
  ASSERT_TRUE(bytes.ok());
  // Overwrite the checkpoint with a prefix of itself — what a non-atomic
  // writer interrupted mid-stream would have left under the final name.
  for (const size_t keep : {bytes.value().size() / 2, size_t{12}, size_t{3}}) {
    std::ofstream torn(Path(), std::ios::binary | std::ios::trunc);
    torn.write(bytes.value().data(), static_cast<std::streamsize>(keep));
    torn.close();
    auto loaded = tensor::LoadTensors(Path());
    EXPECT_FALSE(loaded.ok()) << "prefix of " << keep << " bytes";
  }
}

// ---------------------------------------------------------------------------
// Sockets: short I/O, EINTR storms, resets, deadlines
// ---------------------------------------------------------------------------

struct LocalPair {
  Socket client;
  Socket server;
};

LocalPair MakeLocalPair() {
  auto listener = Socket::Listen(0);
  RRRE_CHECK_OK(listener.status());
  auto client = Socket::Connect("127.0.0.1", listener.value().local_port());
  RRRE_CHECK_OK(client.status());
  auto accepted = listener.value().AcceptWithTimeout(5000);
  RRRE_CHECK_OK(accepted.status());
  RRRE_CHECK(accepted.value().has_value()) << "accept timed out";
  return LocalPair{std::move(client).ValueOrDie(),
                   std::move(*accepted.value())};
}

TEST_F(FailpointTest, SendAllDeliversThroughShortSendsAndEintrStorm) {
  LocalPair pair = MakeLocalPair();
  // Every kernel send is clamped to 1 byte and EINTR hits 32 times: the
  // resume loop must still deliver the full payload byte-for-byte.
  ASSERT_TRUE(failpoint::ArmFromSpec("sock.send.short:short=1;"
                                     "sock.send.eintr:count=32")
                  .ok());
  Rng rng(5);
  std::string payload;
  for (int i = 0; i < 4096; ++i) {
    payload.push_back(static_cast<char>('a' + rng.UniformInt(26)));
  }
  std::thread sender(
      [&] { RRRE_CHECK_OK(pair.client.SendAll(payload)); });
  std::string received;
  char buf[512];
  while (received.size() < payload.size()) {
    auto n = pair.server.RecvSome(buf, sizeof(buf));
    ASSERT_TRUE(n.ok());
    ASSERT_GT(n.value(), 0u);
    received.append(buf, n.value());
  }
  sender.join();
  EXPECT_EQ(received, payload);
  EXPECT_GE(failpoint::FireCount("sock.send.short"), 4096);
  EXPECT_EQ(failpoint::FireCount("sock.send.eintr"), 32);
}

TEST_F(FailpointTest, InjectedSendResetFailsTheWrite) {
  LocalPair pair = MakeLocalPair();
  failpoint::Config once;
  once.count = 1;
  failpoint::Arm("sock.send.reset", once);
  const Status status = pair.client.SendAll("doomed\n");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("sock.send.reset"), std::string::npos);
  EXPECT_TRUE(pair.client.SendAll("fine\n").ok());  // Budget spent.
}

TEST_F(FailpointTest, LineReaderReassemblesUnderShortReadsAndEintr) {
  LocalPair pair = MakeLocalPair();
  ASSERT_TRUE(failpoint::ArmFromSpec("sock.recv.short:short=1;"
                                     "sock.recv.eintr:count=16")
                  .ok());
  ASSERT_TRUE(pair.server.SendAll("alpha\nbeta\r\ngamma").ok());
  pair.server.Close();  // "gamma" arrives as a final unterminated line.
  common::LineReader reader(&pair.client);
  for (const char* expected : {"alpha", "beta", "gamma"}) {
    auto line = reader.ReadLine();
    ASSERT_TRUE(line.ok());
    ASSERT_TRUE(line.value().has_value());
    EXPECT_EQ(*line.value(), expected);
  }
  auto eof = reader.ReadLine();
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof.value().has_value());
}

TEST_F(FailpointTest, LineReaderRefusesALineLongerThanTheBound) {
  // One peer must not make a reader buffer without limit: a line of exactly
  // kMaxLineBytes is still returned, and one byte more with no newline fails.
  constexpr size_t kMax = common::LineReader::kMaxLineBytes;
  LocalPair pair = MakeLocalPair();
  std::thread sender([&] {
    RRRE_CHECK_OK(pair.server.SendAll(std::string(kMax, 'a') + "\n"));
    RRRE_CHECK_OK(pair.server.SendAll(std::string(kMax + 1, 'b')));
  });
  common::LineReader reader(&pair.client);
  auto line = reader.ReadLine();
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  ASSERT_TRUE(line.value().has_value());
  EXPECT_EQ(*line.value(), std::string(kMax, 'a'));
  auto overlong = reader.ReadLine();
  EXPECT_FALSE(overlong.ok());
  EXPECT_EQ(overlong.status().code(), common::StatusCode::kInvalidArgument);
  sender.join();
}

TEST_F(FailpointTest, InjectedRecvEagainSurfacesDeadlineExceeded) {
  LocalPair pair = MakeLocalPair();
  failpoint::Config once;
  once.count = 1;
  failpoint::Arm("sock.recv.eagain", once);
  common::LineReader reader(&pair.client);
  auto line = reader.ReadLine();
  EXPECT_FALSE(line.ok());
  EXPECT_EQ(line.status().code(), common::StatusCode::kDeadlineExceeded);
  // The deadline consumed no data: the stream still works afterwards.
  ASSERT_TRUE(pair.server.SendAll("later\n").ok());
  auto next = reader.ReadLine();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next.value(), "later");
}

TEST_F(FailpointTest, RealReceiveDeadlineFiresOnASilentPeer) {
  LocalPair pair = MakeLocalPair();
  ASSERT_TRUE(pair.server.SetRecvTimeout(50).ok());
  common::LineReader reader(&pair.server);
  common::Timer timer;
  auto line = reader.ReadLine();  // Client sends nothing.
  EXPECT_FALSE(line.ok());
  EXPECT_EQ(line.status().code(), common::StatusCode::kDeadlineExceeded);
  EXPECT_GE(timer.ElapsedSeconds(), 0.04);
}

TEST_F(FailpointTest, PeerResetMidLineTerminatesTheReaderCleanly) {
  LocalPair pair = MakeLocalPair();
  ASSERT_TRUE(pair.client.SendAll("partial-line-without-newline").ok());
  pair.client.CloseWithReset();  // Real RST, not a FIN.
  // Depending on arrival order the reader sees the unterminated line, EOF,
  // or an I/O error — but it must settle within a bounded number of reads,
  // never hang or crash.
  common::LineReader reader(&pair.server);
  bool settled = false;
  for (int i = 0; i < 10 && !settled; ++i) {
    auto line = reader.ReadLine();
    settled = !line.ok() || !line.value().has_value();
  }
  EXPECT_TRUE(settled);
}

TEST_F(FailpointTest, SendAllReportsNeverSentVersusPartialProgress) {
  // The router's failover policy rests on SendAll's byte count: a failure
  // with zero progress means the request never left this host (safe to
  // retry any verb on a replica); partial progress means the peer may have
  // received and acted on it (only idempotent verbs may be blindly resent).
  LocalPair pair = MakeLocalPair();
  failpoint::Config once;
  once.count = 1;
  failpoint::Arm("sock.send.reset", once);
  size_t sent = 12345;  // Poisoned: the failure path must still write it.
  Status status = pair.client.SendAll("RELOAD\n", &sent);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(sent, 0u) << "reset before the first send is the never-sent case";

  // Clamp each kernel send to 4 bytes and reset on the second loop pass:
  // the failure now happens with bytes already handed to the kernel.
  ASSERT_TRUE(failpoint::ArmFromSpec("sock.send.short:short=4;"
                                     "sock.send.reset:after=1,count=1")
                  .ok());
  sent = 0;
  status = pair.client.SendAll("0\t1\n0\t2\n0\t3\n", &sent);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(sent, 4u) << "partial progress is the maybe-delivered case";
  // What the count promises: exactly those bytes are on the wire.
  char buf[64];
  auto n = pair.server.RecvSome(buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, n.value()), "0\t1\n");
  failpoint::DisarmAll();
  sent = 0;
  ASSERT_TRUE(pair.client.SendAll("PING\n", &sent).ok());
  EXPECT_EQ(sent, 5u);  // Success reports the full payload.
}

TEST_F(FailpointTest, PartialBytesFlagsATornResponseAfterAFailedRead) {
  // After a failed ReadLine, LineReader::partial_bytes() > 0 means the peer
  // started a response that was cut off mid-line — "torn", as opposed to
  // "never answered". The router treats the two exactly like SendAll's
  // never-sent/maybe-delivered split, from the read side.
  LocalPair pair = MakeLocalPair();
  ASSERT_TRUE(pair.server.SendAll("whole\ntor").ok());
  common::LineReader reader(&pair.client);
  auto line = reader.ReadLine();
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(*line.value(), "whole");
  EXPECT_EQ(reader.partial_bytes(), 3u);  // "tor" buffered, no terminator.

  failpoint::Config once;
  once.count = 1;
  failpoint::Arm("sock.recv.eagain", once);
  auto torn = reader.ReadLine();
  EXPECT_FALSE(torn.ok());
  EXPECT_GT(reader.partial_bytes(), 0u) << "the torn-response signal";

  // A deadline with an empty buffer is the never-answered case.
  common::LineReader fresh(&pair.server);
  failpoint::Arm("sock.recv.eagain", once);
  auto silent = fresh.ReadLine();
  EXPECT_FALSE(silent.ok());
  EXPECT_EQ(fresh.partial_bytes(), 0u);

  // The torn line completes once the rest arrives; nothing was lost.
  ASSERT_TRUE(pair.server.SendAll("n\n").ok());
  auto completed = reader.ReadLine();
  ASSERT_TRUE(completed.ok());
  EXPECT_EQ(*completed.value(), "torn");
  EXPECT_EQ(reader.partial_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Loadgen backoff
// ---------------------------------------------------------------------------

TEST(BackoffTest, WaitsStayInTheEqualJitterWindow) {
  Rng rng(7);
  for (int64_t attempt = 0; attempt < 24; ++attempt) {
    // Recompute the spec's ceiling: min(cap, base * 2^attempt).
    int64_t ceiling = 1000;
    for (int64_t k = 0; k < attempt && ceiling < 100000; ++k) {
      ceiling = std::min<int64_t>(100000, ceiling * 2);
    }
    const int64_t wait = serve::BackoffUs(attempt, 1000, 100000, rng);
    EXPECT_GE(wait, ceiling / 2) << attempt;
    EXPECT_LE(wait, ceiling) << attempt;
  }
}

TEST(BackoffTest, SequencesAreDeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  std::vector<int64_t> wa, wb, wc;
  for (int64_t attempt = 0; attempt < 10; ++attempt) {
    wa.push_back(serve::BackoffUs(attempt, 500, 50000, a));
    wb.push_back(serve::BackoffUs(attempt, 500, 50000, b));
    wc.push_back(serve::BackoffUs(attempt, 500, 50000, c));
  }
  EXPECT_EQ(wa, wb);
  EXPECT_NE(wa, wc);
}

TEST(BackoffTest, DegenerateArgumentsAreClamped) {
  Rng rng(1);
  // Non-positive base behaves as base 1; a cap below the base is raised to
  // the base, and huge attempts cannot overflow past the cap.
  for (int i = 0; i < 10; ++i) {
    EXPECT_GE(serve::BackoffUs(0, 0, 0, rng), 0);
    const int64_t wait = serve::BackoffUs(62, 1000, 10, rng);
    EXPECT_GE(wait, 500);
    EXPECT_LE(wait, 1000);
  }
}

// ---------------------------------------------------------------------------
// Serving under faults: reload isolation, peer resets, retry, seeded soak
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

/// Minimal blocking line-protocol client (mirrors tests/test_served.cc).
class Client {
 public:
  explicit Client(uint16_t port) {
    auto socket = Socket::Connect("127.0.0.1", port);
    RRRE_CHECK_OK(socket.status());
    socket_ = std::move(socket).ValueOrDie();
    reader_ = std::make_unique<common::LineReader>(&socket_);
  }

  void Send(const std::string& data) { RRRE_CHECK_OK(socket_.SendAll(data)); }

  std::string MustReadLine() {
    auto line = reader_->ReadLine();
    RRRE_CHECK_OK(line.status());
    RRRE_CHECK(line.value().has_value()) << "unexpected EOF from server";
    return *line.value();
  }

  void Reset() { socket_.CloseWithReset(); }

 private:
  Socket socket_;
  std::unique_ptr<common::LineReader> reader_;
};

class FaultServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(17);
    corpus_ = new data::ReviewDataset(data::GenerateSyntheticDataset(
        data::YelpChiProfile(0.05), rng));
    core::RrreTrainer trainer(TinyConfig());
    trainer.Fit(*corpus_);
    // ctest runs every test as its own process, concurrently: the fixture
    // paths must be per-process or parallel tests race on the checkpoint.
    prefix_ = new std::string(::testing::TempDir() + "/fp_serve_ckpt_" +
                              std::to_string(::getpid()));
    ASSERT_TRUE(trainer.Save(*prefix_).ok());
    // The byte-exact reference is a trainer *loaded* from the checkpoint,
    // same as the server's, so float round-trips cancel out.
    ref_trainer_ = new core::RrreTrainer(TinyConfig());
    ASSERT_TRUE(ref_trainer_->Load(*prefix_).ok());
    ref_scorer_ = new core::BatchScorer(ref_trainer_);
  }

  static void TearDownTestSuite() {
    for (const char* suffix :
         {".model", ".vocab", ".train.tsv", ".meta", ".optimizer"}) {
      std::remove((*prefix_ + suffix).c_str());
    }
    delete ref_scorer_;
    delete ref_trainer_;
    delete corpus_;
    delete prefix_;
    ref_scorer_ = nullptr;
    ref_trainer_ = nullptr;
    corpus_ = nullptr;
    prefix_ = nullptr;
  }

  void SetUp() override { failpoint::DisarmAll(); }
  void TearDown() override { failpoint::DisarmAll(); }

  static serve::ServerOptions BaseOptions() {
    serve::ServerOptions options;
    options.config = TinyConfig();
    options.model_prefix = *prefix_;
    options.port = 0;
    return options;
  }

  static std::unique_ptr<serve::Server> StartServer(
      const serve::ServerOptions& options) {
    auto server = serve::Server::Start(options);
    RRRE_CHECK_OK(server.status());
    return std::move(server).ValueOrDie();
  }

  static std::string ExpectedScoreLine(int64_t user, int64_t item) {
    const auto preds = ref_scorer_->Score({{user, item}});
    std::string line = serve::FormatScoreLine(user, item, preds.ratings[0],
                                              preds.reliabilities[0]);
    line.pop_back();  // Clients strip the '\n'.
    return line;
  }

  /// Runs one synchronous reload and returns its reported status.
  static Status ReloadSync(serve::Server* server) {
    std::promise<Status> done;
    server->Reload([&done](const Status& status, int64_t /*generation*/) {
      done.set_value(status);
    });
    return done.get_future().get();
  }

  static data::ReviewDataset* corpus_;
  static core::RrreTrainer* ref_trainer_;
  static core::BatchScorer* ref_scorer_;
  static std::string* prefix_;
};

data::ReviewDataset* FaultServeTest::corpus_ = nullptr;
core::RrreTrainer* FaultServeTest::ref_trainer_ = nullptr;
core::BatchScorer* FaultServeTest::ref_scorer_ = nullptr;
std::string* FaultServeTest::prefix_ = nullptr;

TEST_F(FaultServeTest, FailedReloadKeepsServingTheOldSnapshot) {
  auto server = StartServer(BaseOptions());
  Client client(server->port());
  client.Send("3\t1\n");
  EXPECT_EQ(client.MustReadLine(), ExpectedScoreLine(3, 1));

  failpoint::Config once;
  once.count = 1;
  failpoint::Arm("serve.reload", once);
  const Status failed = ReloadSync(server.get());
  EXPECT_FALSE(failed.ok());
  EXPECT_NE(failed.ToString().find("serve.reload"), std::string::npos);
  EXPECT_EQ(server->batcher().generation(), 0);  // No swap happened.

  // The old snapshot keeps answering, byte-identical to before the fault.
  client.Send("3\t1\n4\t2\n");
  EXPECT_EQ(client.MustReadLine(), ExpectedScoreLine(3, 1));
  EXPECT_EQ(client.MustReadLine(), ExpectedScoreLine(4, 2));

  // With the fault cleared the same reload succeeds.
  EXPECT_TRUE(ReloadSync(server.get()).ok());
  EXPECT_EQ(server->batcher().generation(), 1);
  client.Send("3\t1\n");
  EXPECT_EQ(client.MustReadLine(), ExpectedScoreLine(3, 1));
}

TEST_F(FaultServeTest, PeerResetMidPipelineDoesNotDisturbOtherConnections) {
  serve::ServerOptions options = BaseOptions();
  options.read_timeout_ms = 2000;  // Reset connections must not pin a drain.
  auto server = StartServer(options);

  // Client B opens first and stays polite throughout.
  Client polite(server->port());
  for (int round = 0; round < 3; ++round) {
    // A rude client pipelines requests and resets without reading a byte;
    // its responses hit a dead socket mid-write.
    Client rude(server->port());
    std::string burst;
    for (int64_t i = 0; i < 8; ++i) {
      burst += std::to_string(i) + "\t" + std::to_string(i % 3) + "\n";
    }
    rude.Send(burst + "0\t");  // Plus an unterminated partial line.
    rude.Reset();

    // The polite client's pipelined burst still gets every response, in
    // order, byte-identical to the reference model.
    polite.Send("1\t2\nPING\n2\t0\n");
    EXPECT_EQ(polite.MustReadLine(), ExpectedScoreLine(1, 2)) << round;
    EXPECT_EQ(polite.MustReadLine(), "#pong") << round;
    EXPECT_EQ(polite.MustReadLine(), ExpectedScoreLine(2, 0)) << round;
  }
  server->Shutdown();
  const serve::ServerStats stats = server->stats();
  EXPECT_GE(stats.connections_accepted, 4);
}

TEST_F(FaultServeTest, LoadgenRetriesThroughATransientOverload) {
  serve::ServerOptions options = BaseOptions();
  options.batcher.queue_capacity = 1;  // Any concurrency overflows the queue.
  auto server = StartServer(options);
  server->batcher().Pause();  // Admission stays open; nothing is scored.

  serve::LoadGenOptions load;
  load.port = server->port();
  load.connections = 2;
  load.total_requests = 40;
  load.seed = 9;
  load.num_users = corpus_->num_users();
  load.num_items = corpus_->num_items();
  load.max_retries = 200;
  load.backoff_base_us = 500;
  load.backoff_cap_us = 20000;

  auto future = std::async(std::launch::async,
                           [&load] { return serve::RunLoadGen(load); });
  // Resume only after admission control has demonstrably refused a request:
  // a refusal means some loadgen connection received "!ERR overload" and is
  // retrying, so `retried > 0` below is guaranteed rather than a race
  // against a wall-clock sleep (the old 100ms nap lost under `ctest -j`).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server->stats().batcher.rejected == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GT(server->stats().batcher.rejected, 0) << "loadgen never overflowed";
  server->batcher().Resume();
  auto report = future.get();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Every request eventually scored; the pause forced at least one retry,
  // and no request ran out of retry budget.
  EXPECT_EQ(report.value().scored, 40);
  EXPECT_EQ(report.value().overloaded, 0);
  EXPECT_GT(report.value().retried, 0);
  EXPECT_EQ(report.value().sent,
            report.value().scored + report.value().retried);
}

TEST_F(FaultServeTest, LoadgenAccountsExhaustedRetriesAsOverloadsNotErrors) {
  // A request that is still refused after its final retry must settle as
  // `overloaded` — never as a transport/`errors` count — and the attempt
  // accounting must add up exactly:
  //   sent == scored + overloaded + errors + retried.
  // Setup: a paused batcher whose single queue slot is pinned by a side
  // client, so every loadgen attempt deterministically answers overload.
  serve::ServerOptions options = BaseOptions();
  options.batcher.queue_capacity = 1;
  options.batcher.start_paused = true;
  auto server = StartServer(options);

  Client pin(server->port());
  pin.Send("0\t0\n");  // Occupies the only queue slot until Resume.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server->stats().batcher.submitted == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(server->stats().batcher.submitted, 1);

  serve::LoadGenOptions load;
  load.port = server->port();
  load.connections = 1;
  load.total_requests = 5;
  load.seed = 11;
  load.num_users = corpus_->num_users();
  load.num_items = corpus_->num_items();
  load.max_retries = 2;
  load.backoff_base_us = 200;
  load.backoff_cap_us = 1000;
  auto report = serve::RunLoadGen(load);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const serve::LoadGenReport& r = report.value();
  EXPECT_EQ(r.scored, 0);
  EXPECT_EQ(r.overloaded, 5);   // One per request, after the final retry.
  EXPECT_EQ(r.errors, 0);       // Overload exhaustion is not an error.
  EXPECT_EQ(r.retried, 10);     // max_retries re-sends per request.
  EXPECT_EQ(r.sent, 15);        // 5 requests x (1 first try + 2 retries).
  EXPECT_EQ(r.sent, r.scored + r.overloaded + r.errors + r.retried);

  server->batcher().Resume();  // Unpin the side client so the drain is clean.
  EXPECT_EQ(pin.MustReadLine(), ExpectedScoreLine(0, 0));
}

TEST_F(FaultServeTest, SeededFaultScheduleSoak) {
  // The capstone: a randomized fault schedule — replayable from kSoakSeed
  // plus the per-point seeds below — thrown at a live server. Invariants
  // asserted throughout:
  //   1. the server never crashes or wedges,
  //   2. every score response is byte-identical to the reference model
  //      (never a torn or half-reloaded snapshot),
  //   3. failed reloads leave the old snapshot serving,
  //   4. after DisarmAll a clean client sees a fully healthy server.
  constexpr uint64_t kSoakSeed = 0xfa17;
  serve::ServerOptions options = BaseOptions();
  options.batcher.queue_capacity = 64;
  options.read_timeout_ms = 2000;
  auto server = StartServer(options);

  // Socket-level faults that degrade but never sever: every send/recv in
  // the process (client and server side alike) randomly shrinks to 1 byte
  // or takes EINTR storms, according to per-point seeded schedules.
  ASSERT_TRUE(failpoint::ArmFromSpec("sock.send.short:short=1,prob=0.2,seed=101;"
                                     "sock.recv.short:short=1,prob=0.2,seed=202;"
                                     "sock.send.eintr:prob=0.1,seed=303;"
                                     "sock.recv.eintr:prob=0.1,seed=404")
                  .ok());

  Rng soak(kSoakSeed);
  const int64_t num_users = corpus_->num_users();
  const int64_t num_items = corpus_->num_items();
  int64_t failed_reloads = 0;
  for (int round = 0; round < 12; ++round) {
    if (soak.Bernoulli(0.4)) {
      // A rude client: pipelined burst, maybe a partial line, then RST.
      Client rude(server->port());
      std::string burst;
      const int64_t k = 1 + static_cast<int64_t>(soak.UniformInt(4));
      for (int64_t i = 0; i < k; ++i) {
        burst += std::to_string(soak.UniformInt(
                     static_cast<uint64_t>(num_users))) +
                 "\t" +
                 std::to_string(soak.UniformInt(
                     static_cast<uint64_t>(num_items))) +
                 "\n";
      }
      if (soak.Bernoulli(0.5)) burst += "7\t";  // Unterminated tail.
      rude.Send(burst);
      rude.Reset();
    }
    if (soak.Bernoulli(0.4)) {
      // A reload that dies at the serve.reload seam: reported as an error,
      // snapshot generation unchanged.
      failpoint::Config once;
      once.count = 1;
      failpoint::Arm("serve.reload", once);
      EXPECT_FALSE(ReloadSync(server.get()).ok()) << "round " << round;
      failpoint::Disarm("serve.reload");
      ++failed_reloads;
      EXPECT_EQ(server->batcher().generation(), 0) << "round " << round;
    }
    // A well-behaved client drives real traffic through the degraded
    // sockets and checks every response byte-for-byte.
    Client client(server->port());
    const int64_t k = 1 + static_cast<int64_t>(soak.UniformInt(6));
    std::vector<std::pair<int64_t, int64_t>> pairs;
    std::string wire;
    for (int64_t i = 0; i < k; ++i) {
      const int64_t user = static_cast<int64_t>(
          soak.UniformInt(static_cast<uint64_t>(num_users)));
      const int64_t item = static_cast<int64_t>(
          soak.UniformInt(static_cast<uint64_t>(num_items)));
      pairs.emplace_back(user, item);
      wire += std::to_string(user) + "\t" + std::to_string(item) + "\n";
    }
    client.Send(wire);
    for (size_t i = 0; i < pairs.size(); ++i) {
      const std::string line = client.MustReadLine();
      if (serve::IsOverloadLine(line)) continue;  // Clean shedding is legal.
      EXPECT_EQ(line, ExpectedScoreLine(pairs[i].first, pairs[i].second))
          << "round " << round << " request " << i;
    }
  }
  EXPECT_GT(failed_reloads, 0);  // The schedule exercised the reload seam.

  // Faults off: the same server, never restarted, is fully healthy.
  failpoint::DisarmAll();
  Client clean(server->port());
  clean.Send("1\t1\nPING\n");
  EXPECT_EQ(clean.MustReadLine(), ExpectedScoreLine(1, 1));
  EXPECT_EQ(clean.MustReadLine(), "#pong");
  EXPECT_EQ(server->batcher().generation(), 0);
  server->Shutdown();
  EXPECT_GT(server->stats().requests, 0);
}

}  // namespace
}  // namespace rrre
