// Fault-injection and correctness tests of the rrre_routed sharding proxy:
// rendezvous placement, routed-vs-direct byte identity (pairs, catalogs sent
// whole to each home shard, protocol errors), replica failover with a shard
// killed mid-stream, injected transport faults on every router.backend.*
// seam (inside a catalog's answer too), rolling-reload barrier invariants
// and fleet bounds, fingerprint quarantine, METRICS aggregation, and the
// client connection limit, read deadline and line bound. This suite runs
// under ASan and TSan in tools/check.sh.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/socket.h"
#include "core/scorer.h"
#include "core/tower_store.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "serve/loadgen.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/server.h"

namespace rrre::serve {
namespace {

using common::Rng;
using common::Socket;

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

/// Minimal blocking line-protocol client (same shape as test_served's).
class Client {
 public:
  /// `recv_timeout_ms` > 0 bounds each read, so an answer that never comes
  /// fails the read instead of hanging the test.
  explicit Client(uint16_t port, int recv_timeout_ms = 0) {
    auto socket = Socket::Connect("127.0.0.1", port);
    RRRE_CHECK_OK(socket.status());
    socket_ = std::move(socket).ValueOrDie();
    if (recv_timeout_ms > 0) {
      RRRE_CHECK_OK(socket_.SetRecvTimeout(recv_timeout_ms));
    }
    reader_ = std::make_unique<common::LineReader>(&socket_);
  }

  void Send(const std::string& data) { RRRE_CHECK_OK(socket_.SendAll(data)); }

  std::optional<std::string> ReadLine() {
    auto line = reader_->ReadLine();
    RRRE_CHECK_OK(line.status());
    return std::move(line).ValueOrDie();
  }

  std::string MustReadLine() {
    auto line = ReadLine();
    RRRE_CHECK(line.has_value()) << "unexpected EOF from router";
    return *line;
  }

  /// Up to `n` lines, stopping at the first failed read (EOF, or a passed
  /// receive deadline).
  std::vector<std::string> TryReadLines(size_t n) {
    std::vector<std::string> lines;
    while (lines.size() < n) {
      auto line = reader_->ReadLine();
      if (!line.ok() || !line.value().has_value()) break;
      lines.push_back(std::move(*line.value()));
    }
    return lines;
  }

 private:
  Socket socket_;
  std::unique_ptr<common::LineReader> reader_;
};

bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 20000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// ---------------------------------------------------------------------------
// Placement unit tests (no servers involved)
// ---------------------------------------------------------------------------

TEST(PlacementTest, PreferenceOrderIsACompletePermutationAndStable) {
  for (int64_t user = 0; user < 200; ++user) {
    const std::vector<int> order = PreferenceOrder(user, 5);
    ASSERT_EQ(order.size(), 5u) << "user " << user;
    EXPECT_EQ(std::set<int>(order.begin(), order.end()).size(), 5u)
        << "user " << user;
    // Deterministic: a pure function of (user, fleet size), which is what
    // lets a restarted router route identically.
    EXPECT_EQ(order, PreferenceOrder(user, 5)) << "user " << user;
  }
}

TEST(PlacementTest, EveryBackendOwnsASliceOfTheKeySpace) {
  std::vector<int64_t> owned(4, 0);
  constexpr int64_t kUsers = 2000;
  for (int64_t user = 0; user < kUsers; ++user) {
    ++owned[static_cast<size_t>(PreferenceOrder(user, 4)[0])];
  }
  for (int b = 0; b < 4; ++b) {
    // Nobody should starve or hog.
    EXPECT_GT(owned[static_cast<size_t>(b)], kUsers / 20) << "backend " << b;
    EXPECT_LT(owned[static_cast<size_t>(b)], kUsers / 2) << "backend " << b;
  }
}

TEST(PlacementTest, GrowingTheFleetOnlyMovesKeysToTheNewBackend) {
  // A backend's weight for a user depends only on (user, backend), so going
  // 4 -> 5 backends adds backend 4's weights and changes no other: every key
  // either keeps its old home or moves to the new backend, roughly 1/5 of
  // them.
  constexpr int64_t kUsers = 2000;
  int64_t moved = 0;
  for (int64_t user = 0; user < kUsers; ++user) {
    const int old_home = PreferenceOrder(user, 4)[0];
    const int new_home = PreferenceOrder(user, 5)[0];
    if (new_home != old_home) {
      EXPECT_EQ(new_home, 4) << "user " << user
                             << " moved between pre-existing backends";
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, kUsers / 2);  // Nothing close to a full reshuffle.
}

TEST(PlacementTest, ADeadShardsUsersSpreadOverEveryOtherShard) {
  // Failover takes a user's second choice: the users homed on backend 0
  // must not all land on one survivor when it dies.
  constexpr int64_t kUsers = 2000;
  std::vector<int64_t> second(4, 0);
  int64_t homed = 0;
  for (int64_t user = 0; user < kUsers; ++user) {
    const std::vector<int> order = PreferenceOrder(user, 4);
    if (order[0] != 0) continue;
    ++homed;
    ++second[static_cast<size_t>(order[1])];
  }
  ASSERT_GT(homed, 0);
  for (int b = 1; b < 4; ++b) {
    EXPECT_GT(second[static_cast<size_t>(b)], homed / 10) << "backend " << b;
  }
}

// ---------------------------------------------------------------------------
// Routed serving fixture: a small trained fleet plus byte-exact references
// ---------------------------------------------------------------------------

class RouterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng_a(27);
    corpus_ = new data::ReviewDataset(
        data::GenerateSyntheticDataset(data::YelpChiProfile(0.05), rng_a));
    core::RrreTrainer trainer_a(TinyConfig());
    trainer_a.Fit(*corpus_);
    // ctest runs every test as its own process, concurrently: the fixture
    // paths must be per-process or parallel tests race on the checkpoint
    // (one process's TearDownTestSuite deletes the files another is loading).
    prefix_a_ = new std::string(::testing::TempDir() + "/router_ckpt_a_" +
                                std::to_string(::getpid()));
    ASSERT_TRUE(trainer_a.Save(*prefix_a_).ok());

    Rng rng_b(99);
    data::ReviewDataset corpus_b =
        data::GenerateSyntheticDataset(data::YelpChiProfile(0.05), rng_b);
    trainer_b_ = new core::RrreTrainer(TinyConfig());
    trainer_b_->Fit(corpus_b);

    ref_trainer_a_ = new core::RrreTrainer(TinyConfig());
    ASSERT_TRUE(ref_trainer_a_->Load(*prefix_a_).ok());
    ref_scorer_a_ = new core::BatchScorer(ref_trainer_a_);
  }

  static void TearDownTestSuite() {
    for (const char* suffix :
         {".model", ".vocab", ".train.tsv", ".meta", ".optimizer"}) {
      std::remove((*prefix_a_ + suffix).c_str());
    }
    delete ref_scorer_a_;
    delete ref_trainer_a_;
    delete trainer_b_;
    delete corpus_;
    delete prefix_a_;
    ref_scorer_a_ = nullptr;
    ref_trainer_a_ = nullptr;
    trainer_b_ = nullptr;
    corpus_ = nullptr;
    prefix_a_ = nullptr;
  }

  void TearDown() override { common::failpoint::DisarmAll(); }

  static std::unique_ptr<Server> StartBackend(const std::string& prefix) {
    ServerOptions options;
    options.config = TinyConfig();
    options.model_prefix = prefix;
    options.port = 0;
    auto server = Server::Start(options);
    RRRE_CHECK_OK(server.status());
    return std::move(server).ValueOrDie();
  }

  static std::vector<std::unique_ptr<Server>> StartFleet(int n) {
    std::vector<std::unique_ptr<Server>> fleet;
    for (int i = 0; i < n; ++i) fleet.push_back(StartBackend(*prefix_a_));
    return fleet;
  }

  static RouterOptions RoutedOptions(
      const std::vector<std::unique_ptr<Server>>& fleet) {
    RouterOptions options;
    for (const auto& server : fleet) {
      options.backends.push_back({"127.0.0.1", server->port()});
    }
    options.port = 0;
    options.health_period_ms = 50;
    options.backoff_base_us = 100;  // Keep failover tests fast.
    options.backoff_cap_us = 2000;
    return options;
  }

  static std::unique_ptr<Router> StartRouter(const RouterOptions& options) {
    auto router = Router::Start(options);
    RRRE_CHECK_OK(router.status());
    return std::move(router).ValueOrDie();
  }

  /// The exact response line direct serving promises for (user, item).
  static std::string ExpectedScoreLine(int64_t user, int64_t item) {
    const auto preds = ref_scorer_a_->Score({{user, item}});
    std::string line =
        FormatScoreLine(user, item, preds.ratings[0], preds.reliabilities[0]);
    line.pop_back();  // Clients strip '\n'.
    return line;
  }

  /// The full catalog response (header + per-item lines, '\n'-joined, no
  /// trailing terminator on the last line) a direct backend would serve.
  static std::vector<std::string> ExpectedCatalog(
      core::BatchScorer* scorer, int64_t user, int64_t num_items) {
    std::vector<std::string> lines;
    std::string header = FormatCatalogHeader(user, num_items);
    header.pop_back();
    lines.push_back(std::move(header));
    const auto preds = scorer->ScoreAllItemsForUser(user);
    for (int64_t item = 0; item < num_items; ++item) {
      std::string line = FormatScoreLine(user, item, preds.ratings[item],
                                         preds.reliabilities[item]);
      line.pop_back();
      lines.push_back(std::move(line));
    }
    return lines;
  }

  /// Rolls a two-shard fleet from checkpoint A to B while shard `failed`'s
  /// reload fails at the serve.reload seam (the router reloads shards in
  /// index order). The roll must answer at once, quarantine exactly that
  /// shard and serve B from the other; the next RELOAD brings it back.
  static void RollWithOneFailedReload(int failed) {
    const std::string prefix = ::testing::TempDir() + "/router_partial_ckpt_" +
                               std::to_string(::getpid());
    ASSERT_TRUE(ref_trainer_a_->Save(prefix).ok());
    std::vector<std::unique_ptr<Server>> fleet;
    fleet.push_back(StartBackend(prefix));
    fleet.push_back(StartBackend(prefix));
    auto router = StartRouter(RoutedOptions(fleet));
    ASSERT_TRUE(trainer_b_->Save(prefix).ok());
    const auto fp_b = core::CheckpointParamsFingerprint(prefix);
    ASSERT_TRUE(fp_b.ok());
    core::RrreTrainer loaded_b(TinyConfig());
    ASSERT_TRUE(loaded_b.Load(prefix).ok());
    core::BatchScorer scorer_b(&loaded_b);

    common::failpoint::Config once;
    once.after = failed;
    once.count = 1;
    common::failpoint::Arm("serve.reload", once);
    Client client(router->port());
    const auto start = std::chrono::steady_clock::now();
    client.Send("RELOAD\n");
    const std::string line = client.MustReadLine();
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    EXPECT_EQ(line.find("!ERR\treload\t"), 0u) << line;
    EXPECT_LT(seconds, 5.0) << "the roll waited on a shard that cannot load";
    EXPECT_EQ(common::failpoint::FireCount("serve.reload"), 1);
    EXPECT_FALSE(router->BackendServing(failed));
    EXPECT_TRUE(router->BackendServing(1 - failed));
    EXPECT_EQ(router->stats().quarantined, 1);
    EXPECT_EQ(router->fleet_fingerprint(), fp_b.value());
    // Users homed on the quarantined shard fail over: every pair scores B.
    for (int64_t user = 0; user < 6; ++user) {
      const auto preds = scorer_b.Score({{user, 1}});
      std::string expected =
          FormatScoreLine(user, 1, preds.ratings[0], preds.reliabilities[0]);
      expected.pop_back();
      client.Send(std::to_string(user) + "\t1\n");
      EXPECT_EQ(client.MustReadLine(), expected) << "user " << user;
    }

    // The failpoint is spent: the next roll reloads the quarantined shard.
    client.Send("RELOAD\n");
    const std::string again = client.MustReadLine();
    EXPECT_EQ(again.find("#reloaded\t"), 0u) << again;
    EXPECT_EQ(router->stats().quarantined, 0);
    EXPECT_EQ(fleet[static_cast<size_t>(failed)]->stats().batcher.reloads, 1);
    EXPECT_EQ(router->fleet_fingerprint(), fp_b.value());
    router->Shutdown();
    for (const char* suffix :
         {".model", ".vocab", ".train.tsv", ".meta", ".optimizer"}) {
      std::remove((prefix + suffix).c_str());
    }
  }

  static data::ReviewDataset* corpus_;
  static core::RrreTrainer* trainer_b_;
  static core::RrreTrainer* ref_trainer_a_;
  static core::BatchScorer* ref_scorer_a_;
  static std::string* prefix_a_;
};

data::ReviewDataset* RouterTest::corpus_ = nullptr;
core::RrreTrainer* RouterTest::trainer_b_ = nullptr;
core::RrreTrainer* RouterTest::ref_trainer_a_ = nullptr;
core::BatchScorer* RouterTest::ref_scorer_a_ = nullptr;
std::string* RouterTest::prefix_a_ = nullptr;

TEST_F(RouterTest, RoutedPairsAreByteIdenticalToDirectServing) {
  auto fleet = StartFleet(3);
  auto router = StartRouter(RoutedOptions(fleet));
  Client client(router->port());
  // Pipeline pairs that hash to every shard; interleave PINGs to prove the
  // response stream stays aligned through the proxy.
  std::string wire;
  std::vector<std::string> expected;
  for (int64_t i = 0; i < 30; ++i) {
    const int64_t user = i % corpus_->num_users();
    const int64_t item = (i * 3) % corpus_->num_items();
    wire += std::to_string(user) + "\t" + std::to_string(item) + "\n";
    expected.push_back(ExpectedScoreLine(user, item));
    if (i % 10 == 9) {
      wire += "PING\n";
      expected.push_back("#pong");
    }
  }
  client.Send(wire);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(client.MustReadLine(), expected[i]) << "response " << i;
  }
  EXPECT_EQ(router->stats().upstream_errors, 0);
  // With a healthy fleet, nothing should have failed over.
  EXPECT_EQ(router->stats().failovers, 0);
}

TEST_F(RouterTest, CatalogsGoWholeToEachHomeShardByteIdentically) {
  auto fleet = StartFleet(3);
  auto router = StartRouter(RoutedOptions(fleet));
  Client client(router->port());
  // One catalog for a user homed on each shard: each shard scores exactly
  // the one catalog homed on it, as one request.
  for (int shard = 0; shard < 3; ++shard) {
    int64_t user = 0;
    while (router->HomeShard(user) != shard) ++user;
    ASSERT_LT(user, corpus_->num_users()) << "shard " << shard;
    const std::vector<std::string> expected =
        ExpectedCatalog(ref_scorer_a_, user, corpus_->num_items());
    client.Send(std::to_string(user) + "\n");
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(client.MustReadLine(), expected[i])
          << "user " << user << " line " << i;
    }
  }
  for (int shard = 0; shard < 3; ++shard) {
    EXPECT_EQ(fleet[static_cast<size_t>(shard)]->stats().batcher.submitted, 1)
        << "shard " << shard;
  }
  EXPECT_EQ(router->stats().fanouts, 3);
  EXPECT_EQ(router->stats().failovers, 0);
  EXPECT_EQ(router->stats().upstream_errors, 0);
}

TEST_F(RouterTest, ParseAndRangeErrorsMatchDirectServing) {
  auto fleet = StartFleet(2);
  auto router = StartRouter(RoutedOptions(fleet));
  Client direct(fleet[0]->port());
  Client routed(router->port());
  // Parse errors are answered by the router itself; range errors are relayed
  // from the home shard. Either way the bytes must match a direct backend.
  const std::string wire = "x\ty\n999999\t0\n0\t999999\n999999\nPING\n";
  direct.Send(wire);
  routed.Send(wire);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(routed.MustReadLine(), direct.MustReadLine()) << "response " << i;
  }
  EXPECT_EQ(router->stats().parse_errors, 1);
}

TEST_F(RouterTest, KilledShardFailsOverWithoutDroppingARequest) {
  // The acceptance scenario: one of three shards dies mid-stream. Every
  // pipelined request must still be answered, byte-identical to direct
  // serving — the kill shows up only in the failover counters.
  auto fleet = StartFleet(3);
  auto router = StartRouter(RoutedOptions(fleet));
  Client client(router->port());
  constexpr int64_t kRequests = 60;
  int victim = -1;
  for (int64_t i = 0; i < kRequests; ++i) {
    const int64_t user = i % corpus_->num_users();
    const int64_t item = (i * 7) % corpus_->num_items();
    if (i == kRequests / 3) {
      // Kill exactly the shard the *next* request homes on: its link in the
      // routed connection is live from the first third of the stream, so the
      // failure is observed mid-conversation, not at connect time.
      victim = router->HomeShard(user);
      fleet[static_cast<size_t>(victim)]->Shutdown();
    }
    client.Send(std::to_string(user) + "\t" + std::to_string(item) + "\n");
    ASSERT_EQ(client.MustReadLine(), ExpectedScoreLine(user, item))
        << "request " << i;
  }
  const RouterStats stats = router->stats();
  EXPECT_EQ(stats.upstream_errors, 0);
  EXPECT_GT(stats.failovers, 0);  // The victim's users were re-homed live.
}

TEST_F(RouterTest, CatalogSurvivesAKilledShardMidFanout) {
  auto fleet = StartFleet(3);
  auto router = StartRouter(RoutedOptions(fleet));
  Client client(router->port());
  // A warm-up catalog opens the routed connection's link to the user's home
  // shard; then that shard dies, and the next catalog must fail over whole
  // to the next shard in the user's order.
  constexpr int64_t kUser = 5;
  const std::vector<std::string> expected =
      ExpectedCatalog(ref_scorer_a_, kUser, corpus_->num_items());
  client.Send(std::to_string(kUser) + "\n");
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(client.MustReadLine(), expected[i]) << "warmup line " << i;
  }
  fleet[static_cast<size_t>(router->HomeShard(kUser))]->Shutdown();
  client.Send(std::to_string(kUser) + "\n");
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(client.MustReadLine(), expected[i]) << "line " << i;
  }
  EXPECT_GE(router->stats().failovers, 1);
  EXPECT_EQ(router->stats().upstream_errors, 0);
}

TEST_F(RouterTest, InjectedTransportFaultsOnEverySeamFailOver) {
  // Each router.backend.* seam, armed to fire once, must cost one retry —
  // never a wrong or missing response. The seams cover the fault taxonomy:
  // never-sent, reset-after-send (maybe delivered), stalled awaiting the
  // response, and a response torn mid-line. Each seam fires once in the
  // first pair, then once inside a catalog: at its send, or past the two
  // pairs' reads and the header, so the whole catalog is retried.
  auto fleet = StartFleet(2);
  RouterOptions options = RoutedOptions(fleet);
  options.backend_timeout_ms = 2000;
  auto router = StartRouter(options);
  const int64_t num_items = corpus_->num_items();
  const std::vector<std::string> catalog =
      ExpectedCatalog(ref_scorer_a_, 4, num_items);
  // Each request is one send and each answer line one read, in order: sends
  // 0 and 1 and reads 0 and 1 are the pairs', send 2 is the catalog's, read
  // 2 its header and read 3 + k its item line k.
  struct Arming {
    const char* seam;
    int64_t after;
  };
  const Arming armings[] = {
      {"router.backend.send", 0},  {"router.backend.send", 2},
      {"router.backend.reset", 0}, {"router.backend.reset", 2},
      {"router.backend.stall", 0}, {"router.backend.stall", 3 + num_items / 2},
      {"router.backend.torn", 0},  {"router.backend.torn", 3 + num_items / 2},
  };
  for (const Arming& arming : armings) {
    SCOPED_TRACE(std::string(arming.seam) + " after " +
                 std::to_string(arming.after));
    common::failpoint::Config config;
    config.after = arming.after;
    config.count = 1;
    common::failpoint::Arm(arming.seam, config);
    const int64_t retries_before = router->stats().retries;
    Client client(router->port());
    client.Send("1\t2\n2\t3\n4\n");
    EXPECT_EQ(client.MustReadLine(), ExpectedScoreLine(1, 2));
    EXPECT_EQ(client.MustReadLine(), ExpectedScoreLine(2, 3));
    for (size_t i = 0; i < catalog.size(); ++i) {
      ASSERT_EQ(client.MustReadLine(), catalog[i]) << "catalog line " << i;
    }
    EXPECT_EQ(common::failpoint::FireCount(arming.seam), 1);
    EXPECT_EQ(router->stats().retries, retries_before + 1);
    common::failpoint::DisarmAll();
  }
  EXPECT_EQ(router->stats().upstream_errors, 0);
}

TEST_F(RouterTest, ExhaustedReplicasAnswerAnUpstreamError) {
  auto fleet = StartFleet(2);
  RouterOptions options = RoutedOptions(fleet);
  options.max_retries = 1;
  auto router = StartRouter(options);
  // Every attempt (home + the single retry) hits an injected never-sent
  // failure, so the request must settle as an explicit upstream error — not
  // hang, not a dropped connection.
  common::failpoint::Arm("router.backend.send");
  Client client(router->port());
  client.Send("1\t2\nPING\n");
  const std::string line = client.MustReadLine();
  EXPECT_EQ(line.find("!ERR\tupstream\t"), 0u) << line;
  common::failpoint::DisarmAll();
  EXPECT_EQ(client.MustReadLine(), "#pong");  // Stream stays aligned.
  EXPECT_EQ(router->stats().upstream_errors, 1);
}

TEST_F(RouterTest, RollingReloadSwitchesTheFleetBehindTheBarrier) {
  // Two shards serving a private copy of checkpoint A; overwrite with B and
  // RELOAD through the router: afterwards both shards serve B (fingerprint
  // converged), and the routed scores are byte-identical to a fresh Load of
  // B — proving the roll touched every shard.
  const std::string prefix = ::testing::TempDir() + "/router_roll_ckpt_" +
                             std::to_string(::getpid());
  ASSERT_TRUE(ref_trainer_a_->Save(prefix).ok());
  std::vector<std::unique_ptr<Server>> fleet;
  fleet.push_back(StartBackend(prefix));
  fleet.push_back(StartBackend(prefix));
  auto router = StartRouter(RoutedOptions(fleet));
  const uint64_t fp_before = router->fleet_fingerprint();
  ASSERT_NE(fp_before, 0u);

  Client client(router->port());
  client.Send("1\t2\n");
  EXPECT_EQ(client.MustReadLine(), ExpectedScoreLine(1, 2));

  ASSERT_TRUE(trainer_b_->Save(prefix).ok());
  client.Send("RELOAD\n");
  const std::string reloaded = client.MustReadLine();
  EXPECT_EQ(reloaded.find("#reloaded\t"), 0u) << reloaded;
  EXPECT_NE(router->fleet_fingerprint(), fp_before);
  EXPECT_EQ(router->stats().quarantined, 0);

  core::RrreTrainer loaded_b(TinyConfig());
  ASSERT_TRUE(loaded_b.Load(prefix).ok());
  core::BatchScorer scorer_b(&loaded_b);
  const auto preds = scorer_b.Score({{1, 2}});
  std::string expected =
      FormatScoreLine(1, 2, preds.ratings[0], preds.reliabilities[0]);
  expected.pop_back();
  for (int round = 0; round < 6; ++round) {
    client.Send("1\t2\n");
    EXPECT_EQ(client.MustReadLine(), expected) << "round " << round;
  }
  for (const auto& backend : fleet) {
    EXPECT_EQ(backend->stats().batcher.reloads, 1);
  }
  router->Shutdown();
  for (const char* suffix :
       {".model", ".vocab", ".train.tsv", ".meta", ".optimizer"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST_F(RouterTest, RollingReloadOntoALargerCorpusMovesTheFleetBounds) {
  // A roll onto a checkpoint trained on a larger corpus moves the fleet's
  // user and item bounds with its fingerprint: router STATS reports them,
  // catalogs for a new user and an old one carry every new item, and the
  // connection stays aligned for the pair after them. Reads carry a
  // deadline, so a catalog the router cuts short fails instead of hanging.
  Rng rng_c(41);
  const data::ReviewDataset corpus_c =
      data::GenerateSyntheticDataset(data::YelpChiProfile(0.08), rng_c);
  ASSERT_GT(corpus_c.num_users(), corpus_->num_users());
  ASSERT_GT(corpus_c.num_items(), corpus_->num_items());
  core::RrreTrainer trainer_c(TinyConfig());
  trainer_c.Fit(corpus_c);
  const std::string prefix = ::testing::TempDir() + "/router_grow_ckpt_" +
                             std::to_string(::getpid());
  ASSERT_TRUE(ref_trainer_a_->Save(prefix).ok());
  std::vector<std::unique_ptr<Server>> fleet;
  fleet.push_back(StartBackend(prefix));
  fleet.push_back(StartBackend(prefix));
  auto router = StartRouter(RoutedOptions(fleet));
  ASSERT_TRUE(trainer_c.Save(prefix).ok());
  core::RrreTrainer loaded_c(TinyConfig());
  ASSERT_TRUE(loaded_c.Load(prefix).ok());
  core::BatchScorer scorer_c(&loaded_c);

  Client client(router->port(), /*recv_timeout_ms=*/5000);
  client.Send("RELOAD\nSTATS\n");
  const std::vector<std::string> rolled = client.TryReadLines(2);
  ASSERT_EQ(rolled.size(), 2u);
  EXPECT_EQ(rolled[0].find("#reloaded\t"), 0u) << rolled[0];
  const auto stats = ParseStatsLine(rolled[1]);
  ASSERT_TRUE(stats.ok()) << rolled[1];
  EXPECT_EQ(stats.value().users, corpus_c.num_users()) << rolled[1];
  EXPECT_EQ(stats.value().items, corpus_c.num_items()) << rolled[1];

  for (const int64_t user : {corpus_->num_users(), int64_t{3}}) {
    const std::vector<std::string> expected =
        ExpectedCatalog(&scorer_c, user, corpus_c.num_items());
    client.Send(std::to_string(user) + "\n");
    EXPECT_EQ(client.TryReadLines(expected.size()), expected)
        << "user " << user;
  }
  const auto preds = scorer_c.Score({{1, 2}});
  std::string expected_pair =
      FormatScoreLine(1, 2, preds.ratings[0], preds.reliabilities[0]);
  expected_pair.pop_back();
  client.Send("1\t2\n");
  EXPECT_EQ(client.TryReadLines(1), std::vector<std::string>{expected_pair});
  router->Shutdown();
  for (const char* suffix :
       {".model", ".vocab", ".train.tsv", ".meta", ".optimizer"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST_F(RouterTest, NoCatalogObservesTwoParameterVersionsDuringAReload) {
  // The barrier invariant, attacked: one client hammers full-catalog
  // requests while another rolls the fleet from A to B. Every catalog
  // response must be *entirely* A or *entirely* B — a mixed catalog means a
  // connection observed two parameter versions within one answer.
  const std::string prefix = ::testing::TempDir() + "/router_mix_ckpt_" +
                             std::to_string(::getpid());
  ASSERT_TRUE(ref_trainer_a_->Save(prefix).ok());
  std::vector<std::unique_ptr<Server>> fleet;
  fleet.push_back(StartBackend(prefix));
  fleet.push_back(StartBackend(prefix));
  auto router = StartRouter(RoutedOptions(fleet));

  const int64_t num_items = corpus_->num_items();
  const std::vector<std::string> catalog_a =
      ExpectedCatalog(ref_scorer_a_, 2, num_items);
  ASSERT_TRUE(trainer_b_->Save(prefix).ok());
  core::RrreTrainer loaded_b(TinyConfig());
  ASSERT_TRUE(loaded_b.Load(prefix).ok());
  core::BatchScorer scorer_b(&loaded_b);
  const std::vector<std::string> catalog_b =
      ExpectedCatalog(&scorer_b, 2, num_items);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> catalogs_b{0};
  std::thread attacker([&] {
    Client client(router->port());
    while (!stop.load()) {
      client.Send("2\n");
      std::vector<std::string> got;
      got.push_back(client.MustReadLine());
      for (int64_t i = 0; i < num_items; ++i) {
        got.push_back(client.MustReadLine());
      }
      if (got == catalog_b) {
        catalogs_b.fetch_add(1);
      } else {
        ASSERT_EQ(got, catalog_a) << "catalog mixed parameter versions";
      }
    }
  });
  Client admin(router->port());
  admin.Send("RELOAD\n");
  EXPECT_EQ(admin.MustReadLine().find("#reloaded\t"), 0u);
  // Let the attacker observe the post-roll world before stopping.
  WaitFor([&] { return catalogs_b.load() > 0; });
  stop.store(true);
  attacker.join();
  EXPECT_GT(catalogs_b.load(), 0);
  router->Shutdown();
  for (const char* suffix :
       {".model", ".vocab", ".train.tsv", ".meta", ".optimizer"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST_F(RouterTest, UncertainReloadDeliveryIsVerifiedNeverResent) {
  // Arm a reset that fires on the RELOAD send (after the STATS probe): the
  // request reached the backend but the answer is lost. The router must
  // verify via the generation counter instead of blindly resending — the
  // backend reloads exactly once.
  const std::string prefix = ::testing::TempDir() + "/router_once_ckpt_" +
                             std::to_string(::getpid());
  ASSERT_TRUE(ref_trainer_a_->Save(prefix).ok());
  std::vector<std::unique_ptr<Server>> fleet;
  fleet.push_back(StartBackend(prefix));
  auto router = StartRouter(RoutedOptions(fleet));
  Client client(router->port());
  common::failpoint::Config config;
  config.after = 1;  // Skip the pre-reload STATS probe round trip.
  config.count = 1;
  common::failpoint::Arm("router.backend.reset", config);
  client.Send("RELOAD\n");
  const std::string line = client.MustReadLine();
  EXPECT_EQ(line.find("#reloaded\t"), 0u) << line;
  EXPECT_EQ(common::failpoint::FireCount("router.backend.reset"), 1);
  EXPECT_EQ(fleet[0]->stats().batcher.reloads, 1);  // Once, not twice.
  router->Shutdown();
  for (const char* suffix :
       {".model", ".vocab", ".train.tsv", ".meta", ".optimizer"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST_F(RouterTest, FailedReloadOnFirstShardQuarantinesOnlyIt) {
  RollWithOneFailedReload(0);
}

TEST_F(RouterTest, FailedReloadOnSecondShardQuarantinesOnlyIt) {
  RollWithOneFailedReload(1);
}

TEST_F(RouterTest, SideChannelDivergenceIsQuarantined) {
  // Two backends on two prefixes holding identical parameters (same
  // fingerprint, so startup accepts the fleet). Reload one *behind the
  // router's back* onto different parameters: the health pass must spot the
  // fingerprint divergence and quarantine the shard, and routed traffic must
  // keep scoring under the fleet's version.
  const std::string prefix1 = ::testing::TempDir() + "/router_q1_ckpt_" +
                              std::to_string(::getpid());
  const std::string prefix2 = ::testing::TempDir() + "/router_q2_ckpt_" +
                              std::to_string(::getpid());
  ASSERT_TRUE(ref_trainer_a_->Save(prefix1).ok());
  ASSERT_TRUE(ref_trainer_a_->Save(prefix2).ok());
  std::vector<std::unique_ptr<Server>> fleet;
  fleet.push_back(StartBackend(prefix1));
  fleet.push_back(StartBackend(prefix2));
  auto router = StartRouter(RoutedOptions(fleet));
  ASSERT_TRUE(router->BackendServing(0));
  ASSERT_TRUE(router->BackendServing(1));

  ASSERT_TRUE(trainer_b_->Save(prefix2).ok());
  Client direct(fleet[1]->port());
  direct.Send("RELOAD\n");
  EXPECT_EQ(direct.MustReadLine().find("#reloaded\t"), 0u);
  ASSERT_TRUE(WaitFor([&] { return !router->BackendServing(1); }))
      << "health pass never quarantined the diverged shard";
  EXPECT_EQ(router->stats().quarantined, 1);
  EXPECT_TRUE(router->BackendServing(0));

  // Every user now routes to the converged shard — bytes stay version A.
  Client client(router->port());
  for (int64_t user = 0; user < 6; ++user) {
    client.Send(std::to_string(user) + "\t1\n");
    EXPECT_EQ(client.MustReadLine(), ExpectedScoreLine(user, 1))
        << "user " << user;
  }
  router->Shutdown();
  for (const std::string& prefix : {prefix1, prefix2}) {
    for (const char* suffix :
         {".model", ".vocab", ".train.tsv", ".meta", ".optimizer"}) {
      std::remove((prefix + suffix).c_str());
    }
  }
}

TEST_F(RouterTest, StartupRefusesAFleetServingTwoParameterVersions) {
  const std::string prefix_b = ::testing::TempDir() + "/router_mixfleet_ckpt_" +
                               std::to_string(::getpid());
  ASSERT_TRUE(trainer_b_->Save(prefix_b).ok());
  std::vector<std::unique_ptr<Server>> fleet;
  fleet.push_back(StartBackend(*prefix_a_));
  fleet.push_back(StartBackend(prefix_b));
  auto router = Router::Start(RoutedOptions(fleet));
  EXPECT_FALSE(router.ok());
  EXPECT_NE(router.status().message().find("fingerprint"), std::string::npos)
      << router.status().ToString();
  for (const char* suffix :
       {".model", ".vocab", ".train.tsv", ".meta", ".optimizer"}) {
    std::remove((prefix_b + suffix).c_str());
  }
}

TEST_F(RouterTest, MetricsAggregateEveryShardWithLabels) {
  auto fleet = StartFleet(2);
  auto router = StartRouter(RoutedOptions(fleet));
  Client client(router->port());
  client.Send("0\t1\n1\t2\nMETRICS\n");
  client.MustReadLine();
  client.MustReadLine();
  const std::string header = client.MustReadLine();
  ASSERT_EQ(header.find("#metrics\tlines="), 0u) << header;
  const long long lines =
      std::atoll(header.c_str() + sizeof("#metrics\tlines=") - 1);
  ASSERT_GT(lines, 0) << header;
  std::string text;
  for (long long i = 0; i < lines; ++i) text += client.MustReadLine() + "\n";
  // The router's own series plus every shard's, relabeled per shard.
  EXPECT_NE(text.find("rrre_router_requests_total"), std::string::npos)
      << text;
  EXPECT_NE(text.find("shard=\"0\""), std::string::npos) << text;
  EXPECT_NE(text.find("shard=\"1\""), std::string::npos) << text;
  EXPECT_NE(text.find("rrre_serve_requests_total{shard="), std::string::npos)
      << text;
}

TEST_F(RouterTest, StatsLineDrivesLoadgenBoundsDiscovery) {
  auto fleet = StartFleet(2);
  auto router = StartRouter(RoutedOptions(fleet));
  Client client(router->port());
  client.Send("STATS\n");
  const std::string stats_line = client.MustReadLine();
  EXPECT_EQ(stats_line.find("#stats\t"), 0u) << stats_line;
  EXPECT_NE(stats_line.find("users=" + std::to_string(corpus_->num_users())),
            std::string::npos)
      << stats_line;
  EXPECT_NE(stats_line.find("items=" + std::to_string(corpus_->num_items())),
            std::string::npos)
      << stats_line;
  // The real consumer: loadgen pointed at the router, discovering bounds via
  // STATS and settling every request as a score.
  LoadGenOptions options;
  options.port = router->port();
  options.connections = 2;
  options.total_requests = 40;
  options.seed = 7;
  auto report = RunLoadGen(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().scored, 40);
  EXPECT_EQ(report.value().errors, 0);
}

TEST_F(RouterTest, ConnectionLimitAnswersBusy) {
  auto fleet = StartFleet(1);
  RouterOptions options = RoutedOptions(fleet);
  options.max_connections = 1;
  auto router = StartRouter(options);
  Client first(router->port());
  first.Send("PING\n");
  EXPECT_EQ(first.MustReadLine(), "#pong");  // Guarantees `first` is accepted.
  Client second(router->port());
  const std::string line = second.MustReadLine();
  EXPECT_EQ(line.find("!ERR\tbusy\t"), 0u) << line;
  EXPECT_FALSE(second.ReadLine().has_value());
  EXPECT_EQ(router->stats().connections_rejected, 1);
  first.Send("METRICS\n");
  const std::string header = first.MustReadLine();
  ASSERT_EQ(header.find("#metrics\tlines="), 0u) << header;
  const long long lines =
      std::atoll(header.c_str() + sizeof("#metrics\tlines=") - 1);
  std::string text;
  for (long long i = 0; i < lines; ++i) text += first.MustReadLine() + "\n";
  EXPECT_NE(text.find("\nrrre_router_connections_rejected_total 1\n"),
            std::string::npos)
      << text;
}

TEST_F(RouterTest, SilentClientIsDroppedAtTheReadDeadline) {
  auto fleet = StartFleet(1);
  RouterOptions options = RoutedOptions(fleet);
  options.read_timeout_ms = 200;
  auto router = StartRouter(options);
  Client client(router->port());
  client.Send("PING\n");
  EXPECT_EQ(client.MustReadLine(), "#pong");
  // Then silence: the router closes the connection at the read deadline.
  EXPECT_FALSE(client.ReadLine().has_value());
  EXPECT_EQ(router->stats().read_timeouts, 1);
}

TEST_F(RouterTest, OverlongRequestLineIsAnsweredAndClosed) {
  // The router's twin of the served test: past LineReader::kMaxLineBytes
  // without a newline, a parse error and a closed connection.
  auto fleet = StartFleet(1);
  auto router = StartRouter(RoutedOptions(fleet));
  auto socket = Socket::Connect("127.0.0.1", router->port());
  ASSERT_TRUE(socket.ok());
  ASSERT_TRUE(socket.value().SetRecvTimeout(5000).ok());
  ASSERT_TRUE(socket.value()
                  .SendAll(std::string(common::LineReader::kMaxLineBytes + 1,
                                       '7'))
                  .ok());
  common::LineReader reader(&socket.value());
  auto reply = reader.ReadLine();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply.value().has_value());
  EXPECT_EQ(reply.value()->find("!ERR\tparse\t"), 0u) << *reply.value();
  auto eof = reader.ReadLine();
  ASSERT_TRUE(eof.ok()) << eof.status().ToString();
  EXPECT_FALSE(eof.value().has_value());
  Client fresh(router->port());
  fresh.Send("PING\n");
  EXPECT_EQ(fresh.MustReadLine(), "#pong");
}

TEST_F(RouterTest, ShutdownAnswersInFlightRequestsBeforeClosing) {
  auto fleet = StartFleet(2);
  auto router = StartRouter(RoutedOptions(fleet));
  Client client(router->port());
  client.Send("0\t1\n1\t2\n");
  // Shut down only once both requests are admitted (parsed by the handler),
  // so the test pins the drain guarantee, not an accept race.
  ASSERT_TRUE(WaitFor([&] { return router->stats().requests == 2; }));
  std::thread shutdown_thread([&] { router->Shutdown(); });
  // The handler finishes what the client already pipelined, then half-close
  // surfaces as EOF — no admitted request is dropped.
  EXPECT_EQ(client.MustReadLine(), ExpectedScoreLine(0, 1));
  EXPECT_EQ(client.MustReadLine(), ExpectedScoreLine(1, 2));
  EXPECT_FALSE(client.ReadLine().has_value());
  shutdown_thread.join();
}

}  // namespace
}  // namespace rrre::serve
