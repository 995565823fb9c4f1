// End-to-end tests of the rrre_served online server over real TCP sockets:
// bitwise identity with the offline rrre_serve pipeline, pipelined response
// ordering, protocol errors, overload backpressure, hot checkpoint reload,
// graceful drain, the connection limit, and the connection layer's bounds
// on line length and unsent replies. This suite runs under ThreadSanitizer
// in tools/check.sh.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/io.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/socket.h"
#include "core/scorer.h"
#include "core/serving.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "serve/protocol.h"
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

/// Minimal blocking line-protocol client.
class Client {
 public:
  explicit Client(uint16_t port) {
    auto socket = Socket::Connect("127.0.0.1", port);
    RRRE_CHECK_OK(socket.status());
    socket_ = std::move(socket).ValueOrDie();
    reader_ = std::make_unique<common::LineReader>(&socket_);
  }

  void Send(const std::string& data) { RRRE_CHECK_OK(socket_.SendAll(data)); }

  /// Next response line (terminator stripped); empty optional on EOF.
  std::optional<std::string> ReadLine() {
    auto line = reader_->ReadLine();
    RRRE_CHECK_OK(line.status());
    return std::move(line).ValueOrDie();
  }

  std::string MustReadLine() {
    auto line = ReadLine();
    RRRE_CHECK(line.has_value()) << "unexpected EOF from server";
    return *line;
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

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

/// Two fitted trainers (A, the default checkpoint; B, fitted on a different
/// corpus draw — for the hot-reload switch) shared by the suite. Exact-match
/// references are trainers *loaded* from the checkpoints, same as the server
/// does, so comparisons are byte-for-byte.
class ServedTest : public ::testing::Test {
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
    prefix_a_ = new std::string(::testing::TempDir() + "/served_ckpt_a_" +
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

  static ServerOptions BaseOptions() {
    ServerOptions options;
    options.config = TinyConfig();
    options.model_prefix = *prefix_a_;
    options.port = 0;  // Ephemeral; tests read server->port().
    return options;
  }

  static std::unique_ptr<Server> StartServer(const ServerOptions& options) {
    auto server = Server::Start(options);
    RRRE_CHECK_OK(server.status());
    return std::move(server).ValueOrDie();
  }

  /// The exact response line the protocol promises for (user, item), built
  /// from the checkpoint-loaded reference model.
  static std::string ExpectedScoreLine(int64_t user, int64_t item) {
    const auto preds = ref_scorer_a_->Score({{user, item}});
    std::string line =
        FormatScoreLine(user, item, preds.ratings[0], preds.reliabilities[0]);
    line.pop_back();  // The client strips '\n'.
    return line;
  }

  static data::ReviewDataset* corpus_;
  static core::RrreTrainer* trainer_b_;
  static core::RrreTrainer* ref_trainer_a_;
  static core::BatchScorer* ref_scorer_a_;
  static std::string* prefix_a_;
};

data::ReviewDataset* ServedTest::corpus_ = nullptr;
core::RrreTrainer* ServedTest::trainer_b_ = nullptr;
core::RrreTrainer* ServedTest::ref_trainer_a_ = nullptr;
core::BatchScorer* ServedTest::ref_scorer_a_ = nullptr;
std::string* ServedTest::prefix_a_ = nullptr;

TEST_F(ServedTest, EndToEndMatchesOfflineServeBitwise) {
  // Run the same requests through the offline tool's pipeline and through a
  // live server; every online response line must be byte-identical to the
  // corresponding offline TSV row, with zero dropped or misrouted responses.
  std::vector<std::pair<int64_t, int64_t>> pairs;
  std::string request_tsv = "user\titem\n";
  std::string wire;
  for (int64_t i = 0; i < 25; ++i) {
    const data::Review& r = corpus_->review((i * 7) % corpus_->size());
    pairs.emplace_back(r.user, r.item);
    const std::string line =
        std::to_string(r.user) + "\t" + std::to_string(r.item) + "\n";
    request_tsv += line;
    wire += line;
  }
  const std::string in = ::testing::TempDir() + "/served_e2e_req_" +
                         std::to_string(::getpid()) + ".tsv";
  const std::string out = ::testing::TempDir() + "/served_e2e_out_" +
                          std::to_string(::getpid()) + ".tsv";
  ASSERT_TRUE(common::WriteFile(in, request_tsv).ok());
  core::ServeOptions offline;
  offline.model_prefix = *prefix_a_;
  offline.input_path = in;
  offline.output_path = out;
  ASSERT_TRUE(core::LoadAndServe(TinyConfig(), offline).ok());
  auto offline_text = common::ReadFile(out);
  ASSERT_TRUE(offline_text.ok());
  const std::vector<std::string> offline_lines =
      SplitLines(offline_text.value());
  ASSERT_EQ(offline_lines.size(), pairs.size() + 1);  // Header + rows.

  auto server = StartServer(BaseOptions());
  Client client(server->port());
  client.Send(wire);  // All 25 requests pipelined in one write.
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(client.MustReadLine(), offline_lines[i + 1]) << "request " << i;
  }
  server->Shutdown();
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.requests, 25);
  EXPECT_EQ(stats.batcher.pairs_scored, 25);
  EXPECT_EQ(stats.overloads, 0);
  std::remove(in.c_str());
  std::remove(out.c_str());
}

TEST_F(ServedTest, PipelinedResponsesArriveInRequestOrder) {
  auto server = StartServer(BaseOptions());
  Client client(server->port());
  // Interleave instant control responses with batched score requests: the
  // per-connection FIFO must hold responses back until earlier slots fill.
  client.Send("0\t1\nPING\n2\t3\nPING\n1\t2\n");
  EXPECT_EQ(client.MustReadLine(), ExpectedScoreLine(0, 1));
  EXPECT_EQ(client.MustReadLine(), "#pong");
  EXPECT_EQ(client.MustReadLine(), ExpectedScoreLine(2, 3));
  EXPECT_EQ(client.MustReadLine(), "#pong");
  EXPECT_EQ(client.MustReadLine(), ExpectedScoreLine(1, 2));
}

TEST_F(ServedTest, CatalogRequestStreamsEveryItem) {
  auto server = StartServer(BaseOptions());
  Client client(server->port());
  client.Send("3\n");
  EXPECT_EQ(client.MustReadLine(),
            "#catalog\t3\t" + std::to_string(corpus_->num_items()));
  const auto reference = ref_scorer_a_->ScoreAllItemsForUser(3);
  for (int64_t item = 0; item < corpus_->num_items(); ++item) {
    std::string expected =
        FormatScoreLine(3, item, reference.ratings[item],
                        reference.reliabilities[item]);
    expected.pop_back();
    EXPECT_EQ(client.MustReadLine(), expected) << "item " << item;
  }
}

TEST_F(ServedTest, ParseAndRangeErrorsAreAnsweredInline) {
  auto server = StartServer(BaseOptions());
  Client client(server->port());
  // Blank lines and comments get no response; the trailing PING proves the
  // stream stayed aligned.
  client.Send("x\ty\n0\t1\t2\n999999\t0\n0\t999999\n\n# comment\nPING\n");
  std::string line = client.MustReadLine();
  EXPECT_TRUE(IsErrorLine(line)) << line;
  EXPECT_EQ(line.find("!ERR\tparse\t"), 0u) << line;
  line = client.MustReadLine();
  EXPECT_EQ(line.find("!ERR\tparse\t"), 0u) << line;
  line = client.MustReadLine();
  EXPECT_EQ(line.find("!ERR\trange\t"), 0u) << line;
  EXPECT_NE(line.find("user 999999"), std::string::npos) << line;
  line = client.MustReadLine();
  EXPECT_EQ(line.find("!ERR\trange\t"), 0u) << line;
  EXPECT_NE(line.find("item 999999"), std::string::npos) << line;
  EXPECT_EQ(client.MustReadLine(), "#pong");
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.parse_errors, 2);
  EXPECT_EQ(stats.range_errors, 2);
}

TEST_F(ServedTest, PingStatsQuitProtocol) {
  auto server = StartServer(BaseOptions());
  Client client(server->port());
  client.Send("PING\nSTATS\nQUIT\n");
  EXPECT_EQ(client.MustReadLine(), "#pong");
  const std::string stats_line = client.MustReadLine();
  EXPECT_EQ(stats_line.find("#stats\t"), 0u) << stats_line;
  // Loadgen discovers id ranges from these fields.
  EXPECT_NE(stats_line.find("users=" + std::to_string(corpus_->num_users())),
            std::string::npos)
      << stats_line;
  EXPECT_NE(stats_line.find("items=" + std::to_string(corpus_->num_items())),
            std::string::npos)
      << stats_line;
  EXPECT_NE(stats_line.find("generation=0"), std::string::npos) << stats_line;
  EXPECT_EQ(client.MustReadLine(), "#bye");
  EXPECT_FALSE(client.ReadLine().has_value());  // Server closed after QUIT.
}

TEST_F(ServedTest, OverloadIsAnsweredExplicitlyAndInOrder) {
  // A paused batcher with a capacity-4 queue makes backpressure
  // deterministic: of 10 pipelined requests, exactly 4 are admitted and 6
  // must be refused with an explicit overload error — never blocked on.
  ServerOptions options = BaseOptions();
  options.batcher.queue_capacity = 4;
  options.batcher.start_paused = true;
  auto server = StartServer(options);
  Client client(server->port());
  std::string wire;
  for (int i = 0; i < 10; ++i) {
    wire += std::to_string(i % 4) + "\t" + std::to_string(i % 5) + "\n";
  }
  client.Send(wire);
  ASSERT_TRUE(WaitFor([&] { return server->stats().requests == 10; }));
  {
    const ServerStats stats = server->stats();
    EXPECT_EQ(stats.batcher.submitted, 4);
    EXPECT_EQ(stats.batcher.rejected, 6);
    EXPECT_EQ(stats.overloads, 6);
  }
  server->batcher().Resume();
  // Responses arrive in request order: 4 scores, then 6 overload errors.
  for (int i = 0; i < 10; ++i) {
    const std::string line = client.MustReadLine();
    if (i < 4) {
      EXPECT_EQ(line, ExpectedScoreLine(i % 4, i % 5)) << i;
    } else {
      EXPECT_TRUE(IsOverloadLine(line)) << i << ": " << line;
    }
  }
}

TEST_F(ServedTest, HotReloadSwitchesToTheNewCheckpoint) {
  // Stage checkpoint A at a private prefix, serve from it, then overwrite
  // with checkpoint B and RELOAD — the same request must now score under B,
  // and the response must be byte-identical to a fresh Load of B.
  const std::string prefix = ::testing::TempDir() + "/served_reload_ckpt_" +
                             std::to_string(::getpid());
  ASSERT_TRUE(ref_trainer_a_->Save(prefix).ok());
  ServerOptions options = BaseOptions();
  options.model_prefix = prefix;
  auto server = StartServer(options);
  Client client(server->port());

  client.Send("1\t2\n");
  const std::string before = client.MustReadLine();
  EXPECT_EQ(before, ExpectedScoreLine(1, 2));

  ASSERT_TRUE(trainer_b_->Save(prefix).ok());
  client.Send("RELOAD\n1\t2\n");
  EXPECT_EQ(client.MustReadLine(), "#reloaded\tversion=1");
  const std::string after = client.MustReadLine();
  EXPECT_NE(after, before);  // Different parameters, different score.
  core::RrreTrainer loaded_b(TinyConfig());
  ASSERT_TRUE(loaded_b.Load(prefix).ok());
  core::BatchScorer scorer_b(&loaded_b);
  const auto preds = scorer_b.Score({{1, 2}});
  std::string expected =
      FormatScoreLine(1, 2, preds.ratings[0], preds.reliabilities[0]);
  expected.pop_back();
  EXPECT_EQ(after, expected);
  EXPECT_EQ(server->stats().batcher.reloads, 1);

  server->Shutdown();
  for (const char* suffix :
       {".model", ".vocab", ".train.tsv", ".meta", ".optimizer"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST_F(ServedTest, ReloadUnderPipelinedLoadNeverDropsResponses) {
  // Requests pipelined around RELOADs all get exactly one response each; the
  // batcher CHECK-fails if any batch mixes parameter versions.
  const std::string prefix = ::testing::TempDir() + "/served_reload2_ckpt_" +
                             std::to_string(::getpid());
  ASSERT_TRUE(ref_trainer_a_->Save(prefix).ok());
  ServerOptions options = BaseOptions();
  options.model_prefix = prefix;
  options.batcher.max_batch = 4;
  auto server = StartServer(options);
  Client client(server->port());
  std::string wire;
  int expected_lines = 0;
  for (int i = 0; i < 30; ++i) {
    wire += std::to_string(i % 5) + "\t" + std::to_string(i % 7) + "\n";
    ++expected_lines;
    if (i % 10 == 9) {
      wire += "RELOAD\n";
      ++expected_lines;
    }
  }
  client.Send(wire);
  int scores = 0;
  int reloads = 0;
  for (int i = 0; i < expected_lines; ++i) {
    const std::string line = client.MustReadLine();
    ASSERT_FALSE(IsErrorLine(line)) << line;
    if (line.rfind("#reloaded\t", 0) == 0) {
      ++reloads;
    } else {
      ++scores;
    }
  }
  EXPECT_EQ(scores, 30);
  EXPECT_EQ(reloads, 3);
  EXPECT_EQ(server->stats().batcher.reloads, 3);
  server->Shutdown();
  for (const char* suffix :
       {".model", ".vocab", ".train.tsv", ".meta", ".optimizer"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST_F(ServedTest, ShutdownDrainsAdmittedRequests) {
  // Admit requests into a paused batcher, then Shutdown: the drain must
  // still answer everything already admitted before closing the connection.
  ServerOptions options = BaseOptions();
  options.batcher.start_paused = true;
  auto server = StartServer(options);
  Client client(server->port());
  client.Send("0\t1\n1\t2\n2\t3\n");
  ASSERT_TRUE(WaitFor([&] { return server->stats().batcher.submitted == 3; }));
  std::thread shutdown_thread([&] { server->Shutdown(); });
  EXPECT_EQ(client.MustReadLine(), ExpectedScoreLine(0, 1));
  EXPECT_EQ(client.MustReadLine(), ExpectedScoreLine(1, 2));
  EXPECT_EQ(client.MustReadLine(), ExpectedScoreLine(2, 3));
  EXPECT_FALSE(client.ReadLine().has_value());  // Clean close after drain.
  shutdown_thread.join();
}

TEST_F(ServedTest, ConnectionLimitAnswersBusy) {
  ServerOptions options = BaseOptions();
  options.max_connections = 1;
  auto server = StartServer(options);
  Client first(server->port());
  first.Send("PING\n");
  EXPECT_EQ(first.MustReadLine(), "#pong");  // Guarantees `first` is accepted.
  Client second(server->port());
  const std::string line = second.MustReadLine();
  EXPECT_EQ(line.find("!ERR\tbusy\t"), 0u) << line;
  EXPECT_FALSE(second.ReadLine().has_value());
  EXPECT_EQ(server->stats().connections_rejected, 1);
}

TEST_F(ServedTest, OverlongRequestLineIsAnsweredAndClosed) {
  // A client that streams bytes without a newline must not make the server
  // buffer them without bound: past LineReader::kMaxLineBytes it gets a
  // parse error and the connection closes.
  auto server = StartServer(BaseOptions());
  auto socket = Socket::Connect("127.0.0.1", server->port());
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
  Client fresh(server->port());
  fresh.Send("PING\n");
  EXPECT_EQ(fresh.MustReadLine(), "#pong");
}

TEST_F(ServedTest, ClientThatStopsReadingStopsBeingRead) {
  // A pipelining client that never reads must not make the server queue its
  // replies without limit. The paused batcher holds the first reply back,
  // so every later one stays unsent behind it until the reader stops.
  ServerOptions options = BaseOptions();
  options.batcher.start_paused = true;
  auto server = StartServer(options);
  Client client(server->port());
  constexpr int kRequests = 5000;
  std::string wire;
  for (int i = 0; i < kRequests; ++i) wire += "0\t1\n";
  client.Send(wire);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_LT(server->stats().requests, kRequests);
  server->batcher().Resume();
  const std::string expected = ExpectedScoreLine(0, 1);
  for (int i = 0; i < kRequests; ++i) {
    const std::string line = client.MustReadLine();
    ASSERT_TRUE(line == expected || IsOverloadLine(line)) << i << ": " << line;
  }
}

/// Sends METRICS and returns the full exposition payload (header excluded).
std::string ScrapeMetrics(Client& client) {
  client.Send("METRICS\n");
  const std::string header = client.MustReadLine();
  EXPECT_EQ(header.find("#metrics\tlines="), 0u) << header;
  const long long lines =
      std::atoll(header.c_str() + sizeof("#metrics\tlines=") - 1);
  EXPECT_GT(lines, 0) << header;
  std::string text;
  for (long long i = 0; i < lines; ++i) text += client.MustReadLine() + "\n";
  return text;
}

TEST_F(ServedTest, MetricsScrapeIsByteIdenticalWhenIdle) {
  auto server = StartServer(BaseOptions());
  Client client(server->port());
  client.Send("0\t1\n1\t2\n2\t3\n");
  for (int i = 0; i < 3; ++i) client.MustReadLine();

  // The scrape itself moves no metric, so back-to-back scrapes over the same
  // connection with no intervening traffic must match byte for byte.
  const std::string first = ScrapeMetrics(client);
  const std::string second = ScrapeMetrics(client);
  EXPECT_EQ(first, second);

  // The exposition reflects the traffic that preceded it (score requests
  // only: the scrapes themselves are absent by design).
  EXPECT_NE(first.find("rrre_serve_requests_total 3"), std::string::npos)
      << first;
  EXPECT_NE(first.find("rrre_batcher_pairs_scored_total 3"),
            std::string::npos)
      << first;
  EXPECT_NE(first.find("rrre_batcher_queue_depth 0"), std::string::npos)
      << first;
  EXPECT_NE(first.find("rrre_serve_connections_active 1"), std::string::npos)
      << first;
  EXPECT_NE(first.find("rrre_batcher_batch_latency_us"), std::string::npos)
      << first;
  // Server-side view matches what went over the wire.
  EXPECT_EQ(server->RenderMetricsText(), first);
}

TEST_F(ServedTest, MetricsUnderConcurrentLoadStaysConsistent) {
  // Scrapes race score traffic from several connections — the TSan leg of
  // tools/check.sh runs this to prove the sharded registry is data-race
  // free. Afterwards, a quiesced scrape must add up exactly.
  auto server = StartServer(BaseOptions());
  constexpr int kClients = 3;
  constexpr int kRequests = 30;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(server->port());
      for (int i = 0; i < kRequests; ++i) {
        client.Send(std::to_string((c + i) % corpus_->num_users()) + "\t" +
                    std::to_string(i % corpus_->num_items()) + "\n");
        client.MustReadLine();
      }
    });
  }
  std::thread scraper([&] {
    Client client(server->port());
    for (int i = 0; i < 10; ++i) {
      const std::string text = ScrapeMetrics(client);
      EXPECT_NE(text.find("rrre_serve_requests_total"), std::string::npos);
    }
  });
  for (auto& t : threads) t.join();
  scraper.join();
  Client client(server->port());
  const std::string text = ScrapeMetrics(client);
  EXPECT_NE(text.find("rrre_serve_requests_total " +
                      std::to_string(kClients * kRequests)),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("rrre_batcher_pairs_scored_total " +
                      std::to_string(kClients * kRequests)),
            std::string::npos)
      << text;
}

TEST_F(ServedTest, MetricsDisabledAnswersExplicitError) {
  ServerOptions options = BaseOptions();
  options.enable_metrics = false;
  auto server = StartServer(options);
  Client client(server->port());
  // Scoring and STATS are unaffected; METRICS reports the feature is off.
  client.Send("0\t1\nMETRICS\nSTATS\n");
  EXPECT_EQ(client.MustReadLine(), ExpectedScoreLine(0, 1));
  const std::string line = client.MustReadLine();
  EXPECT_EQ(line.find("!ERR\tmetrics\t"), 0u) << line;
  EXPECT_EQ(client.MustReadLine().find("#stats\t"), 0u);
  EXPECT_EQ(server->RenderMetricsText(), "");
}

TEST_F(ServedTest, ConcurrentClientsEachGetTheirOwnResponses) {
  // Several clients pipeline distinct request streams at once; every client
  // must read back exactly its own scores, in its own order (no misrouting
  // across connections sharing the batcher).
  auto server = StartServer(BaseOptions());
  constexpr int kClients = 4;
  constexpr int kRequests = 20;
  // Precompute wires and expected responses up front: the shared reference
  // scorer is not thread-safe, and client threads should only compare bytes.
  std::vector<std::string> wires(kClients);
  std::vector<std::vector<std::string>> expected(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kRequests; ++i) {
      const int64_t user = (c * 3 + i) % corpus_->num_users();
      const int64_t item = (c + i * 5) % corpus_->num_items();
      wires[c] += std::to_string(user) + "\t" + std::to_string(item) + "\n";
      expected[c].push_back(ExpectedScoreLine(user, item));
    }
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(server->port());
      client.Send(wires[c]);
      for (int i = 0; i < kRequests; ++i) {
        EXPECT_EQ(client.MustReadLine(), expected[c][i])
            << "client " << c << " request " << i;
      }
    });
  }
  for (auto& t : threads) t.join();
  server->Shutdown();
  EXPECT_EQ(server->stats().batcher.pairs_scored, kClients * kRequests);
}

}  // namespace
}  // namespace rrre::serve
