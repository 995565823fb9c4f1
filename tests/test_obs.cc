// Tests of the src/obs observability subsystem: the sharded metrics
// registry and its deterministic exposition, RAII trace spans, the JSONL
// telemetry records/parser, and the trainer's per-epoch telemetry stream
// (including its bitwise thread-count independence).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/io.h"
#include "common/threadpool.h"
#include "core/config.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace rrre {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, CounterSumsAcrossThreads) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("test_total");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kPerThread; ++i) counter->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
  counter->Increment(42);
  EXPECT_EQ(counter->Value(), kThreads * kPerThread + 42);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  obs::MetricsRegistry registry;
  obs::Gauge* gauge = registry.GetGauge("test_depth");
  EXPECT_EQ(gauge->Value(), 0);
  gauge->Set(7);
  EXPECT_EQ(gauge->Value(), 7);
  gauge->Add(-3);
  EXPECT_EQ(gauge->Value(), 4);
}

TEST(MetricsRegistryTest, HistogramRecordsAcrossThreads) {
  obs::MetricsRegistry registry;
  obs::HistogramMetric* histogram = registry.GetHistogram("test_latency_us");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram->Record(static_cast<double>(t * kPerThread + i));
      }
    });
  }
  for (auto& t : threads) t.join();
  const common::Histogram merged = histogram->Snapshot();
  EXPECT_EQ(merged.count(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(merged.Min(), 0.0);
  EXPECT_DOUBLE_EQ(merged.Max(), kThreads * kPerThread - 1);
}

TEST(MetricsRegistryTest, SameNameReturnsSameHandle) {
  obs::MetricsRegistry registry;
  EXPECT_EQ(registry.GetCounter("a_total", "first"),
            registry.GetCounter("a_total", "second help ignored"));
  EXPECT_EQ(registry.GetGauge("a_gauge"), registry.GetGauge("a_gauge"));
  EXPECT_EQ(registry.GetHistogram("a_hist"), registry.GetHistogram("a_hist"));
}

TEST(MetricsRegistryTest, RenderTextSortedAndTyped) {
  obs::MetricsRegistry registry;
  registry.GetCounter("zzz_total", "last by name")->Increment(3);
  registry.GetGauge("mmm_depth", "middle")->Set(-5);
  registry.GetHistogram("aaa_us", "first")->Record(10.0);
  const std::string text = registry.RenderText();
  // Sorted by metric name: the histogram renders first, the counter last.
  EXPECT_LT(text.find("aaa_us"), text.find("mmm_depth"));
  EXPECT_LT(text.find("mmm_depth"), text.find("zzz_total"));
  EXPECT_NE(text.find("# HELP zzz_total last by name"), std::string::npos);
  EXPECT_NE(text.find("# TYPE zzz_total counter"), std::string::npos);
  EXPECT_NE(text.find("zzz_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE mmm_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("mmm_depth -5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE aaa_us summary"), std::string::npos);
  EXPECT_NE(text.find("aaa_us_count 1"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.5\""), std::string::npos);
}

TEST(MetricsRegistryTest, ScrapeIsDeterministic) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("events_total");
  obs::HistogramMetric* histogram = registry.GetHistogram("lat_us");
  // Concurrent writers: the merge order of the shards must not depend on
  // which threads recorded what.
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        counter->Increment();
        histogram->Record(1.0 + t * 13 + i % 37);
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::string first = registry.RenderText();
  const std::string second = registry.RenderText();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("events_total 1200"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TraceSpan
// ---------------------------------------------------------------------------

/// Restores the global profiling flag so other tests (and other binaries in
/// the same ctest run) see the environment-derived default.
class TraceSpanTest : public ::testing::Test {
 protected:
  void SetUp() override { original_ = obs::ProfilingEnabled(); }
  void TearDown() override { obs::SetProfilingEnabled(original_); }

  bool original_ = false;
};

TEST_F(TraceSpanTest, DisabledSpansRecordNothing) {
  obs::SetProfilingEnabled(false);
  obs::MetricsRegistry registry;
  {
    obs::TraceSpan span("idle", &registry);
    EXPECT_EQ(obs::TraceSpan::Depth(), 0);
  }
  EXPECT_EQ(registry.RenderText(), "");
}

TEST_F(TraceSpanTest, NestedSpansRecordTotalsAndSelfTime) {
  obs::SetProfilingEnabled(true);
  obs::MetricsRegistry registry;
  {
    obs::TraceSpan outer("outer", &registry);
    EXPECT_EQ(obs::TraceSpan::Depth(), 1);
    {
      obs::TraceSpan inner("inner", &registry);
      EXPECT_EQ(obs::TraceSpan::Depth(), 2);
    }
    EXPECT_EQ(obs::TraceSpan::Depth(), 1);
  }
  EXPECT_EQ(obs::TraceSpan::Depth(), 0);
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("span_outer_us_count 1"), std::string::npos);
  EXPECT_NE(text.find("span_inner_us_count 1"), std::string::npos);
  // Only the outer span had children, so only it records a self-time series.
  EXPECT_NE(text.find("span_outer_self_us_count 1"), std::string::npos);
  EXPECT_EQ(text.find("span_inner_self_us"), std::string::npos);
}

TEST_F(TraceSpanTest, SpansOnSeparateThreadsAreIndependent) {
  obs::SetProfilingEnabled(true);
  obs::MetricsRegistry registry;
  obs::TraceSpan outer("main_thread", &registry);
  std::thread other([&registry] {
    // This thread's stack starts empty even though the main thread has an
    // open span.
    EXPECT_EQ(obs::TraceSpan::Depth(), 0);
    obs::TraceSpan span("worker_thread", &registry);
    EXPECT_EQ(obs::TraceSpan::Depth(), 1);
  });
  other.join();
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("span_worker_thread_us_count 1"), std::string::npos);
  // The worker span is not a child of the main thread's open span, so the
  // main span has no self-time series yet.
  EXPECT_EQ(text.find("span_main_thread_self_us"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JsonRecord and the JSONL parser
// ---------------------------------------------------------------------------

TEST(JsonRecordTest, SerializesInInsertionOrder) {
  obs::JsonRecord record;
  record.AddInt("epoch", 3);
  record.AddDouble("loss", 0.5);
  record.AddString("phase", "train");
  EXPECT_EQ(record.ToJsonLine(),
            "{\"epoch\":3,\"loss\":0.5,\"phase\":\"train\"}\n");
}

TEST(JsonRecordTest, RoundTripsThroughParser) {
  obs::JsonRecord record;
  record.AddInt("i", -1234567890123LL);
  record.AddDouble("pi", 3.141592653589793);
  record.AddDouble("tenth", 0.1);
  record.AddDouble("huge", 1e300);
  record.AddDouble("tiny", -2.2250738585072014e-308);
  record.AddString("s", "line\nbreak\tand \"quotes\" and back\\slash");
  record.AddString("empty", "");
  const std::string line = record.ToJsonLine();
  auto parsed = obs::ParseJsonLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().ToJsonLine(), line);
  ASSERT_NE(parsed.value().Find("s"), nullptr);
  EXPECT_EQ(*parsed.value().Find("s"),
            "line\nbreak\tand \"quotes\" and back\\slash");
  ASSERT_NE(parsed.value().Find("pi"), nullptr);
  EXPECT_EQ(std::stod(*parsed.value().Find("pi")), 3.141592653589793);
  EXPECT_EQ(parsed.value().Find("missing"), nullptr);
}

TEST(JsonRecordTest, ParserRejectsMalformedLines) {
  EXPECT_FALSE(obs::ParseJsonLine("").ok());
  EXPECT_FALSE(obs::ParseJsonLine("not json").ok());
  EXPECT_FALSE(obs::ParseJsonLine("{\"a\":1} trailing").ok());
  EXPECT_FALSE(obs::ParseJsonLine("{\"a\":}").ok());
  EXPECT_FALSE(obs::ParseJsonLine("{\"a\"").ok());
  EXPECT_FALSE(obs::ParseJsonLine("{\"a\":\"dangling\\\"}").ok());
  EXPECT_FALSE(obs::ParseJsonLine("{\"a\":{\"nested\":1}}").ok());
}

TEST(JsonRecordTest, ParseJsonLinesSplitsRecords) {
  auto records = obs::ParseJsonLines("{\"a\":1}\n\n{\"b\":2}\n");
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records.value().size(), 2u);
  EXPECT_NE(records.value()[0].Find("a"), nullptr);
  EXPECT_NE(records.value()[1].Find("b"), nullptr);
}

TEST(TelemetryWriterTest, WritesParseableJsonl) {
  const std::string path = ::testing::TempDir() + "/telemetry_writer.jsonl";
  {
    obs::TelemetryWriter::Options options;
    options.path = path;
    obs::TelemetryWriter writer(options);
    ASSERT_TRUE(writer.status().ok()) << writer.status().ToString();
    EXPECT_TRUE(writer.include_timings());
    for (int i = 0; i < 3; ++i) {
      obs::JsonRecord record;
      record.AddInt("step", i);
      record.AddDouble("value", 0.25 * i);
      ASSERT_TRUE(writer.Write(record).ok());
    }
  }
  auto content = common::ReadFile(path);
  ASSERT_TRUE(content.ok());
  auto records = obs::ParseJsonLines(content.value());
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records.value().size(), 3u);
  EXPECT_EQ(*records.value()[2].Find("step"), "2");
}

TEST(TelemetryWriterTest, UnwritablePathReportsError) {
  obs::TelemetryWriter::Options options;
  options.path = "/nonexistent-dir/telemetry.jsonl";
  obs::TelemetryWriter writer(options);
  EXPECT_FALSE(writer.status().ok());
}

// ---------------------------------------------------------------------------
// Trainer per-epoch telemetry
// ---------------------------------------------------------------------------

data::ReviewDataset TelemetryCorpus() {
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

core::RrreConfig TelemetryConfig() {
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
  c.shard_size = 4;
  c.lr = 5e-3;
  return c;
}

/// Trains for two epochs with telemetry attached and returns the raw JSONL.
std::string RunTelemetryFit(int threads, bool include_timings,
                            const std::string& path) {
  common::ThreadPool::SetGlobalSize(threads);
  data::ReviewDataset corpus = TelemetryCorpus();
  core::RrreTrainer trainer(TelemetryConfig());
  obs::TelemetryWriter::Options options;
  options.path = path;
  options.include_timings = include_timings;
  obs::TelemetryWriter writer(options);
  EXPECT_TRUE(writer.status().ok()) << writer.status().ToString();
  core::RrreTrainer::TelemetryOptions telemetry;
  telemetry.writer = &writer;
  telemetry.eval = &corpus;
  trainer.SetTelemetry(telemetry);
  trainer.Fit(corpus);
  // The stream lives at <path>.tmp until Close() commits it atomically.
  EXPECT_TRUE(writer.Close().ok());
  auto content = common::ReadFile(path);
  EXPECT_TRUE(content.ok());
  return content.ok() ? content.value() : std::string();
}

class TrainerTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { original_size_ = common::ThreadPool::GlobalSize(); }
  void TearDown() override {
    common::ThreadPool::SetGlobalSize(original_size_);
  }

  int original_size_ = 0;
};

TEST_F(TrainerTelemetryTest, TwoEpochRunRoundTripsThroughParser) {
  const std::string path = ::testing::TempDir() + "/trainer_telemetry.jsonl";
  const std::string content =
      RunTelemetryFit(/*threads=*/2, /*include_timings=*/true, path);
  auto records = obs::ParseJsonLines(content);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records.value().size(), 2u);
  std::string reserialized;
  for (size_t e = 0; e < records.value().size(); ++e) {
    const obs::JsonRecord& record = records.value()[e];
    for (const char* key : {"epoch", "loss", "loss1", "loss2", "grad_norm",
                            "examples", "batches", "eval_brmse", "eval_auc",
                            "seconds", "shards"}) {
      EXPECT_NE(record.Find(key), nullptr) << "epoch " << e << " lacks " << key;
    }
    EXPECT_GT(std::stod(*record.Find("grad_norm")), 0.0);
    EXPECT_EQ(*record.Find("examples"), "30");
    reserialized += record.ToJsonLine();
  }
  EXPECT_EQ(std::stoll(*records.value()[1].Find("epoch")),
            std::stoll(*records.value()[0].Find("epoch")) + 1);
  // Bitwise round-trip: parsing and re-serializing reproduces the file.
  EXPECT_EQ(reserialized, content);
}

TEST_F(TrainerTelemetryTest, TimingFreeStreamIsThreadCountInvariant) {
  const std::string path1 = ::testing::TempDir() + "/telemetry_t1.jsonl";
  const std::string path4 = ::testing::TempDir() + "/telemetry_t4.jsonl";
  const std::string serial =
      RunTelemetryFit(/*threads=*/1, /*include_timings=*/false, path1);
  const std::string parallel =
      RunTelemetryFit(/*threads=*/4, /*include_timings=*/false, path4);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  // Timing fields are gone, the computational fields remain.
  auto records = obs::ParseJsonLines(serial);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), 2u);
  EXPECT_EQ(records.value()[0].Find("seconds"), nullptr);
  EXPECT_EQ(records.value()[0].Find("shards"), nullptr);
  EXPECT_NE(records.value()[0].Find("eval_auc"), nullptr);
}

TEST_F(TrainerTelemetryTest, StepTailTimeIsReportedOnlyWithTimings) {
  // tail_us_mean is the mean wall time per step from the shard join through
  // the optimizer step: a timing, so a timing-free stream leaves it out.
  const std::string timed_path = ::testing::TempDir() + "/telemetry_tail.jsonl";
  auto timed = obs::ParseJsonLines(
      RunTelemetryFit(/*threads=*/4, /*include_timings=*/true, timed_path));
  ASSERT_TRUE(timed.ok()) << timed.status().ToString();
  ASSERT_EQ(timed.value().size(), 2u);
  for (const obs::JsonRecord& record : timed.value()) {
    const std::string* tail = record.Find("tail_us_mean");
    ASSERT_NE(tail, nullptr);
    EXPECT_GT(std::stod(*tail), 0.0);
  }
  const std::string untimed_path =
      ::testing::TempDir() + "/telemetry_untimed.jsonl";
  auto untimed = obs::ParseJsonLines(
      RunTelemetryFit(/*threads=*/4, /*include_timings=*/false, untimed_path));
  ASSERT_TRUE(untimed.ok()) << untimed.status().ToString();
  ASSERT_EQ(untimed.value().size(), 2u);
  for (const obs::JsonRecord& record : untimed.value()) {
    EXPECT_EQ(record.Find("tail_us_mean"), nullptr);
  }
}

}  // namespace
}  // namespace rrre
