// Batch scoring server for a trained RRRE checkpoint — the serve half of the
// train-once/serve-many split:
//
//   rrre_serve --model=/ckpt/m --input=requests.tsv --output=scores.tsv
//              [--catalog] [--num_threads=8] [--su=5 --si=7 --seed=42]
//              [--metrics_out=spans.txt] [--store=PATH] [--store_out=PATH]
//
// The input TSV holds one request per line: "user<TAB>item" pairs, or with
// --catalog a bare "user" that is scored against every item in the training
// catalog. A leading header row and '#' comments are skipped. Output is a
// TSV of user, item, predicted rating and reliability (P(benign)), printed
// with full precision so downstream consumers see exactly what the model
// computed.
//
// Scoring runs through the tower-cached BatchScorer: each distinct user and
// item tower is evaluated once over the global thread pool, then only the
// cheap prediction heads run per pair — O(users + items) tower work instead
// of O(pairs), which is what makes full-catalog sweeps tractable. Unlike
// rrre_served, which always scores from a tower store, this tool runs the
// towers on demand unless --store is given.
//
// --store=PATH serves from a materialized tower store (built by
// rrre_store_build or --store_out): profiles come straight out of the mapped
// file, zero tower work, byte-identical output. --store_out=PATH batch-runs
// both towers over the whole corpus after loading and publishes the store
// there (crash-atomically) before any scoring happens.
//
// The architecture flags (--su, --si, --seed) must match the training run:
// the checkpoint stores parameters, not the RrreConfig. Loading refuses a
// checkpoint whose recorded --su/--si differ.

#include <cstdio>

#include "common/flags.h"
#include "common/io.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/threadpool.h"
#include "core/serving.h"
#include "core/tower_store.h"
#include "obs/metrics.h"
#include "obs/trace.h"

int main(int argc, char** argv) {
  using namespace rrre;  // NOLINT(build/namespaces)

  common::FlagParser flags;
  flags.AddString("model", "", "checkpoint prefix written by rrre_cli train");
  flags.AddString("input", "", "request TSV: user<TAB>item (or user with --catalog)");
  flags.AddString("output", "", "output TSV: user, item, rating, reliability");
  flags.AddBool("catalog", false, "score each requested user against every item");
  flags.AddInt("score_batch", 1024, "pairs per scoring batch (0 = one batch)");
  flags.AddString("store", "",
                  "serve from this materialized tower store (must match the "
                  "checkpoint's parameters)");
  flags.AddString("store_out", "",
                  "precompute all tower profiles and publish a tower store "
                  "here before scoring");
  flags.AddString("metrics_out", "",
                  "write the kernel span exposition here after the run "
                  "(implies profiling, as if RRRE_PROF=1)");
  flags.AddInt("num_threads", 0, "global thread pool size (0 = hardware)");
  flags.AddInt("su", 5, "user history slots (must match training)");
  flags.AddInt("si", 7, "item history slots (must match training)");
  flags.AddInt("seed", 42, "random seed (must match training)");
  RRRE_CHECK_OK(flags.Parse(argc, argv));
  if (flags.help_requested()) {
    std::printf("usage: %s --model=PREFIX --input=IN.tsv --output=OUT.tsv\n%s",
                argv[0], flags.Usage(argv[0]).c_str());
    return 0;
  }
  for (const char* required : {"model", "input", "output"}) {
    if (flags.GetString(required).empty()) {
      std::fprintf(stderr, "--%s is required (see --help)\n", required);
      return 2;
    }
  }

  common::ThreadPool::SetGlobalSize(
      static_cast<int>(flags.GetInt("num_threads")));
  if (!flags.GetString("metrics_out").empty()) {
    obs::SetProfilingEnabled(true);
  }

  core::RrreConfig config;
  config.s_u = flags.GetInt("su");
  config.s_i = flags.GetInt("si");
  config.seed = static_cast<uint64_t>(flags.GetInt("seed"));

  core::ServeOptions options;
  options.model_prefix = flags.GetString("model");
  options.input_path = flags.GetString("input");
  options.output_path = flags.GetString("output");
  options.catalog = flags.GetBool("catalog");
  options.score_batch = flags.GetInt("score_batch");
  options.store_path = flags.GetString("store");

  core::RrreTrainer trainer(config);
  const common::Status loaded = trainer.Load(options.model_prefix);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n", loaded.ToString().c_str());
    return 1;
  }
  if (!flags.GetString("store_out").empty()) {
    auto built = core::BuildTowerStore(trainer, options.model_prefix,
                                       flags.GetString("store_out"));
    if (!built.ok()) {
      std::fprintf(stderr, "store build failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "tower store published to %s: %lld users + %lld items x dim %lld "
        "(%.1f MiB) in %.3fs\n",
        flags.GetString("store_out").c_str(),
        static_cast<long long>(built.value().num_users),
        static_cast<long long>(built.value().num_items),
        static_cast<long long>(built.value().dim),
        static_cast<double>(built.value().bytes) / (1024.0 * 1024.0),
        built.value().seconds);
  }

  auto stats = core::ServeBatch(trainer, options);
  if (!stats.ok()) {
    std::fprintf(stderr, "serve failed: %s\n",
                 stats.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "%lld requests -> %lld pairs scored in %.3fs "
      "(%s, %d threads)\n",
      static_cast<long long>(stats.value().num_requests),
      static_cast<long long>(stats.value().num_scored), stats.value().seconds,
      stats.value().store_backed
          ? "store-backed, zero tower work"
          : common::StrFormat(
                "%lld user towers, %lld item towers",
                static_cast<long long>(stats.value().users_primed),
                static_cast<long long>(stats.value().items_primed))
                .c_str(),
      common::ThreadPool::GlobalSize());
  const auto& latency = stats.value().batch_latency_us;
  std::printf(
      "scoring latency over %lld batches of <=%lld pairs: "
      "p50=%.0fus p95=%.0fus p99=%.0fus max=%.0fus\n",
      static_cast<long long>(stats.value().num_batches),
      static_cast<long long>(options.score_batch > 0
                                 ? options.score_batch
                                 : stats.value().num_scored),
      latency.Percentile(50.0), latency.Percentile(95.0),
      latency.Percentile(99.0), latency.Max());
  std::printf("scores written to %s\n", options.output_path.c_str());
  if (!flags.GetString("metrics_out").empty()) {
    const common::Status written =
        common::WriteFile(flags.GetString("metrics_out"),
                          obs::MetricsRegistry::Global().RenderText());
    if (!written.ok()) {
      std::fprintf(stderr, "failed to write --metrics_out: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::printf("kernel span metrics written to %s\n",
                flags.GetString("metrics_out").c_str());
  }
  return 0;
}
