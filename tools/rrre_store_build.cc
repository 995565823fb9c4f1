// Publishes a materialized tower store for a trained RRRE checkpoint — the
// offline half of store-backed serving:
//
//   rrre_store_build --model=/ckpt/m [--out=/ckpt/m.tower_store]
//                    [--num_threads=8] [--su=5 --si=7 --seed=42]
//
// Loads the checkpoint, batch-runs the user and item towers across every id
// in the training corpus (chunked like BatchScorer priming, parallelized
// with ParallelFor), and writes the profiles as one mmap-able flat file next
// to the checkpoint (see src/core/tower_store.h for the format). The write
// goes through AtomicFileWriter, so a crash mid-publish leaves any previous
// store untouched and readers never see a torn file.
//
// The store carries a fingerprint of the checkpoint's parameter bytes;
// rrre_serve --store and rrre_served --store refuse a store whose
// fingerprint does not match the checkpoint they loaded. Republish after
// every retrain, then RELOAD the server — store and parameters swap
// together.
//
// The architecture flags (--su, --si, --seed) must match the training run:
// the checkpoint stores parameters, not the RrreConfig. Loading refuses a
// checkpoint whose recorded --su/--si differ.

#include <cstdio>

#include "common/flags.h"
#include "common/logging.h"
#include "common/threadpool.h"
#include "core/tower_store.h"
#include "core/trainer.h"

int main(int argc, char** argv) {
  using namespace rrre;  // NOLINT(build/namespaces)

  common::FlagParser flags;
  flags.AddString("model", "", "checkpoint prefix written by rrre_cli train");
  flags.AddString("out", "",
                  "store path to publish (default: <model>.tower_store)");
  flags.AddInt("num_threads", 0, "global thread pool size (0 = hardware)");
  flags.AddInt("su", 5, "user history slots (must match training)");
  flags.AddInt("si", 7, "item history slots (must match training)");
  flags.AddInt("seed", 42, "random seed (must match training)");
  RRRE_CHECK_OK(flags.Parse(argc, argv));
  if (flags.help_requested()) {
    std::printf("usage: %s --model=PREFIX [--out=PATH]\n%s", argv[0],
                flags.Usage(argv[0]).c_str());
    return 0;
  }
  if (flags.GetString("model").empty()) {
    std::fprintf(stderr, "--model is required (see --help)\n");
    return 2;
  }

  common::ThreadPool::SetGlobalSize(
      static_cast<int>(flags.GetInt("num_threads")));

  core::RrreConfig config;
  config.s_u = flags.GetInt("su");
  config.s_i = flags.GetInt("si");
  config.seed = static_cast<uint64_t>(flags.GetInt("seed"));

  const std::string prefix = flags.GetString("model");
  const std::string out = flags.GetString("out").empty()
                              ? prefix + ".tower_store"
                              : flags.GetString("out");

  core::RrreTrainer trainer(config);
  const common::Status loaded = trainer.Load(prefix);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n", loaded.ToString().c_str());
    return 1;
  }
  auto built = core::BuildTowerStore(trainer, prefix, out);
  if (!built.ok()) {
    std::fprintf(stderr, "store build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "tower store published to %s\n"
      "  %lld user + %lld item profiles x dim %lld = %.1f MiB\n"
      "  params fingerprint %016llx, built in %.3fs (%d threads)\n",
      out.c_str(), static_cast<long long>(built.value().num_users),
      static_cast<long long>(built.value().num_items),
      static_cast<long long>(built.value().dim),
      static_cast<double>(built.value().bytes) / (1024.0 * 1024.0),
      static_cast<unsigned long long>(built.value().params_fingerprint),
      built.value().seconds, common::ThreadPool::GlobalSize());
  return 0;
}
