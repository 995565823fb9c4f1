// Streaming retrain daemon: drives the adversarial fraud arena through the
// warm-start retrain loop.
//
//   rrre_streamd --publish_root=/data/stream
//                [--dataset=yelpchi --scale=0.05 --seed=42]
//                [--days_per_partition=30 --schedule=0:0,60:1,120:2]
//                [--epochs=4 --epochs_per_partition=2]
//                [--reload=127.0.0.1:7475,127.0.0.1:7476]
//                [--telemetry=stream.jsonl] [--store=true]
//                [--max_steps=0] [--num_threads=1]
//
// Each step trains the next arena partition on the cumulative corpus
// (warm-started from the previous checkpoint via the exact-resume path),
// publishes a versioned generation under --publish_root (checkpoint + tower
// store + MANIFEST written last, `current` symlink swapped after), and
// hot-reloads every --reload endpoint, polling its STATS fingerprint until
// the fleet converged (a router endpoint must also report quarantined=0).
//
// The daemon is kill-safe at any instruction: on restart it recovers from
// the newest valid MANIFEST and re-trains only what was never published.
// Because partitions and retrains are deterministic, the artifacts a
// restarted daemon publishes are bitwise identical to an uninterrupted
// run's. SIGINT/SIGTERM stop after the step in progress.
//
// --schedule is a comma list of day:tier pairs (tiers 0..2, ascending days,
// first day 0) — the adversary's escalation plan.

#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
#include "common/signals.h"
#include "common/strings.h"
#include "common/threadpool.h"
#include "data/adversary.h"
#include "data/profiles.h"
#include "obs/telemetry.h"
#include "stream/driver.h"

namespace {

using namespace rrre;  // NOLINT(build/namespaces)

bool ParseSchedule(const std::string& spec,
                   std::vector<data::TierPhase>* schedule) {
  schedule->clear();
  for (const std::string& part : common::Split(spec, ',')) {
    const size_t colon = part.find(':');
    if (colon == std::string::npos) return false;
    data::TierPhase phase;
    phase.start_day = std::strtoll(part.substr(0, colon).c_str(), nullptr, 10);
    const long tier = std::strtol(part.c_str() + colon + 1, nullptr, 10);
    if (tier < 0 || tier > 2) return false;
    phase.tier = static_cast<data::AdversaryTier>(tier);
    schedule->push_back(phase);
  }
  return !schedule->empty() && schedule->front().start_day == 0;
}

bool ParseEndpoints(const std::string& spec,
                    std::vector<stream::StreamEndpoint>* endpoints) {
  endpoints->clear();
  if (spec.empty()) return true;
  for (const std::string& part : common::Split(spec, ',')) {
    const size_t colon = part.find(':');
    if (colon == std::string::npos) return false;
    stream::StreamEndpoint endpoint;
    endpoint.host = part.substr(0, colon);
    endpoint.port = static_cast<uint16_t>(
        std::strtoul(part.c_str() + colon + 1, nullptr, 10));
    if (endpoint.host.empty() || endpoint.port == 0) return false;
    endpoints->push_back(endpoint);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  common::FlagParser flags;
  flags.AddString("publish_root", "", "versioned generation layout root");
  flags.AddString("dataset", "yelpchi",
                  "arena profile: yelpchi|yelpnyc|yelpzip|musics|cds");
  flags.AddDouble("scale", 0.05, "profile scale factor");
  flags.AddInt("seed", 42, "arena + trainer seed");
  flags.AddInt("days_per_partition", 30, "days per streamed partition");
  flags.AddString("schedule", "0:0",
                  "day:tier escalation plan, e.g. 0:0,60:1,120:2");
  flags.AddInt("epochs", 4, "cold-start epoch budget (partition 0)");
  flags.AddInt("epochs_per_partition", 2,
               "extra epochs per warm-start retrain (0 = same as --epochs)");
  flags.AddString("reload", "",
                  "comma list of host:port serving processes to hot-reload "
                  "after each publish (rrre_served or rrre_routed)");
  flags.AddInt("reload_timeout_ms", 15000,
               "per-endpoint send/receive deadline for RELOAD and the STATS "
               "check after it");
  flags.AddString("telemetry", "", "per-epoch/per-generation JSONL path");
  flags.AddBool("store", true, "build a tower store with each generation");
  flags.AddInt("max_steps", 0, "stop after this many steps (0 = run dry)");
  flags.AddInt("retries", 3, "attempts per step before giving up");
  flags.AddInt("num_threads", 0, "global thread pool size (0 = hardware)");
  flags.AddInt("su", 5, "user history slots");
  flags.AddInt("si", 7, "item history slots");
  RRRE_CHECK_OK(flags.Parse(argc, argv));
  if (flags.help_requested()) {
    std::printf("usage: %s --publish_root=DIR [--reload=HOST:PORT,...]\n%s",
                argv[0], flags.Usage(argv[0]).c_str());
    return 0;
  }
  if (flags.GetString("publish_root").empty()) {
    std::fprintf(stderr, "--publish_root is required (see --help)\n");
    return 2;
  }

  auto profile = data::ProfileByName(flags.GetString("dataset"),
                                     flags.GetDouble("scale"));
  if (!profile.ok()) {
    std::fprintf(stderr, "bad --dataset: %s\n",
                 profile.status().ToString().c_str());
    return 2;
  }

  data::AdversaryConfig arena_config;
  arena_config.profile = profile.value();
  arena_config.days_per_partition = flags.GetInt("days_per_partition");
  arena_config.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  if (!ParseSchedule(flags.GetString("schedule"), &arena_config.schedule)) {
    std::fprintf(stderr, "bad --schedule %s (want 0:0[,day:tier...])\n",
                 flags.GetString("schedule").c_str());
    return 2;
  }

  stream::StreamOptions options;
  options.config.s_u = flags.GetInt("su");
  options.config.s_i = flags.GetInt("si");
  options.config.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  options.config.epochs = flags.GetInt("epochs");
  options.epochs_per_partition = flags.GetInt("epochs_per_partition");
  options.publish_root = flags.GetString("publish_root");
  options.build_store = flags.GetBool("store");
  options.reload_timeout_ms =
      static_cast<int>(flags.GetInt("reload_timeout_ms"));
  if (!ParseEndpoints(flags.GetString("reload"), &options.reload_endpoints)) {
    std::fprintf(stderr, "bad --reload %s (want host:port[,host:port...])\n",
                 flags.GetString("reload").c_str());
    return 2;
  }

  std::unique_ptr<obs::TelemetryWriter> telemetry;
  if (!flags.GetString("telemetry").empty()) {
    telemetry = std::make_unique<obs::TelemetryWriter>(
        obs::TelemetryWriter::Options{flags.GetString("telemetry"),
                                      /*include_timings=*/false});
    RRRE_CHECK_OK(telemetry->status());
    options.telemetry = telemetry.get();
  }

  common::ThreadPool::SetGlobalSize(
      static_cast<int>(flags.GetInt("num_threads")));
  common::InstallServeSignalHandlers();

  const data::AdversaryModel arena(arena_config);
  stream::StreamDriver driver(&arena, options);
  auto recovered = driver.Recover();
  if (!recovered.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 recovered.ToString().c_str());
    return 1;
  }
  std::printf("rrre_streamd: %lld partitions of %s (scale %.3g), "
              "resuming at partition %lld\n",
              static_cast<long long>(arena.num_partitions()),
              arena_config.profile.name.c_str(), flags.GetDouble("scale"),
              static_cast<long long>(driver.next_partition()));
  std::fflush(stdout);

  const int64_t max_steps = flags.GetInt("max_steps");
  const int64_t retries = flags.GetInt("retries");
  int64_t steps = 0;
  while (!driver.Done() && !common::ShutdownRequested()) {
    if (max_steps > 0 && steps >= max_steps) break;
    stream::GenerationResult result;
    common::Status status = common::Status::Ok();
    for (int64_t attempt = 0; attempt <= retries; ++attempt) {
      status = driver.Step(&result);
      if (status.ok()) break;
      std::fprintf(stderr, "step %lld attempt %lld failed: %s\n",
                   static_cast<long long>(driver.next_partition()),
                   static_cast<long long>(attempt),
                   status.ToString().c_str());
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (!status.ok()) {
      std::fprintf(stderr, "giving up on partition %lld: %s\n",
                   static_cast<long long>(driver.next_partition()),
                   status.ToString().c_str());
      return 1;
    }
    ++steps;
    std::printf("gen %06lld tier=%d epochs=%lld fingerprint=%016llx "
                "brmse=%.4f auc=%.4f reloaded=%s\n",
                static_cast<long long>(result.generation), result.tier,
                static_cast<long long>(result.epochs_trained),
                static_cast<unsigned long long>(result.params_fingerprint),
                result.eval_brmse, result.eval_auc,
                result.reloaded ? "yes" : "no");
    std::fflush(stdout);
  }

  for (const stream::WaveStat& wave : driver.tracker().waves()) {
    std::printf("wave tier=%d start_epoch=%lld lag=%lld worst_auc=%.4f "
                "worst_brmse=%.4f\n",
                wave.tier, static_cast<long long>(wave.start_epoch),
                static_cast<long long>(wave.lag_epochs), wave.worst_auc,
                wave.worst_brmse);
  }
  if (telemetry != nullptr) RRRE_CHECK_OK(telemetry->Close());
  std::printf("rrre_streamd: %s after %lld steps\n",
              driver.Done() ? "stream complete" : "stopped",
              static_cast<long long>(steps));
  return 0;
}
