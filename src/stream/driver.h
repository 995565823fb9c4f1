#ifndef RRRE_STREAM_DRIVER_H_
#define RRRE_STREAM_DRIVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/config.h"
#include "core/trainer.h"
#include "data/adversary.h"
#include "obs/telemetry.h"
#include "stream/detection.h"
#include "stream/publish.h"

namespace rrre::stream {

/// A serving process the driver hot-reloads after each publish.
struct StreamEndpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct StreamOptions {
  /// Trainer configuration. config.epochs is the epoch budget of the cold
  /// start (partition 0); later partitions train epochs_per_partition more.
  core::RrreConfig config;
  /// Extra epochs per warm-start retrain; 0 reuses config.epochs.
  int64_t epochs_per_partition = 0;
  /// Root of the versioned publish layout (see publish.h).
  std::string publish_root;
  /// Build and publish a tower store with each generation. Requires the
  /// deterministic serving history sampling (see BuildTowerStore).
  bool build_store = true;
  /// rrre_served / rrre_routed processes to RELOAD after each publish. A
  /// router endpoint reloads its whole fleet behind its rolling barrier.
  std::vector<StreamEndpoint> reload_endpoints;
  /// Send and receive deadline on one endpoint's connection: the RELOAD
  /// ack and the STATS read after it.
  int reload_timeout_ms = 15000;
  /// Per-epoch + per-generation JSONL stream; not owned, may be null.
  obs::TelemetryWriter* telemetry = nullptr;
  DetectionLagTracker::Options detection;
};

/// What one Step() produced.
struct GenerationResult {
  int64_t generation = -1;
  int tier = 0;
  int64_t epochs_trained = 0;
  uint64_t params_fingerprint = 0;
  /// Eval metrics of the final epoch of this generation's retrain (0/0 when
  /// the retrain was skipped because recovery found it already trained).
  double eval_brmse = 0.0;
  double eval_auc = 0.0;
  /// True when every reload endpoint converged on the new fingerprint.
  bool reloaded = false;
};

/// The streaming retrain loop: consumes arena partitions in order,
/// warm-starts each retrain from the previous checkpoint (exact-resume
/// path), publishes generation k = partition k under the versioned layout,
/// swaps the `current` symlink, and hot-reloads the serving fleet. A sliding
/// eval after every epoch feeds the DetectionLagTracker.
///
/// Crash-safety / determinism: Recover() re-derives all progress from the
/// newest valid manifest — never from the symlink, never from in-memory
/// state. Because partition k's corpus is a pure function of the arena seed
/// and the retrain is a pure function of (checkpoint, corpus, epochs), a
/// driver killed anywhere and restarted publishes byte-identical artifacts
/// for every remaining generation.
class StreamDriver {
 public:
  /// `arena` is not owned and must outlive the driver.
  StreamDriver(const data::AdversaryModel* arena, StreamOptions options);

  /// Restores progress from options.publish_root: loads the newest valid
  /// generation's checkpoint into the trainer and repairs the `current`
  /// link, or starts fresh when none exists. Must be called before Step.
  common::Status Recover();

  /// Trains, publishes and reloads the next partition. Retry-safe: a Step
  /// that failed mid-way (e.g. an injected publish fault) can be called
  /// again and resumes at the failed phase without re-training — that is
  /// what keeps the retried run bitwise identical to an unfaulted one.
  common::Status Step(GenerationResult* result);

  /// True when every arena partition has been trained, published, reloaded.
  bool Done() const { return next_partition_ >= arena_->num_partitions(); }

  int64_t next_partition() const { return next_partition_; }
  const DetectionLagTracker& tracker() const { return tracker_; }
  core::RrreTrainer& trainer() { return trainer_; }

 private:
  /// Sends RELOAD to one endpoint, then reads one STATS line: fails at once
  /// unless it reports `fingerprint` and (when the peer reports one — the
  /// router does) quarantined 0.
  common::Status ReloadEndpoint(const StreamEndpoint& endpoint,
                                uint64_t fingerprint);

  const data::AdversaryModel* arena_;
  StreamOptions options_;
  core::RrreTrainer trainer_;
  DetectionLagTracker tracker_;

  int64_t next_partition_ = 0;
  /// Progress watermarks: partition k's retrain ran iff trained_through_ >=
  /// k, its generation is durable iff published_through_ >= k. They are what
  /// makes a failed Step retryable without double-training.
  int64_t trained_through_ = -1;
  int64_t published_through_ = -1;
};

}  // namespace rrre::stream

#endif  // RRRE_STREAM_DRIVER_H_
