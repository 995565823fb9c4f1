#ifndef RRRE_SERVE_BATCHER_H_
#define RRRE_SERVE_BATCHER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "core/scorer.h"
#include "core/tower_store.h"
#include "core/trainer.h"
#include "obs/metrics.h"

namespace rrre::serve {

/// Dynamic micro-batching scheduler in front of a store-backed BatchScorer.
///
/// Producers (connection threads) enqueue single (user, item) requests with
/// TrySubmit; a dedicated scorer thread collects them into batches — up to
/// `max_batch` expanded pairs, or whatever arrived within `max_delay_us` of
/// the first queued request, whichever comes first — and runs one
/// BatchScorer::Score per batch. Batching across connections is what turns
/// many tiny per-request model calls into a few dense ones.
///
/// Admission control: the request queue is bounded by `queue_capacity`;
/// TrySubmit returns false instead of blocking or growing without bound, and
/// the caller answers the client with an explicit overload error.
///
/// Hot reload: RequestReload loads the checkpoint into a *fresh* trainer on
/// the scorer thread between batches and swaps it in only on success, so a
/// corrupt checkpoint never breaks the serving snapshot and no batch ever
/// mixes parameter versions (asserted via RrreTrainer::params_version()
/// around every Score call). The batch in flight when the reload lands
/// finishes on the old snapshot; later batches see the new one.
///
/// Every snapshot scores from a TowerStore: the one published at
/// Options::store_path, or, without a path, every profile computed in memory
/// when the snapshot loads (LoadSnapshotStore) — at construction and on each
/// reload, on the scorer thread while requests queue. No request batch ever
/// runs a tower.
///
/// The model (trainer + store + scorer) is owned by the batcher and touched
/// only by the scorer thread — that single-writer discipline is the whole
/// concurrency story for the neural net.
class MicroBatcher {
 public:
  struct Options {
    int64_t max_batch = 64;        ///< Expanded pairs per batch (>= 1).
    int64_t max_delay_us = 1000;   ///< Linger after the first queued request.
    int64_t queue_capacity = 1024; ///< Admission bound, in queued requests.
    /// Read nowhere: the batcher scores only from a tower store, so there
    /// is no tower cache to bound. Kept because perfbench's fixture still
    /// assigns it; the queued benchmark change that stops the fixture
    /// setting it deletes this field (ROADMAP, queued benchmark changes).
    int64_t tower_cache_cap = 0;
    /// Start with the scorer gate closed (tests use this to fill the queue
    /// deterministically); call Resume() to open it.
    bool start_paused = false;
    /// When non-empty, every snapshot serves from the store published here:
    /// every reload re-maps this path and verifies it against the *new*
    /// checkpoint's params fingerprint (MapTowerStoreForCheckpoint) — store
    /// and parameters swap together or not at all. A reload pointing at a
    /// checkpoint whose store was not republished fails and keeps the old
    /// snapshot *and* the old store serving. When empty, each snapshot's
    /// store is computed from its parameters.
    std::string store_path;
    /// When non-empty, the checkpoint prefix backing the initial snapshot.
    /// Its params *fingerprint* is surfaced in STATS — the durable,
    /// cross-process analogue of params_version() (which counts per-process
    /// mutations and is meaningless across a fleet). The router's
    /// rolling-reload barrier compares fingerprints across shards to prove
    /// they serve one parameter version; a reload takes the fingerprint of
    /// the reloaded prefix.
    std::string model_prefix;
    /// When set, the batcher mirrors its accounting into this registry
    /// (rrre_batcher_* counters, queue-depth gauge, batch histograms) for
    /// the METRICS exposition. Null disables the mirroring entirely. Not
    /// owned; must outlive the batcher.
    obs::MetricsRegistry* metrics = nullptr;
  };

  struct ScoredPair {
    int64_t user = 0;
    int64_t item = 0;
    double rating = 0.0;
    double reliability = 0.0;
  };

  struct Stats {
    int64_t submitted = 0;     ///< Requests admitted to the queue.
    int64_t rejected = 0;      ///< Requests refused by admission control.
    int64_t batches = 0;       ///< Score calls executed.
    int64_t pairs_scored = 0;  ///< Expanded pairs across all batches.
    int64_t reloads = 0;       ///< Successful checkpoint swaps.
    common::Histogram batch_pairs;       ///< Batch size distribution (pairs).
    common::Histogram batch_latency_us;  ///< Per-batch Score latency.
  };

  /// One scored or failed request. On success `results` holds one entry for
  /// a pair request and `num_items` entries (items 0..n-1 in order) for a
  /// catalog request. Invoked on the scorer thread; must not block.
  using DoneFn = std::function<void(const common::Status&,
                                    const std::vector<ScoredPair>&)>;
  /// Reload outcome; `generation` is the batcher's snapshot counter after a
  /// successful swap (monotone across reloads, starts at 0).
  using ReloadDoneFn =
      std::function<void(const common::Status&, int64_t generation)>;

  /// Sentinel item id: score the user against the whole catalog.
  static constexpr int64_t kCatalogItem = -1;

  /// `trainer` must be fitted (or loaded). The scorer thread starts
  /// immediately unless options.start_paused. `store` is the initial
  /// snapshot's tower store, built from the trainer's parameters (map it
  /// with core::MapTowerStoreForCheckpoint so parameter identity is
  /// verified). When null, the constructor loads it with LoadSnapshotStore
  /// and dies if that fails.
  MicroBatcher(std::unique_ptr<core::RrreTrainer> trainer, Options options,
               std::shared_ptr<const core::TowerStore> store = nullptr);
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Enqueues one request. Returns false when the queue is at capacity or
  /// the batcher is stopping — never blocks. `done` runs exactly once iff
  /// the request was admitted.
  bool TrySubmit(int64_t user, int64_t item, DoneFn done);

  /// Asynchronously swaps the serving snapshot to `prefix`. Processed on the
  /// scorer thread before the next batch; `done` always runs exactly once.
  void RequestReload(std::string prefix, ReloadDoneFn done);

  /// Gates batch execution (admission stays open). Stop() overrides a pause
  /// so shutdown always drains.
  void Pause();
  void Resume();

  /// Blocks until the queue, pending reloads and the in-flight batch are all
  /// done. Only meaningful while running (not paused).
  void Drain();

  /// Drains the queue, then joins the scorer thread. Idempotent. Further
  /// TrySubmit calls return false.
  void Stop();

  Stats stats() const;

  /// Corpus bounds of the current snapshot — what admission validates ids
  /// against. Updated by reloads.
  int64_t num_users() const { return num_users_.load(); }
  int64_t num_items() const { return num_items_.load(); }
  /// Snapshot counter: 0 at start, +1 per successful reload.
  int64_t generation() const { return generation_.load(); }
  /// params_version() of the current snapshot's trainer.
  int64_t params_version() const { return params_version_.load(); }
  /// The serving snapshot's store's params fingerprint: the
  /// CheckpointParamsFingerprint of its checkpoint — a cross-process
  /// parameter identity. 0 when unknown (a computed store without
  /// Options::model_prefix, or fingerprinting failed).
  uint64_t params_fingerprint() const { return params_fingerprint_.load(); }

 private:
  struct WorkItem {
    int64_t user;
    int64_t item;  ///< kCatalogItem = whole catalog.
    DoneFn done;
  };
  struct ReloadRequest {
    std::string prefix;
    ReloadDoneFn done;
  };

  void ScorerLoop();
  /// Executes one batch outside the lock; invokes callbacks.
  void ExecuteBatch(std::vector<WorkItem> batch);
  void DoReload(ReloadRequest request);
  /// Builds a scorer over the current trainer and store.
  std::unique_ptr<core::BatchScorer> MakeScorer();

  const Options options_;
  std::unique_ptr<core::RrreTrainer> trainer_;
  /// Current snapshot's tower store, mapped or computed. Swapped together
  /// with trainer_ by DoReload; shared so a draining scorer can outlive a
  /// swap.
  std::shared_ptr<const core::TowerStore> store_;
  std::unique_ptr<core::BatchScorer> scorer_;

  /// Registry handles, resolved once in the constructor; all null when
  /// options_.metrics is null (the hot path then pays one branch each).
  obs::Counter* m_submitted_ = nullptr;
  obs::Counter* m_rejected_ = nullptr;
  obs::Counter* m_batches_ = nullptr;
  obs::Counter* m_pairs_scored_ = nullptr;
  obs::Counter* m_reloads_ = nullptr;
  obs::Gauge* m_queue_depth_ = nullptr;
  obs::Gauge* m_generation_ = nullptr;
  obs::HistogramMetric* m_batch_pairs_ = nullptr;
  obs::HistogramMetric* m_batch_latency_us_ = nullptr;

  std::atomic<int64_t> num_users_{0};
  std::atomic<int64_t> num_items_{0};
  std::atomic<int64_t> generation_{0};
  std::atomic<int64_t> params_version_{0};
  std::atomic<uint64_t> params_fingerprint_{0};

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< Wakes the scorer thread.
  std::condition_variable done_cv_;  ///< Wakes Drain/Stop waiters.
  std::deque<WorkItem> queue_;
  std::deque<ReloadRequest> reloads_;
  bool paused_ = false;
  bool stopping_ = false;
  bool executing_ = false;  ///< A batch or reload is running unlocked.
  Stats stats_;

  std::thread scorer_thread_;
};

/// The tower store a snapshot serves from, for `trainer` freshly loaded from
/// `model_prefix`: `store_path` mapped and verified against that checkpoint
/// (core::MapTowerStoreForCheckpoint) when set; otherwise every profile
/// computed in memory (core::ComputeTowerStore), stamped with the
/// checkpoint's params fingerprint, or with 0 when `model_prefix` is empty
/// or cannot be fingerprinted.
common::Result<std::shared_ptr<const core::TowerStore>> LoadSnapshotStore(
    const core::RrreTrainer& trainer, const std::string& model_prefix,
    const std::string& store_path);

}  // namespace rrre::serve

#endif  // RRRE_SERVE_BATCHER_H_
