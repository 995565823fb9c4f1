#include "serve/batcher.h"

#include <chrono>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/tower_store.h"

namespace rrre::serve {

using common::Status;

namespace {

inline void Inc(obs::Counter* counter, int64_t delta = 1) {
  if (counter != nullptr) counter->Increment(delta);
}

inline void GaugeAdd(obs::Gauge* gauge, int64_t delta) {
  if (gauge != nullptr) gauge->Add(delta);
}

/// Fingerprint of the checkpoint at `prefix`; 0 (unknown) on failure — a
/// fingerprinting error must never take down serving, it only degrades the
/// STATS field the router's reload barrier reads.
uint64_t FingerprintOrZero(const std::string& prefix) {
  if (prefix.empty()) return 0;
  auto fp = core::CheckpointParamsFingerprint(prefix);
  if (!fp.ok()) {
    RRRE_LOG_WARNING << "cannot fingerprint checkpoint " << prefix << ": "
                     << fp.status().ToString();
    return 0;
  }
  return fp.value();
}

}  // namespace

common::Result<std::shared_ptr<const core::TowerStore>> LoadSnapshotStore(
    const core::RrreTrainer& trainer, const std::string& model_prefix,
    const std::string& store_path) {
  if (!store_path.empty()) {
    return core::MapTowerStoreForCheckpoint(store_path, model_prefix, trainer);
  }
  return core::ComputeTowerStore(trainer, FingerprintOrZero(model_prefix));
}

MicroBatcher::MicroBatcher(std::unique_ptr<core::RrreTrainer> trainer,
                           Options options,
                           std::shared_ptr<const core::TowerStore> store)
    : options_(std::move(options)),
      trainer_(std::move(trainer)),
      store_(std::move(store)) {
  RRRE_CHECK(trainer_ != nullptr);
  RRRE_CHECK(trainer_->fitted()) << "load or fit the trainer before serving";
  RRRE_CHECK_GE(options_.max_batch, 1);
  RRRE_CHECK_GE(options_.queue_capacity, 1);
  RRRE_CHECK_GE(options_.max_delay_us, 0);
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* m = options_.metrics;
    m_submitted_ = m->GetCounter("rrre_batcher_submitted_total",
                                 "requests admitted to the batching queue");
    m_rejected_ = m->GetCounter("rrre_batcher_rejected_total",
                                "requests refused by admission control");
    m_batches_ =
        m->GetCounter("rrre_batcher_batches_total", "Score calls executed");
    m_pairs_scored_ = m->GetCounter("rrre_batcher_pairs_scored_total",
                                    "expanded pairs across all batches");
    m_reloads_ = m->GetCounter("rrre_batcher_reloads_total",
                               "successful checkpoint swaps");
    m_queue_depth_ = m->GetGauge("rrre_batcher_queue_depth",
                                 "requests waiting for a batch slot");
    m_generation_ = m->GetGauge("rrre_batcher_generation",
                                "serving snapshot counter (+1 per reload)");
    m_batch_pairs_ = m->GetHistogram("rrre_batcher_batch_pairs",
                                     "expanded pairs per executed batch");
    m_batch_latency_us_ = m->GetHistogram(
        "rrre_batcher_batch_latency_us", "per-batch Score latency");
  }
  if (store_ == nullptr) {
    auto loaded = LoadSnapshotStore(*trainer_, options_.model_prefix,
                                    options_.store_path);
    RRRE_CHECK_OK(loaded.status());
    store_ = std::move(loaded).ValueOrDie();
  }
  scorer_ = MakeScorer();
  num_users_.store(trainer_->train_data().num_users());
  num_items_.store(trainer_->train_data().num_items());
  params_version_.store(trainer_->params_version());
  params_fingerprint_.store(store_->params_fingerprint());
  paused_ = options_.start_paused;
  scorer_thread_ = std::thread(&MicroBatcher::ScorerLoop, this);
}

MicroBatcher::~MicroBatcher() { Stop(); }

bool MicroBatcher::TrySubmit(int64_t user, int64_t item, DoneFn done) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_ ||
      static_cast<int64_t>(queue_.size()) >= options_.queue_capacity) {
    ++stats_.rejected;
    Inc(m_rejected_);
    return false;
  }
  queue_.push_back(WorkItem{user, item, std::move(done)});
  ++stats_.submitted;
  Inc(m_submitted_);
  GaugeAdd(m_queue_depth_, 1);
  work_cv_.notify_one();
  return true;
}

void MicroBatcher::RequestReload(std::string prefix, ReloadDoneFn done) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopping_) {
      reloads_.push_back(ReloadRequest{std::move(prefix), std::move(done)});
      work_cv_.notify_one();
      return;
    }
  }
  if (done) done(Status::FailedPrecondition("batcher is stopping"), -1);
}

void MicroBatcher::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void MicroBatcher::Resume() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = false;
  work_cv_.notify_all();
}

void MicroBatcher::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] {
    return queue_.empty() && reloads_.empty() && !executing_;
  });
}

void MicroBatcher::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && !scorer_thread_.joinable()) return;
    stopping_ = true;
    work_cv_.notify_all();
  }
  if (scorer_thread_.joinable()) scorer_thread_.join();
}

MicroBatcher::Stats MicroBatcher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void MicroBatcher::ScorerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] {
      return stopping_ || !reloads_.empty() ||
             (!queue_.empty() && !paused_);
    });
    if (!reloads_.empty()) {
      ReloadRequest request = std::move(reloads_.front());
      reloads_.pop_front();
      executing_ = true;
      lock.unlock();
      DoReload(std::move(request));
      lock.lock();
      executing_ = false;
      done_cv_.notify_all();
      continue;
    }
    if (queue_.empty()) {
      if (stopping_) break;  // Stop() drains the queue before exiting.
      continue;
    }
    // Form a batch: take what is queued, then linger up to max_delay_us for
    // more until max_batch expanded pairs are gathered. A catalog request
    // counts as num_items pairs (it is always taken when first, so a catalog
    // larger than max_batch still runs — as its own batch).
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(options_.max_delay_us);
    std::vector<WorkItem> batch;
    int64_t pair_count = 0;
    const int64_t catalog_pairs = num_items_.load();
    for (;;) {
      while (!queue_.empty() && pair_count < options_.max_batch) {
        const int64_t weight =
            queue_.front().item == kCatalogItem ? catalog_pairs : 1;
        if (!batch.empty() && pair_count + weight > options_.max_batch) break;
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
        GaugeAdd(m_queue_depth_, -1);
        pair_count += weight;
      }
      if (pair_count >= options_.max_batch || stopping_) break;
      if (!queue_.empty()) break;  // Next request does not fit this batch.
      if (work_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        break;  // Linger expired: ship what we have.
      }
    }
    executing_ = true;
    lock.unlock();
    ExecuteBatch(std::move(batch));
    lock.lock();
    executing_ = false;
    done_cv_.notify_all();
  }
}

void MicroBatcher::ExecuteBatch(std::vector<WorkItem> batch) {
  // Validate against the *current* snapshot: a reload may have shrunk the
  // corpus after admission validated these ids.
  const int64_t num_users = num_users_.load();
  const int64_t num_items = num_items_.load();
  std::vector<std::pair<int64_t, int64_t>> pairs;
  struct Slice {
    size_t offset;
    size_t length;
  };
  std::vector<Slice> slices(batch.size());
  std::vector<bool> out_of_range(batch.size(), false);
  for (size_t w = 0; w < batch.size(); ++w) {
    const WorkItem& item = batch[w];
    if (item.user < 0 || item.user >= num_users ||
        (item.item != kCatalogItem &&
         (item.item < 0 || item.item >= num_items))) {
      out_of_range[w] = true;
      continue;
    }
    slices[w].offset = pairs.size();
    if (item.item == kCatalogItem) {
      for (int64_t i = 0; i < num_items; ++i) pairs.emplace_back(item.user, i);
      slices[w].length = static_cast<size_t>(num_items);
    } else {
      pairs.emplace_back(item.user, item.item);
      slices[w].length = 1;
    }
  }

  core::RrreTrainer::Predictions preds;
  double elapsed_us = 0.0;
  if (!pairs.empty()) {
    common::Timer timer;
    const int64_t version_before = trainer_->params_version();
    preds = scorer_->Score(pairs);
    // The invariant the hot-reload design rests on: parameters never change
    // under a batch, because reloads only run between batches on this very
    // thread.
    RRRE_CHECK_EQ(trainer_->params_version(), version_before)
        << "model parameters changed under an in-flight batch";
    elapsed_us = timer.ElapsedSeconds() * 1e6;
  }

  // Account the batch before dispatching callbacks, so an observer woken by
  // its completion reads stats that already include the batch it was in.
  if (!pairs.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.batches;
      stats_.pairs_scored += static_cast<int64_t>(pairs.size());
      stats_.batch_pairs.Record(static_cast<double>(pairs.size()));
      stats_.batch_latency_us.Record(elapsed_us);
    }
    Inc(m_batches_);
    Inc(m_pairs_scored_, static_cast<int64_t>(pairs.size()));
    if (m_batch_pairs_ != nullptr) {
      m_batch_pairs_->Record(static_cast<double>(pairs.size()));
      m_batch_latency_us_->Record(elapsed_us);
    }
  }

  for (size_t w = 0; w < batch.size(); ++w) {
    const WorkItem& item = batch[w];
    if (!item.done) continue;
    if (out_of_range[w]) {
      item.done(Status::OutOfRange(
                    "id out of range for the current snapshot (user " +
                    std::to_string(item.user) + ", item " +
                    std::to_string(item.item) + ")"),
                {});
      continue;
    }
    std::vector<ScoredPair> results(slices[w].length);
    for (size_t k = 0; k < slices[w].length; ++k) {
      const size_t p = slices[w].offset + k;
      results[k] = ScoredPair{pairs[p].first, pairs[p].second,
                              preds.ratings[p], preds.reliabilities[p]};
    }
    item.done(Status::Ok(), results);
  }
}

void MicroBatcher::DoReload(ReloadRequest request) {
  // Load into a fresh trainer so a bad checkpoint cannot wreck the snapshot
  // that is currently serving. The serve.reload failpoint injects a load
  // failure here — the recovery contract (keep the old snapshot, report the
  // error) is identical to a genuinely corrupt checkpoint.
  auto fresh = std::make_unique<core::RrreTrainer>(trainer_->config());
  Status status =
      common::failpoint::MaybeError("serve.reload", "reload " + request.prefix);
  if (status.ok()) status = fresh->Load(request.prefix);
  // The store swaps with the parameters: re-map the store path (a republish
  // renamed a new file into place; the old mapping still points at the old
  // inode) and verify it against the *fresh* checkpoint, or compute every
  // profile of the fresh parameters. A torn, corrupt, or stale-fingerprint
  // store fails the whole reload — the old snapshot and old store keep
  // serving.
  std::shared_ptr<const core::TowerStore> fresh_store;
  if (status.ok()) {
    auto loaded =
        LoadSnapshotStore(*fresh, request.prefix, options_.store_path);
    if (loaded.ok()) {
      fresh_store = std::move(loaded).ValueOrDie();
    } else {
      status = loaded.status();
    }
  }
  int64_t generation = -1;
  if (status.ok()) {
    trainer_ = std::move(fresh);
    store_ = std::move(fresh_store);
    scorer_ = MakeScorer();
    num_users_.store(trainer_->train_data().num_users());
    num_items_.store(trainer_->train_data().num_items());
    params_version_.store(trainer_->params_version());
    params_fingerprint_.store(store_->params_fingerprint());
    generation = generation_.fetch_add(1) + 1;
    Inc(m_reloads_);
    if (m_generation_ != nullptr) m_generation_->Set(generation);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.reloads;
  } else {
    RRRE_LOG_WARNING << "hot reload of " << request.prefix
                     << " failed; still serving the previous snapshot: "
                     << status.ToString();
  }
  if (request.done) request.done(status, generation);
}

std::unique_ptr<core::BatchScorer> MicroBatcher::MakeScorer() {
  auto scorer = std::make_unique<core::BatchScorer>(trainer_.get());
  scorer->AttachStore(store_);
  return scorer;
}

}  // namespace rrre::serve
