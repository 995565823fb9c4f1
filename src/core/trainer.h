#ifndef RRRE_CORE_TRAINER_H_
#define RRRE_CORE_TRAINER_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "core/config.h"
#include "core/features.h"
#include "core/model.h"
#include "data/dataset.h"
#include "nn/optimizer.h"
#include "nn/sharded_step.h"
#include "obs/telemetry.h"
#include "tensor/tape.h"
#include "text/vocab.h"

namespace rrre::core {

/// End-to-end RRRE training and inference:
///  1. builds the vocabulary from the training reviews,
///  2. pretrains word vectors with skip-gram (Sec. IV-A),
///  3. trains the joint objective L = lambda*loss1 + (1-lambda)*loss2
///     (Eqs. 11, 14, 15) with Adam,
///  4. predicts (rating, reliability) for arbitrary user-item pairs, with
///     histories drawn from the training corpus.
class RrreTrainer {
 public:
  explicit RrreTrainer(RrreConfig config);

  struct EpochStats {
    int64_t epoch = 0;
    double loss = 0.0;       ///< Mean joint loss over batches.
    double loss1 = 0.0;      ///< Mean reliability cross-entropy.
    double loss2 = 0.0;      ///< Mean (biased) rating loss incl. L2.
    double seconds = 0.0;    ///< Wall-clock time of the epoch.
    double grad_norm = 0.0;  ///< Mean pre-clip global gradient norm.
  };
  using EpochCallback = std::function<void(const EpochStats&)>;

  /// Per-epoch JSONL telemetry. When `writer` is set, Fit/Resume append one
  /// record per epoch: the joint-objective decomposition (loss/loss1/loss2),
  /// the mean pre-clip gradient norm, batch/example counts, and — when
  /// `eval` is set — bRMSE and AUC of the current parameters on that
  /// held-out set. Wall-clock fields (epoch seconds, per-shard wall-times,
  /// and `tail_us_mean`, the mean time per step from the shard join through
  /// the optimizer step) are emitted only when the writer includes timings,
  /// so a timing-free stream is bitwise identical across thread counts and
  /// runs.
  ///
  /// Evaluating mid-training does not perturb the run: the trainer's RNG
  /// state is snapshotted around the eval pass, so the shuffles and history
  /// draws of later epochs are exactly those of an uninstrumented run.
  struct TelemetryOptions {
    obs::TelemetryWriter* writer = nullptr;  ///< Not owned; may be null.
    const data::ReviewDataset* eval = nullptr;  ///< Not owned; optional.
  };
  void SetTelemetry(TelemetryOptions telemetry) { telemetry_ = telemetry; }

  /// Trains on `train` (copied internally — histories are needed at
  /// inference). Calling Fit twice restarts from scratch.
  void Fit(const data::ReviewDataset& train, EpochCallback callback = nullptr);

  /// Continues training a checkpoint restored by Load: runs the remaining
  /// epochs [epochs_completed(), config().epochs). Because Save captures the
  /// optimizer moments, step count and RNG state, the resumed run is bitwise
  /// identical to one that was never interrupted. Returns
  /// FailedPrecondition when the checkpoint carries no optimizer state
  /// (saved by an older version, or never trained); a no-op when training
  /// already reached config().epochs.
  common::Status Resume(EpochCallback callback = nullptr);

  /// Warm-start continuation on a *grown* corpus — the streaming-retrain
  /// primitive. Replaces the training corpus with `train` (which must cover
  /// the same user/item universe: the id embedding tables are sized to it),
  /// keeps the model parameters, optimizer moments, vocabulary and rating
  /// offset exactly as they are, raises config().epochs by `extra_epochs`
  /// and trains the new epochs on the new corpus. Words that entered the
  /// corpus after the vocabulary was built map to OOV, exactly as unseen
  /// words do at inference.
  ///
  /// Determinism contract: the run is a pure function of (checkpoint state,
  /// train, extra_epochs). A Save → Load → ResumeWith on another process is
  /// bitwise identical to calling ResumeWith in the original process, which
  /// is what makes a kill-then-resume of the streaming driver reproduce an
  /// uninterrupted stream byte for byte.
  common::Status ResumeWith(const data::ReviewDataset& train,
                            int64_t extra_epochs,
                            EpochCallback callback = nullptr);

  struct EvalResult {
    double brmse = 0.0;  ///< Biased RMSE (Eq. 17) on the eval set.
    double auc = 0.0;    ///< Benign-vs-fake AUC of the reliability head.
  };

  /// Scores `eval` with the current parameters without perturbing training:
  /// the trainer RNG is snapshotted around the prediction pass, so training
  /// epochs after an Evaluate are bitwise identical to a run that never
  /// evaluated. This is the sliding detection-lag probe of the streaming
  /// loop.
  EvalResult Evaluate(const data::ReviewDataset& eval);

  struct Predictions {
    std::vector<double> ratings;
    std::vector<double> reliabilities;  ///< P(benign) per pair.
  };

  /// Predicts for explicit (user, item) pairs.
  Predictions PredictPairs(
      const std::vector<std::pair<int64_t, int64_t>>& pairs);

  /// Predicts for every review in `reviews` (aligned with reviews.reviews())
  /// with histories drawn from the training corpus only (inductive — used
  /// for rating prediction, where the target review's text must not leak).
  Predictions PredictDataset(const data::ReviewDataset& reviews);

  /// Predicts for every review of `reviews` with histories drawn from the
  /// union of the training corpus and `reviews` itself (labels unused).
  /// This matches Eq. (1)'s W^u/W^i — all reviews of u and i, including the
  /// one being scored — and gives RRRE the same information access as the
  /// detector baselines when scoring reliability (Tables IV-VI).
  Predictions PredictDatasetTransductive(const data::ReviewDataset& reviews);

  /// Persists a fitted trainer: model parameters (<prefix>.model), the
  /// vocabulary (<prefix>.vocab), the training corpus used for histories
  /// (<prefix>.train.tsv), optimizer moments when available
  /// (<prefix>.optimizer) and scalar state — exact rating offset, epoch
  /// counter, RNG state and the history shape (s_u, s_i, max_tokens) — in
  /// <prefix>.meta. The rest of the RrreConfig is not serialized —
  /// construct the loading trainer with the same one.
  common::Status Save(const std::string& prefix) const;

  /// Restores a trainer saved by Save into this instance (which must have
  /// been constructed with a matching config). After Load the trainer can
  /// predict, Resume() remaining epochs (when optimizer state was saved), or
  /// Fit again to retrain from scratch. A history shape in .meta that
  /// differs from config() fails with FailedPrecondition. Legacy checkpoints
  /// (scalar-only .meta) still load but cannot Resume.
  common::Status Load(const std::string& prefix);

  /// File suffixes a Save(prefix) writes, in write order. ".optimizer" is
  /// included only when optimizer state exists. Publish layers and cleanup
  /// loops should derive checkpoint file lists from this instead of
  /// hard-coding suffixes, so a format change cannot orphan artifacts.
  static std::vector<std::string> CheckpointSuffixes(bool with_optimizer);

  bool fitted() const { return model_ != nullptr; }
  const RrreModel& model() const;
  const text::Vocabulary& vocab() const;
  const data::ReviewDataset& train_data() const;
  const RrreConfig& config() const { return config_; }
  /// Mean training rating added back onto the FM head's residual output.
  double rating_offset() const { return rating_offset_; }
  /// Epochs finished so far (across Fit and Resume; restored by Load).
  int64_t epochs_completed() const { return epochs_completed_; }
  /// Monotone counter bumped whenever the model parameters change (each
  /// optimizer step, each Fit restart, each Load). Consumers that cache
  /// parameter-derived values (e.g. BatchScorer tower profiles) snapshot it
  /// and treat a mismatch as staleness.
  int64_t params_version() const { return params_version_; }
  /// Aggregated counters of the per-shard batch tapes (zeroes before
  /// training has run). Fit and Load start fresh tapes, so the counters
  /// cover only the current model's steps. The
  /// interesting invariants — buffer_allocs stops growing after the first
  /// step of each shape, distinct_sequences stays at the number of distinct
  /// batch shapes — are asserted by tests/test_kernels.cc.
  tensor::BatchTape::Stats TapeStats() const;

 private:
  /// Runs epochs [first_epoch, config_.epochs) of the training loop on the
  /// already-initialized model/optimizer/features.
  void TrainEpochs(int64_t first_epoch, const EpochCallback& callback);

  /// Scores `pairs` in batch_size chunks with histories drawn from
  /// `features`. One rng per chunk is forked from rng_ serially, in chunk
  /// order, before the chunks run concurrently.
  Predictions PredictWith(
      const FeatureBuilder& features,
      const std::vector<std::pair<int64_t, int64_t>>& pairs);

  /// Scores telemetry_.eval with the current parameters and appends one
  /// telemetry record for `stats`; RNG state is preserved across the call.
  void EmitEpochTelemetry(const EpochStats& stats, int64_t examples,
                          int64_t batches,
                          const common::Histogram& shard_seconds,
                          double tail_seconds_mean);

  RrreConfig config_;
  TelemetryOptions telemetry_;
  common::Rng rng_;
  /// Mean training rating; the FM head learns residuals around it so the
  /// rating loss does not dwarf the reliability loss early in training.
  double rating_offset_ = 0.0;
  int64_t epochs_completed_ = 0;
  int64_t params_version_ = 0;
  std::unique_ptr<data::ReviewDataset> train_;
  std::unique_ptr<text::Vocabulary> vocab_;
  std::unique_ptr<RrreModel> model_;
  std::unique_ptr<FeatureBuilder> features_;
  std::unique_ptr<nn::Adam> optimizer_;
  /// Built with each new model (Fit, Load): its tapes replay graphs recorded
  /// over that model's parameters. Kept across batches and epochs.
  std::unique_ptr<nn::ShardedStep> step_;
};

}  // namespace rrre::core

#endif  // RRRE_CORE_TRAINER_H_
