#ifndef RRRE_BASELINES_NEURAL_BASE_H_
#define RRRE_BASELINES_NEURAL_BASE_H_

#include <memory>
#include <utility>
#include <vector>

#include "baselines/predictor.h"
#include "common/rng.h"
#include "nn/embedding.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "nn/sharded_step.h"
#include "tensor/tensor.h"
#include "text/vocab.h"

namespace rrre::baselines {

/// Shared trainer skeleton for the neural review-based rating baselines
/// (DeepCoNN, NARRE, DER): vocabulary construction, skip-gram word-vector
/// pretraining, mini-batch MSE training with Adam, and chunked prediction.
/// Subclasses provide the network: BuildModel() and ForwardRating().
///
/// Unlike RRRE, the baselines train on every review with the plain MSE of
/// Eq. (13) — fake reviews pollute their gradients, which is the effect
/// Table III measures.
class NeuralRatingBaseline : public RatingPredictor {
 public:
  struct CommonConfig {
    int64_t word_dim = 16;
    int64_t epochs = 5;
    int64_t batch_size = 32;
    double lr = 3e-3;
    double grad_clip = 5.0;
    uint64_t seed = 42;
    int64_t vocab_min_count = 2;
    bool pretrain_word_vectors = true;
    int64_t pretrain_epochs = 2;
    /// Examples per data-parallel shard; at least 1. Same contract as
    /// RrreConfig::shard_size.
    int64_t shard_size = 8;
    /// Train on a compiled batch tape with fused kernels; bitwise identical
    /// to the eager path. Same contract as RrreConfig::use_tape.
    bool use_tape = true;
    /// Replay the cached backward schedule per step fingerprint. Same
    /// contract as RrreConfig::tape_replay.
    bool tape_replay = true;
  };

  void Fit(const data::ReviewDataset& train) final;
  std::vector<double> PredictRatings(
      const std::vector<std::pair<int64_t, int64_t>>& pairs) final;

  bool fitted() const { return fitted_; }
  const text::Vocabulary& vocab() const { return *vocab_; }
  const data::ReviewDataset& train_data() const { return *train_; }

 protected:
  explicit NeuralRatingBaseline(CommonConfig config);

  /// Constructs the subclass network (vocab and train data are available
  /// through the accessors at this point).
  virtual void BuildModel(int64_t num_users, int64_t num_items,
                          int64_t vocab_size, common::Rng& rng) = 0;
  /// Root module of the network (for parameter collection).
  virtual nn::Module* module() = 0;
  /// The shared word table (skip-gram initialized, then frozen).
  virtual nn::Embedding* word_embedding() = 0;
  /// Predicted ratings [B, 1] for the pairs. `exclude[i]` is a train review
  /// index to drop from pair i's inputs (-1 = none).
  virtual tensor::Tensor ForwardRating(
      const std::vector<std::pair<int64_t, int64_t>>& pairs,
      const std::vector<int64_t>& exclude, bool training,
      common::Rng& rng) = 0;

  const CommonConfig& common_config() const { return config_; }

 private:
  CommonConfig config_;
  common::Rng rng_;
  bool fitted_ = false;
  std::unique_ptr<data::ReviewDataset> train_;
  std::unique_ptr<text::Vocabulary> vocab_;
  std::unique_ptr<nn::Adam> optimizer_;
  /// Built with each new model in Fit; see RrreTrainer::step_.
  std::unique_ptr<nn::ShardedStep> step_;
};

}  // namespace rrre::baselines

#endif  // RRRE_BASELINES_NEURAL_BASE_H_
