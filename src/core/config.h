#ifndef RRRE_CORE_CONFIG_H_
#define RRRE_CORE_CONFIG_H_

#include <cstdint>

#include "data/sampling.h"

namespace rrre::core {

/// Hyper-parameters of the RRRE model and its trainer. Defaults are scaled
/// for a single-core CPU run; the paper's reference settings (k = 64,
/// s_u = 13, s_i = 12, batch 500) are reachable through the bench flags.
struct RrreConfig {
  // -- Architecture ----------------------------------------------------------
  int64_t word_dim = 16;       ///< d: pretrained word-vector dimension.
  int64_t rev_dim = 32;        ///< k: review embedding size (BiLSTM output).
  int64_t id_dim = 16;         ///< User/item ID embedding size.
  int64_t attention_dim = 16;  ///< Width of the fraud-attention hidden layer.
  int64_t fm_factors = 8;      ///< FM pairwise factor count.
  int64_t max_tokens = 16;     ///< T: tokens kept per review.
  int64_t s_u = 5;             ///< User history slots (paper tunes 1..13).
  int64_t s_i = 7;             ///< Item history slots (paper tunes 12..132).

  // -- Objective ---------------------------------------------------------------
  double lambda = 0.5;  ///< L = lambda*loss1 + (1-lambda)*loss2 (Eq. 15).
  double gamma = 1e-5;  ///< L2 coefficient in loss2 (Eq. 14).
  /// true: Eq. 14 (reliability-weighted MSE). false: Eq. 13 — RRRE^-.
  bool biased_loss = true;
  /// true: fraud-attention pooling. false: mean pooling (ablation).
  bool use_attention = true;

  // -- Optimization ------------------------------------------------------------
  double lr = 6e-3;
  int64_t batch_size = 32;
  int64_t epochs = 5;
  double dropout = 0.0;
  double grad_clip = 5.0;
  uint64_t seed = 42;
  /// Examples per data-parallel shard; at least 1. Each minibatch is
  /// partitioned into ceil(B / shard_size) shards that build features, run
  /// forward and run backward concurrently on the global thread pool; shard
  /// gradients are merged in shard order before the single optimizer step,
  /// so results do not depend on the number of threads (see
  /// nn::ShardedStep and DESIGN.md, "Parallel execution"). The shard size
  /// changes only the float summation order and the shards' RNG streams.
  int64_t shard_size = 8;
  /// Training always runs on the compiled batch tape with fused kernels and
  /// replays each step's recorded schedule (see DESIGN.md, "Compiled batch
  /// tape & blocked kernels"); the trainer refuses either field set to
  /// false. Both exist only because perfbench's fixture still sets them,
  /// until the queued benchmark change drops those lines.
  bool use_tape = true;
  bool tape_replay = true;

  // -- Text pipeline -----------------------------------------------------------
  int64_t vocab_min_count = 2;
  bool pretrain_word_vectors = true;  ///< Skip-gram init (Sec. IV-A).
  int64_t pretrain_epochs = 2;

  // -- History sampling (Sec. III-D) -------------------------------------------
  data::SamplingStrategy sampling = data::SamplingStrategy::kLatest;
};

}  // namespace rrre::core

#endif  // RRRE_CORE_CONFIG_H_
