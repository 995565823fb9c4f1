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
  /// Examples per data-parallel shard; must not be negative. Each minibatch
  /// is partitioned into ceil(B / shard_size) shards (0 = one shard of the
  /// whole batch, drawing from the trainer's RNG itself) that build
  /// features, run forward and run backward concurrently on the global
  /// thread pool; shard gradients are merged in shard order before the
  /// single optimizer step, so results do not depend on the number of
  /// threads (see nn::ShardedStep and DESIGN.md, "Parallel execution").
  int64_t shard_size = 0;
  /// Run each training step on a compiled batch tape: fused gate/attention
  /// kernels plus a per-step arena that recycles every graph-node buffer
  /// after the first batch (see DESIGN.md, "Compiled batch tape & blocked
  /// kernels"). Bitwise identical to the eager path; off is kept as the
  /// reference for parity tests and bisection.
  bool use_tape = true;
  /// With the tape on, cache the recorded backward schedule per step
  /// fingerprint and replay it: steady-state steps skip the topological DFS
  /// and rebuild no closures. Bitwise identical to rebuilding every step;
  /// off (`--tape_replay=false`) restores the rebuild-every-step tape as an
  /// escape hatch and a bisection reference.
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
