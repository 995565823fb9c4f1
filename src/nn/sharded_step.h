#ifndef RRRE_NN_SHARDED_STEP_H_
#define RRRE_NN_SHARDED_STEP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "tensor/tape.h"
#include "tensor/tensor.h"

namespace rrre::nn {

/// The gradient pass of one data-parallel training step, shared by
/// RrreTrainer and the neural rating baselines; the caller then clips and
/// steps its optimizer.
///
/// Run() splits a batch of B examples into shards of `shard_size` examples,
/// the last one possibly shorter. Each shard builds its loss through the
/// caller's callback and backpropagates it into a private GradSink, the
/// shards running concurrently on the global pool. Run() then zeroes the
/// real grad of every leaf a shard touched, backpropagates the optional
/// parameter-only loss (RRRE's L2 term) into those grads and adds the sinks
/// in shard order, over element ranges on the pool.
/// A shard weights its loss by frac = b_s / B, so the merged gradient is the
/// whole batch's objective split exactly.
///
/// Results do not depend on the thread count:
///  - Random draws. Run() forks the caller's rng once per batch and shard s
///    draws from that fork's Fork(s).
///  - A lone shard (shard_size >= B) runs on the calling thread, not inside
///    ParallelFor, so its kernels still fan out to the pool (a nested
///    ParallelFor runs inline). The kernels' chunk partition does not depend
///    on the pool, so either way gives the same bits.
///  - Sinks are merged in shard order.
///
/// Shard s records and replays on tape s under the key (B << 32) | b_s:
/// frac depends on B, so a full batch's shard and a same-sized tail-batch
/// shard trace different closures and compile separately. The
/// parameter-only loss joins shard 0's open step. Tapes hold graphs over the
/// parameters they recorded, so a trainer builds a fresh step for every new
/// model.
class ShardedStep {
 public:
  /// One shard's slice [begin, end) of the batch.
  struct Shard {
    int64_t index = 0;
    int64_t begin = 0;
    int64_t end = 0;
    float frac = 1.0f;  ///< (end - begin) / B: the shard's loss weight.
  };
  /// Builds one shard's loss, already weighted by `shard.frac`, drawing any
  /// randomness from `rng`. Shards call it concurrently, so it may write
  /// only shard-indexed state.
  using ShardLoss =
      std::function<tensor::Tensor(const Shard& shard, common::Rng& rng)>;
  /// Builds a loss over the parameters alone.
  using ParamLoss = std::function<tensor::Tensor()>;

  /// `shard_size` >= 1.
  explicit ShardedStep(int64_t shard_size);

  int64_t NumShards(int64_t batch_examples) const;

  /// One gradient pass over a batch of `batch_examples`. Each shard's sink
  /// covers `leaves`, which must include every parameter a shard loss
  /// reaches. Returns each shard's wall time in seconds, in shard order.
  std::vector<double> Run(int64_t batch_examples,
                          const std::vector<tensor::Tensor>& leaves,
                          common::Rng& rng, const ShardLoss& shard_loss,
                          const ParamLoss& param_loss = nullptr);

  /// Counters of every shard tape, summed.
  tensor::BatchTape::Stats TapeStats() const;

  /// Wall seconds since the last Run's shards joined. Read after the
  /// caller's optimizer step, it times the step's tail: the parameter-only
  /// loss, the merge, the clip and the optimizer.
  double SecondsSinceJoin() const { return joined_.ElapsedSeconds(); }

 private:
  int64_t shard_size_;
  /// Tape s belongs to shard s, which one thread runs at a time. Kept across
  /// steps: that is what lets batch N replay batch N-1's graph.
  std::vector<std::unique_ptr<tensor::BatchTape>> tapes_;
  common::Timer joined_;
};

}  // namespace rrre::nn

#endif  // RRRE_NN_SHARDED_STEP_H_
