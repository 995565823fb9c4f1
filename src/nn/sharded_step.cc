#include "nn/sharded_step.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "obs/trace.h"
#include "tensor/grad_sink.h"

namespace rrre::nn {

using common::Rng;
using tensor::BatchTape;
using tensor::GradSink;
using tensor::Tensor;

ShardedStep::ShardedStep(int64_t shard_size) : shard_size_(shard_size) {
  RRRE_CHECK_GE(shard_size_, 1);
}

int64_t ShardedStep::NumShards(int64_t batch_examples) const {
  return (batch_examples + shard_size_ - 1) / shard_size_;
}

std::vector<double> ShardedStep::Run(int64_t batch_examples,
                                     const std::vector<Tensor>& leaves,
                                     Rng& rng, const ShardLoss& shard_loss,
                                     const ParamLoss& param_loss) {
  const int64_t bsz = batch_examples;
  const int64_t num_shards = NumShards(bsz);
  while (static_cast<int64_t>(tapes_.size()) < num_shards) {
    tapes_.push_back(std::make_unique<BatchTape>());
  }
  const Rng batch_rng = rng.Fork();
  std::vector<GradSink> sinks;
  sinks.reserve(static_cast<size_t>(num_shards));
  for (int64_t s = 0; s < num_shards; ++s) sinks.emplace_back(leaves);
  std::vector<double> seconds(static_cast<size_t>(num_shards), 0.0);

  auto run_shard = [&](int64_t s) {
    obs::TraceSpan span("train_shard");
    common::Timer timer;
    Shard shard;
    shard.index = s;
    shard.begin = s * shard_size_;
    shard.end = std::min(bsz, shard.begin + shard_size_);
    shard.frac = static_cast<float>(shard.end - shard.begin) /
                 static_cast<float>(bsz);
    BatchTape* tape = tapes_[static_cast<size_t>(s)].get();
    tape->BeginStep((static_cast<uint64_t>(bsz) << 32) |
                    static_cast<uint64_t>(shard.end - shard.begin));
    BatchTape::Scope tape_scope(tape);
    Rng shard_rng = batch_rng.Fork(static_cast<uint64_t>(s));
    Tensor loss = shard_loss(shard, shard_rng);
    GradSink::Scope sink_scope(&sinks[static_cast<size_t>(s)]);
    loss.Backward();
    seconds[static_cast<size_t>(s)] = timer.ElapsedSeconds();
  };
  if (num_shards == 1) {
    run_shard(0);
  } else {
    common::ParallelFor(0, num_shards, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t s = lo; s < hi; ++s) run_shard(s);
    });
  }
  joined_.Reset();

  // Fresh grads for every touched leaf. The parameter-only loss's Backward
  // zeroes its own leaves again before adding into them, so it lands first
  // and the shard sums follow in shard order.
  std::unordered_set<tensor::internal::TensorImpl*> zeroed;
  for (const GradSink& sink : sinks) {
    for (Tensor t : sink.Touched()) {
      if (zeroed.insert(t.impl().get()).second) t.ZeroGrad();
    }
  }
  if (param_loss) {
    // Shard 0's tape is free on this thread once the shards have joined.
    BatchTape::Scope tape_scope(tapes_[0].get());
    param_loss().Backward();
  }
  std::vector<GradSink*> merge;
  for (GradSink& sink : sinks) merge.push_back(&sink);
  GradSink::AccumulateInto(merge);
  return seconds;
}

BatchTape::Stats ShardedStep::TapeStats() const {
  BatchTape::Stats total;
  for (const auto& tape : tapes_) {
    const BatchTape::Stats s = tape->stats();
    total.steps += s.steps;
    total.nodes += s.nodes;
    total.buffer_allocs += s.buffer_allocs;
    total.buffer_reuses += s.buffer_reuses;
    total.distinct_sequences += s.distinct_sequences;
    total.dfs_node_visits += s.dfs_node_visits;
    total.closure_allocs += s.closure_allocs;
    total.replay_steps += s.replay_steps;
    total.replay_backwards += s.replay_backwards;
    total.replay_fallbacks += s.replay_fallbacks;
  }
  return total;
}

}  // namespace rrre::nn
