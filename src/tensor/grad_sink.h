#ifndef RRRE_TENSOR_GRAD_SINK_H_
#define RRRE_TENSOR_GRAD_SINK_H_

#include <unordered_map>
#include <vector>

#include "tensor/tensor.h"

namespace rrre::tensor {

/// Redirects gradient accumulation for a fixed set of leaf tensors (model
/// parameters) into private per-sink buffers, so several backward passes
/// over graphs that share the same parameter leaves can run concurrently —
/// the data-parallel trainer's building block.
///
/// Usage (one sink per shard, activated on the thread running the shard):
///
///   GradSink sink(model.Parameters());
///   {
///     GradSink::Scope scope(&sink);   // thread-local activation
///     shard_loss.Backward();          // leaf grads land in the sink
///   }
///   ...
///   GradSink::AccumulateInto({&sink0, &sink1, ...});  // in shard order
///
/// While a scope is active on a thread, every write the backward closures
/// would make to a covered leaf's `grad` goes to the sink's buffer instead;
/// Backward() also skips zeroing covered leaves (sink buffers start zeroed).
/// Buffers are allocated lazily on first touch, so a parameter that never
/// participates in the shard's graph stays untouched — preserving the
/// optimizer's "no live grad, no update" semantics.
///
/// A sink must only be activated on one thread at a time and is not
/// self-synchronizing; the caller orders AccumulateInto calls and makes no
/// backward pass into the sinks while they run.
///
/// Interplay with BatchTape: the two are orthogonal scopes. The tape recycles
/// the *graph node* buffers of a step; the sink redirects where leaf
/// *gradient* contributions land. Ops resolve the sink exactly once per
/// backward closure (GradBuf below) on the thread that runs Backward(),
/// so chunks fanned out to the pool inside a closure all target the same
/// already-resolved buffer — activating a sink and a tape scope on the same
/// shard thread composes without extra locking.
class GradSink {
 public:
  explicit GradSink(const std::vector<Tensor>& leaves);

  GradSink(const GradSink&) = delete;
  GradSink& operator=(const GradSink&) = delete;
  GradSink(GradSink&&) = default;
  GradSink& operator=(GradSink&&) = default;

  /// RAII thread-local activation. Scopes nest (inner wins).
  class Scope {
   public:
    explicit Scope(GradSink* sink);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    GradSink* previous_;
  };

  /// Buffer of the active sink covering `node` on this thread, allocated and
  /// zeroed on first touch; nullptr when no active sink covers it.
  static float* ActiveFind(internal::TensorImpl* node);

  /// True when the active sink on this thread covers `node` (without
  /// touching it). Used by Tensor::Backward to skip zeroing shared leaves.
  static bool ActiveCovers(const internal::TensorImpl* node);

  /// Adds the touched buffers of `sinks` into their leaves' real grads
  /// (EnsureGrad'ed first; a leaf no sink touched is left alone). Every
  /// element adds the sinks in the order given, and the elements run in
  /// ranges on the pool, so the bits do not depend on the thread count. All
  /// sinks must be built from the same leaf list.
  static void AccumulateInto(const std::vector<GradSink*>& sinks);

  /// The one-sink case: AccumulateInto({this}).
  void AccumulateInto();

  /// Leaves whose buffers were touched by a backward pass, in construction
  /// order. Valid until the sink is destroyed.
  std::vector<Tensor> Touched() const;

 private:
  /// The leaves, deduplicated, in construction order.
  std::vector<Tensor> leaves_;
  /// buffers_[k] is leaves_[k]'s grad buffer, empty until touched.
  std::vector<std::vector<float>> buffers_;
  /// Leaf impl -> its index in leaves_.
  std::unordered_map<const internal::TensorImpl*, size_t> index_;
};

/// Buffer gradient contributions for `node` accumulate into, or nullptr when
/// the node does not participate in differentiation. When a GradSink scope
/// is active on this thread and covers the node (a shared parameter leaf in
/// a data-parallel shard), the sink's private buffer is returned instead of
/// the node's own grad — resolve this on the thread running backward, before
/// fanning chunks out to the pool. Every backward closure calls it.
float* GradBuf(internal::TensorImpl* node);

}  // namespace rrre::tensor

#endif  // RRRE_TENSOR_GRAD_SINK_H_
