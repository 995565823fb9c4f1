#ifndef RRRE_NN_OPTIMIZER_H_
#define RRRE_NN_OPTIMIZER_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "tensor/tensor.h"

namespace rrre::nn {

/// Adam (Kingma & Ba 2015) over a fixed list of distinct parameters, with
/// beta1 = 0.9, beta2 = 0.999, eps = 1e-8 and no weight decay. A parameter
/// whose gradient buffer was never touched in the current step (e.g. an
/// embedding row outside the batch's graph) is treated as having zero
/// gradient and skipped. Step runs kernels::AdamUpdate over element ranges
/// on the global pool; each element's update is one fixed expression, so
/// the bits do not depend on the thread count.
class Adam {
 public:
  Adam(std::vector<tensor::Tensor> params, double lr);

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Applies one update from the gradients currently stored in the params.
  void Step();

  const std::vector<tensor::Tensor>& params() const { return params_; }

  /// Exports the complete optimizer state as named tensors suitable for
  /// SaveTensors: "adam.t" (step count, split into two exact f32 words) plus
  /// "adam.<i>.m" / "adam.<i>.v" first/second moments for every parameter i
  /// (indexed in params() order) that has accumulated a slot. Parameters
  /// whose gradient was never live have no slot and are omitted.
  std::map<std::string, tensor::Tensor> StateTensors() const;

  /// Restores state exported by StateTensors onto an optimizer constructed
  /// over the same parameter list (same order and shapes). Replaces any
  /// existing moments; a resumed run then steps bitwise identically to one
  /// that was never interrupted. Unknown keys, missing counterparts, or
  /// size mismatches are errors and leave the optimizer unchanged.
  common::Status LoadStateTensors(
      const std::map<std::string, tensor::Tensor>& state);

 private:
  struct Slot {
    std::vector<float> m;
    std::vector<float> v;
  };
  static constexpr double kBeta1 = 0.9;
  static constexpr double kBeta2 = 0.999;
  static constexpr double kEps = 1e-8;

  std::vector<tensor::Tensor> params_;
  double lr_;
  int64_t t_ = 0;
  std::unordered_map<const void*, Slot> slots_;
};

/// L2 norm of all gradients concatenated.
double GlobalGradNorm(const std::vector<tensor::Tensor>& params);

/// Scales all gradients so the global norm is at most max_norm. Returns the
/// pre-clip norm.
double ClipGradNorm(std::vector<tensor::Tensor>& params, double max_norm);

}  // namespace rrre::nn

#endif  // RRRE_NN_OPTIMIZER_H_
