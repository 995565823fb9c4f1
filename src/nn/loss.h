#ifndef RRRE_NN_LOSS_H_
#define RRRE_NN_LOSS_H_

#include <vector>

#include "tensor/tensor.h"

namespace rrre::nn {

/// Mean squared error: mean over the batch of (pred - target)^2.
/// pred: [B, 1] (or [B]); targets: B values.
tensor::Tensor MseLoss(const tensor::Tensor& pred,
                       const std::vector<float>& targets);

/// How the weighted squared error is normalized.
enum class WeightedMseNorm {
  /// Divide by batch size N — Eq. (14) of the paper (loss2).
  kBatchSize,
  /// Divide by the sum of weights — bRMSE-style normalization (Eq. 17).
  kWeightSum,
};

/// Weighted squared error: sum_b w_b (pred_b - target_b)^2 / norm. With the
/// ground-truth reliability labels as weights this is the paper's biased
/// rating loss, which shields training from fake reviews.
tensor::Tensor WeightedMseLoss(const tensor::Tensor& pred,
                               const std::vector<float>& targets,
                               const std::vector<float>& weights,
                               WeightedMseNorm norm = WeightedMseNorm::kBatchSize);

/// Sum of squared entries of all given (distinct) tensors — the L2 term of
/// Eq. (14); multiply by gamma at the call site. One graph node over every
/// tensor, with the bits of the Square -> Sum -> Add chain over them:
/// forward, each tensor's float squares summed in double over Sum's
/// kElemGrain chunks, those partials added in chunk order, and the float
/// results added in tensor order; backward, grad += (0 + g) * (2 * x) into
/// each tensor's grad. Both passes run over element ranges on the pool.
tensor::Tensor L2Penalty(const std::vector<tensor::Tensor>& params);

/// double(float(x * x)), the value tensor::Square stores and tensor::Sum
/// adds, computed without producing a subnormal float: below FLT_MIN each
/// such result would cost the CPU a microcode assist. Exact for every x.
double FloatSquare(float x);

}  // namespace rrre::nn

#endif  // RRRE_NN_LOSS_H_
