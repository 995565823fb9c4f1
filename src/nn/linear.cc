#include "nn/linear.h"

#include "tensor/ops.h"

namespace rrre::nn {

using tensor::Tensor;

Linear::Linear(int64_t in_features, int64_t out_features, common::Rng& rng,
               bool use_bias)
    : in_features_(in_features),
      out_features_(out_features),
      use_bias_(use_bias) {
  weight_ = RegisterParameter(
      "weight", Tensor::XavierUniform({in_features, out_features}, rng,
                                      /*requires_grad=*/true));
  if (use_bias_) {
    bias_ = RegisterParameter(
        "bias", Tensor::Zeros({out_features}, /*requires_grad=*/true));
  }
}

Tensor Linear::Forward(const Tensor& x) const {
  Tensor y = tensor::MatMul(x, weight_);
  // Single-part AddNBiasAct with no activation is bitwise AddBias
  // (tests/test_kernels.cc, LinearBitwise).
  if (use_bias_) {
    y = tensor::AddNBiasAct({y}, bias_, tensor::Activation::kNone);
  }
  return y;
}

}  // namespace rrre::nn
