#include "nn/fm.h"

#include "tensor/ops.h"

namespace rrre::nn {

using tensor::Tensor;

FactorizationMachine::FactorizationMachine(int64_t num_inputs,
                                           int64_t num_factors,
                                           common::Rng& rng) {
  w0_ = RegisterParameter("w0", Tensor::Zeros({1}, true));
  w_ = RegisterParameter(
      "w", Tensor::XavierUniform({num_inputs, 1}, rng, true));
  // Small factor init keeps early pairwise terms from dominating.
  v_ = RegisterParameter(
      "v", Tensor::Randn({num_inputs, num_factors}, rng, 0.05f, true));
}

Tensor FactorizationMachine::Forward(const Tensor& x) const {
  using namespace tensor;  // NOLINT(build/namespaces) - op-heavy function.
  Tensor linear = AddBias(MatMul(x, w_), w0_);           // [B, 1]
  Tensor xv = MatMul(x, v_);                             // [B, f]
  Tensor x2v2 = MatMul(Square(x), Square(v_));           // [B, f]
  // One node for the Square/Sub/RowSum/MulScalar chain, bitwise identical
  // (same per-element roundings, double row accumulator; tests/
  // test_kernels.cc, FactorizationMachineBitwise).
  return Add(linear, FmPairwise(xv, x2v2));
}

}  // namespace rrre::nn
