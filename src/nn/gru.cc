#include "nn/gru.h"

#include "tensor/ops.h"

namespace rrre::nn {

using tensor::Tensor;

GruCell::GruCell(int64_t input_size, int64_t hidden_size, common::Rng& rng)
    : input_size_(input_size), hidden_size_(hidden_size) {
  w_ih_ = RegisterParameter(
      "w_ih", Tensor::XavierUniform({input_size, 3 * hidden_size}, rng,
                                    /*requires_grad=*/true));
  w_hh_ = RegisterParameter(
      "w_hh", Tensor::XavierUniform({hidden_size, 3 * hidden_size}, rng,
                                    /*requires_grad=*/true));
  bias_ = RegisterParameter(
      "bias", Tensor::Zeros({3 * hidden_size}, /*requires_grad=*/true));
}

Tensor GruCell::InitialState(int64_t batch) const {
  return Tensor::Zeros({batch, hidden_size_});
}

Tensor GruCell::Step(const Tensor& x, const Tensor& h) const {
  RRRE_CHECK_EQ(x.dim(1), input_size_);
  using namespace tensor;  // NOLINT(build/namespaces) - op-heavy function.
  // Fused gate block: 3 nodes instead of 12, bitwise identical to the
  // unfused chain (tests/test_kernels.cc, GruCellBitwise).
  Tensor gi = AddNBiasAct({MatMul(x, w_ih_)}, bias_, Activation::kNone);
  Tensor gh = MatMul(h, w_hh_);
  return GruPointwise(gi, gh, h);
}

Tensor GruCell::Encode(const std::vector<Tensor>& steps) const {
  RRRE_CHECK(!steps.empty());
  Tensor h = InitialState(steps[0].dim(0));
  for (const Tensor& x : steps) h = Step(x, h);
  return h;
}

}  // namespace rrre::nn
