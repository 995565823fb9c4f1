#include "nn/lstm.h"

#include "tensor/ops.h"

namespace rrre::nn {

using tensor::Tensor;

LstmCell::LstmCell(int64_t input_size, int64_t hidden_size, common::Rng& rng)
    : input_size_(input_size), hidden_size_(hidden_size) {
  w_ih_ = RegisterParameter(
      "w_ih", Tensor::XavierUniform({input_size, 4 * hidden_size}, rng,
                                    /*requires_grad=*/true));
  w_hh_ = RegisterParameter(
      "w_hh", Tensor::XavierUniform({hidden_size, 4 * hidden_size}, rng,
                                    /*requires_grad=*/true));
  Tensor bias = Tensor::Zeros({4 * hidden_size}, /*requires_grad=*/true);
  // Forget gate (second block) biased to 1.
  for (int64_t j = 0; j < hidden_size; ++j) bias.at(hidden_size + j) = 1.0f;
  bias_ = RegisterParameter("bias", bias);
}

LstmCell::State LstmCell::InitialState(int64_t batch) const {
  return State{Tensor::Zeros({batch, hidden_size_}),
               Tensor::Zeros({batch, hidden_size_})};
}

LstmCell::State LstmCell::Step(const Tensor& x, const State& state) const {
  RRRE_CHECK_EQ(x.dim(1), input_size_);
  using namespace tensor;  // NOLINT(build/namespaces) - op-heavy function.
  Tensor pre = AddBias(Add(MatMul(x, w_ih_), MatMul(state.h, w_hh_)), bias_);
  const int64_t h = hidden_size_;
  Tensor i = Sigmoid(SliceCols(pre, 0, h));
  Tensor f = Sigmoid(SliceCols(pre, h, h));
  Tensor g = Tanh(SliceCols(pre, 2 * h, h));
  Tensor o = Sigmoid(SliceCols(pre, 3 * h, h));
  Tensor c_next = Add(Mul(f, state.c), Mul(i, g));
  Tensor h_next = Mul(o, Tanh(c_next));
  return State{h_next, c_next};
}

Tensor LstmCell::Sequence(const Tensor& x, int64_t num_steps,
                          bool reverse) const {
  return tensor::LstmSequence(x, w_ih_, w_hh_, bias_, num_steps, reverse);
}

BiLstmEncoder::BiLstmEncoder(int64_t input_size, int64_t hidden_size,
                             common::Rng& rng)
    : forward_(input_size, hidden_size, rng),
      backward_(input_size, hidden_size, rng) {
  RegisterModule("fwd", &forward_);
  RegisterModule("bwd", &backward_);
}

Tensor BiLstmEncoder::Encode(const Tensor& x, int64_t num_steps) const {
  return tensor::ConcatCols(
      {forward_.Sequence(x, num_steps, /*reverse=*/false),
       backward_.Sequence(x, num_steps, /*reverse=*/true)});
}

}  // namespace rrre::nn
