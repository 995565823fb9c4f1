#include "nn/lstm.h"

#include <vector>

#include "tensor/ops.h"
#include "tensor/tape.h"

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
  if (tensor::FusionEnabled()) {
    // Bitwise identical to the chains below (tests/test_kernels.cc,
    // ReviewEncoderBitwise).
    return tensor::ConcatCols(
        {forward_.Sequence(x, num_steps, /*reverse=*/false),
         backward_.Sequence(x, num_steps, /*reverse=*/true)});
  }
  RRRE_CHECK_GT(num_steps, 0);
  RRRE_CHECK_EQ(x.dim(0) % num_steps, 0);
  const int64_t batch = x.dim(0) / num_steps;
  // One slice per step, read by both directions: each step input's grad
  // sums the backward direction's term, then the forward one, exactly as
  // the fused nodes' shared x does.
  std::vector<Tensor> steps;
  steps.reserve(static_cast<size_t>(num_steps));
  for (int64_t t = 0; t < num_steps; ++t) {
    steps.push_back(tensor::SliceRows(x, t * batch, batch));
  }
  LstmCell::State fwd = forward_.InitialState(batch);
  for (const Tensor& step : steps) fwd = forward_.Step(step, fwd);
  LstmCell::State bwd = backward_.InitialState(batch);
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    bwd = backward_.Step(*it, bwd);
  }
  return tensor::ConcatCols({fwd.h, bwd.h});
}

}  // namespace rrre::nn
