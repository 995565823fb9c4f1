#include "nn/attention.h"

#include "obs/trace.h"
#include "tensor/ops.h"

namespace rrre::nn {

using tensor::Tensor;

FraudAttention::FraudAttention(int64_t rev_dim, int64_t user_id_dim,
                               int64_t item_id_dim, int64_t attention_dim,
                               common::Rng& rng) {
  w_rev_ = RegisterParameter(
      "w_rev", Tensor::XavierUniform({rev_dim, attention_dim}, rng, true));
  w_u_ = RegisterParameter(
      "w_u", Tensor::XavierUniform({user_id_dim, attention_dim}, rng, true));
  w_i_ = RegisterParameter(
      "w_i", Tensor::XavierUniform({item_id_dim, attention_dim}, rng, true));
  b1_ = RegisterParameter("b1", Tensor::Zeros({attention_dim}, true));
  h_ = RegisterParameter(
      "h", Tensor::XavierUniform({attention_dim, 1}, rng, true));
  b2_ = RegisterParameter("b2", Tensor::Zeros({1}, true));
}

Tensor FraudAttention::Forward(const Tensor& rev, const Tensor& user_ids,
                               const Tensor& item_ids, int64_t group_size,
                               const Tensor& mask) const {
  obs::TraceSpan span("attention_forward");
  using namespace tensor;  // NOLINT(build/namespaces) - op-heavy function.
  const int64_t rows = rev.dim(0);
  RRRE_CHECK_EQ(user_ids.dim(0), rows);
  RRRE_CHECK_EQ(item_ids.dim(0), rows);
  RRRE_CHECK_GT(group_size, 0);
  RRRE_CHECK_EQ(rows % group_size, 0);
  const int64_t batch = rows / group_size;

  // One node for the three-way add + bias + tanh, bitwise identical to the
  // unfused chain (left-to-right partial sums match the Add nesting;
  // tests/test_kernels.cc, FraudAttentionBitwise).
  Tensor hidden = AddNBiasAct({MatMul(rev, w_rev_), MatMul(user_ids, w_u_),
                               MatMul(item_ids, w_i_)},
                              b1_, Activation::kTanh);
  Tensor scores = AddBias(MatMul(hidden, h_), b2_);       // [B*s, 1]
  Tensor grouped = Reshape(scores, {batch, group_size});  // [B, s]
  if (mask.defined()) {
    RRRE_CHECK(mask.shape() == grouped.shape())
        << ShapeToString(mask.shape()) << " vs "
        << ShapeToString(grouped.shape());
    grouped = Add(grouped, mask);
  }
  return Softmax(grouped);  // [B, s]
}

}  // namespace rrre::nn
