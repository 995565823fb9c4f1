#include "nn/loss.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "common/threadpool.h"
#include "tensor/grad_sink.h"
#include "tensor/ops.h"
#include "tensor/tape.h"

namespace rrre::nn {

using tensor::Tensor;

namespace {

Tensor AsColumn(const Tensor& pred) {
  if (pred.ndim() == 2) {
    RRRE_CHECK_EQ(pred.dim(1), 1);
    return pred;
  }
  RRRE_CHECK_EQ(pred.ndim(), 1);
  return tensor::Reshape(pred, {pred.dim(0), 1});
}

}  // namespace

Tensor MseLoss(const Tensor& pred, const std::vector<float>& targets) {
  Tensor p = AsColumn(pred);
  const int64_t b = p.dim(0);
  RRRE_CHECK_EQ(static_cast<int64_t>(targets.size()), b);
  Tensor t = Tensor::FromVector({b, 1}, targets);
  return tensor::Mean(tensor::Square(tensor::Sub(p, t)));
}

Tensor WeightedMseLoss(const Tensor& pred, const std::vector<float>& targets,
                       const std::vector<float>& weights,
                       WeightedMseNorm norm) {
  Tensor p = AsColumn(pred);
  const int64_t b = p.dim(0);
  RRRE_CHECK_EQ(static_cast<int64_t>(targets.size()), b);
  RRRE_CHECK_EQ(static_cast<int64_t>(weights.size()), b);
  Tensor t = Tensor::FromVector({b, 1}, targets);
  Tensor w = Tensor::FromVector({b, 1}, weights);
  Tensor weighted = tensor::Mul(w, tensor::Square(tensor::Sub(p, t)));
  double denom = static_cast<double>(b);
  if (norm == WeightedMseNorm::kWeightSum) {
    double wsum = 0.0;
    for (float v : weights) {
      RRRE_CHECK_GE(v, 0.0f);
      wsum += v;
    }
    denom = std::max(wsum, 1e-12);
  }
  return tensor::MulScalar(tensor::Sum(weighted),
                           static_cast<float>(1.0 / denom));
}

double FloatSquare(float x) {
  // The product of two floats is exact in double. At or above FLT_MIN,
  // rounding it to float is float(x * x). Below, adding 2^-97 rounds it to
  // a multiple of 2^-149, the subnormal float spacing, ties to even as the
  // float rounding does, and subtracting 2^-97 again is exact.
  const double d = static_cast<double>(x) * static_cast<double>(x);
  if (d >= 0x1p-126) return static_cast<float>(d);
  return (d + 0x1p-97) - 0x1p-97;
}

Tensor L2Penalty(const std::vector<Tensor>& params) {
  using tensor::internal::TensorImpl;
  using tensor::kElemGrain;
  RRRE_CHECK(!params.empty());
  auto out = tensor::BatchTape::NewNode("l2_penalty", {1}, 0, &params);
  if (!out->tape_wired) {
    std::unordered_set<const TensorImpl*> seen;
    for (const Tensor& p : params) {
      RRRE_CHECK(p.defined());
      // The backward pass writes the tensors' grads concurrently.
      RRRE_CHECK(seen.insert(p.impl().get()).second) << "tensor listed twice";
      out->requires_grad = out->requires_grad || p.requires_grad();
      out->parents.push_back(p.impl());
    }
  }
  // Sum's partition: one double partial per (tensor, kElemGrain chunk).
  std::vector<int64_t> sizes;
  std::vector<size_t> first_chunk;
  size_t chunks = 0;
  for (const Tensor& p : params) {
    const int64_t n = p.numel();
    sizes.push_back(n);
    first_chunk.push_back(chunks);
    chunks += static_cast<size_t>(std::max<int64_t>(1, (n + kElemGrain - 1) /
                                                           kElemGrain));
  }
  // Each tensor's partials add in chunk order, the tensors' float sums in
  // tensor order.
  std::vector<double> partials(chunks, 0.0);
  common::ParallelForRanges(
      sizes, kElemGrain, [&](int64_t k, int64_t lo, int64_t hi) {
        const float* x = params[static_cast<size_t>(k)].data();
        double acc = 0.0;
        for (int64_t i = lo; i < hi; ++i) acc += FloatSquare(x[i]);
        partials[first_chunk[static_cast<size_t>(k)] +
                 static_cast<size_t>(lo / kElemGrain)] = acc;
      });
  float total = 0.0f;
  for (size_t k = 0; k < params.size(); ++k) {
    const size_t end = k + 1 < params.size() ? first_chunk[k + 1] : chunks;
    double sum = 0.0;
    for (size_t c = first_chunk[k]; c < end; ++c) sum += partials[c];
    total = k == 0 ? static_cast<float>(sum) : total + static_cast<float>(sum);
  }
  out->data[0] = total;
  if (out->requires_grad && !out->tape_wired) {
    tensor::BatchTape::NoteClosureAlloc();
    TensorImpl* o = out.get();
    // Captures only the node: a replayed step reads the same parents.
    out->backward_fn = [o]() {
      // A Square -> Sum -> Add chain hands each square the sum of its zeroed
      // grad and g, which turns -0 into +0.
      const float g = 0.0f + o->grad[0];
      std::vector<float*> grads;
      std::vector<int64_t> sizes;
      for (const auto& parent : o->parents) {
        float* ga = tensor::GradBuf(parent.get());
        grads.push_back(ga);
        const auto n = static_cast<int64_t>(parent->data.size());
        sizes.push_back(ga != nullptr ? n : 0);
      }
      common::ParallelForRanges(
          sizes, kElemGrain, [&](int64_t k, int64_t lo, int64_t hi) {
            float* ga = grads[static_cast<size_t>(k)];
            const float* x = o->parents[static_cast<size_t>(k)]->data.data();
            for (int64_t i = lo; i < hi; ++i) ga[i] += g * (2.0f * x[i]);
          });
    };
  }
  return Tensor::WrapImpl(out);
}

}  // namespace rrre::nn
