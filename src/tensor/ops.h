#ifndef RRRE_TENSOR_OPS_H_
#define RRRE_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace rrre::tensor {

// Differentiable operations over Tensor. Each op validates shapes with CHECK
// (shape errors are programmer errors), computes the forward value eagerly,
// and registers a backward closure on the result node.

/// Elements per chunk of the cheap elementwise kernels, and of Sum's double
/// partials: a reduction that must reproduce Sum's bits keeps this
/// partition.
inline constexpr int64_t kElemGrain = int64_t{1} << 14;

// -- Elementwise binary (operands must have identical shapes) ----------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);

/// a[..., n] + bias[n]: broadcasts a rank-1 bias across all leading dims.
Tensor AddBias(const Tensor& a, const Tensor& bias);

// -- Scalar ops ---------------------------------------------------------------

Tensor MulScalar(const Tensor& a, float s);

// -- Elementwise unary --------------------------------------------------------

Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor Square(const Tensor& a);

// -- Linear algebra -----------------------------------------------------------

/// opA(a) x opB(b) where opX transposes the stored operand when the flag is
/// set: a is stored [m, k] (or [k, m] with trans_a), b is stored [k, n] (or
/// [n, k] with trans_b); result is [m, n]. The transposed operand is never
/// materialized — the blocked kernel reads it in place. Backward uses the
/// other transpose variants, so all four are exercised by training.
Tensor MatMul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

// -- Row-wise / reduction -----------------------------------------------------

/// Softmax along the last dim of a 2-D tensor (per row), numerically stable.
Tensor Softmax(const Tensor& a);
/// Sum of all entries -> shape {1}.
Tensor Sum(const Tensor& a);
/// Mean of all entries -> shape {1}.
Tensor Mean(const Tensor& a);
/// Row sums of a 2-D tensor: [m, n] -> [m, 1].
Tensor RowSum(const Tensor& a);

// -- Shape manipulation -------------------------------------------------------

/// Returns a tensor with the same elements in a new shape (element count must
/// match). The result is a distinct graph node; gradients flow through.
Tensor Reshape(const Tensor& a, const Shape& shape);
/// Concatenates 2-D tensors along columns (all must share dim 0).
Tensor ConcatCols(const std::vector<Tensor>& parts);
/// Rows [start, start+len) of a 2-D tensor.
Tensor SliceRows(const Tensor& a, int64_t start, int64_t len);
/// Columns [start, start+len) of a 2-D tensor.
Tensor SliceCols(const Tensor& a, int64_t start, int64_t len);

// -- Gather / pooling ---------------------------------------------------------

/// Row lookup into an embedding table: table [V, d], ids (each in [0, V)) ->
/// [ids.size(), d]. Gradients scatter-add into the table.
Tensor EmbeddingLookup(const Tensor& table, const std::vector<int64_t>& ids);

/// Attention-weighted pooling. values is [B*s, k] laid out with the s entries
/// of each group contiguous; weights is [B, s]. Returns [B, k] where
/// out[b] = sum_j weights[b, j] * values[b*s + j].
Tensor WeightedPool(const Tensor& values, const Tensor& weights);

/// 1-D convolution over a token-embedding sequence followed by max-over-time
/// pooling (the TextCNN building block used by DeepCoNN). values is [B*T, d]
/// with each example's T steps contiguous; kernel is [w*d, f] (window width w
/// derived from kernel rows / d); bias is [f]. Output [B, f]:
///   out[b, c] = max_t ( sum over window values[b, t..t+w) . kernel[:, c] + bias[c] ).
/// Gradient routes through the argmax window per (b, c).
Tensor Conv1dMaxPool(const Tensor& values, int64_t seq_len,
                     const Tensor& kernel, const Tensor& bias);

// -- Fused losses -------------------------------------------------------------

/// Mean (or weighted mean) softmax cross-entropy with integer labels.
/// logits: [B, C]; labels: B entries in [0, C); example_weights: empty or B
/// non-negative entries. Returns a scalar:
///   sum_b w_b * (-log softmax(logits_b)[label_b]) / max(sum_b w_b, eps).
Tensor CrossEntropyWithLogits(const Tensor& logits,
                              const std::vector<int64_t>& labels,
                              const std::vector<float>& example_weights = {});

// -- Fused ops ----------------------------------------------------------------
//
// Single graph nodes that the src/nn modules build in place of eager
// (op-by-op) chains of the ops above. Each fused op is constructed to
// produce bitwise identical values AND gradients to the eager chain it
// replaces: the forward applies the same float operations in the same
// order, and the backward mirrors the exact sequence of rounded products the
// eager node-by-node backward performs. The chains survive only as the
// oracles of tests/test_kernels.cc (KernelFusionParityTest). The win is
// graph size: one node + one backward closure instead of five to ten.

enum class Activation { kNone, kTanh, kSigmoid, kRelu };

/// act(parts[0] + parts[1] + ... + bias), with the partial sums accumulated
/// left to right exactly like the eager Add(Add(p0, p1), p2) nesting and the
/// bias broadcast over the last dim. All parts share one shape [..., n];
/// bias is [n].
Tensor AddNBiasAct(const std::vector<Tensor>& parts, const Tensor& bias,
                   Activation act);

/// One LSTM direction over a whole sequence as a single graph node. x is
/// time-major [T*S, D]: rows [t*S, (t+1)*S) hold step t of S sequences.
/// w_ih is [D, 4H], w_hh [H, 4H], bias [4H], gate order i, f, g, o. Starting
/// from the zero state, walks t = 0..T-1 (T-1..0 when `reverse`) computing
///   pre = x_t·W_ih + h·W_hh + b,  c = sigmoid(f)*c + sigmoid(i)*tanh(g),
///   h = sigmoid(o)*tanh(c),
/// and returns the final h, [S, H]. Replaces T steps of the eager chain
/// (nn::LstmCell::Step over row slices of x).
///
/// The forward hoists x·W_ih for all T steps into one GEMM; a row's GEMM
/// arithmetic does not depend on how many rows the call has. The backward
/// replays the eager graph's reverse-topological schedule: steps in
/// descending order, each running the pointwise gradient, the bias partials
/// and the dh / dW_hh GEMMs; then dW_ih one step at a time in ascending step
/// order; then dX as one GEMM.
Tensor LstmSequence(const Tensor& x, const Tensor& w_ih, const Tensor& w_hh,
                    const Tensor& bias, int64_t num_steps, bool reverse);

/// Fused GRU gate pointwise block. gi = x·W_ih + b and gh = h_prev·W_hh,
/// both [B, 3H] with gate order r, z, n; h_prev is [B, H]. Computes
/// r = sigmoid(gi_r + gh_r), z = sigmoid(gi_z + gh_z),
/// n = tanh(gi_n + r*gh_n), out = (1 - z)*n + z*h_prev.
Tensor GruPointwise(const Tensor& gi, const Tensor& gh, const Tensor& h_prev);

/// Fused FM pairwise term: 0.5 * rowsum(xv^2 - x2v2) -> [B, 1], replacing
/// the eager Square/Sub/RowSum/MulScalar chain (xv = x·V, x2v2 = x²·V²).
Tensor FmPairwise(const Tensor& xv, const Tensor& x2v2);

}  // namespace rrre::tensor

#endif  // RRRE_TENSOR_OPS_H_
