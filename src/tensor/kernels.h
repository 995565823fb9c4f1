#ifndef RRRE_TENSOR_KERNELS_H_
#define RRRE_TENSOR_KERNELS_H_

#include <cmath>
#include <cstdint>

namespace rrre::tensor::kernels {

// Autograd-free numeric kernels behind the ops in ops.h: register-blocked,
// cache-tiled, auto-vectorizable loops with a packed-panel GEMM inner kernel.
//
// Determinism contract (shared with ops.cc): every kernel's arithmetic is a
// pure function of the operand shapes and values — never of the thread count
// or the caller's chunking. Per output element the reduction order is fixed
// (ascending k, with cache panels accumulated in ascending panel order), so
// two calls over the same data produce bitwise identical results, and a
// caller that shards output rows across threads gets the same bits as a
// serial call: the per-row arithmetic does not depend on which row range a
// chunk covers.

/// Rows of C per register micro-tile.
inline constexpr int64_t kMr = 4;
/// Columns of C per register micro-tile (the packed-panel width).
inline constexpr int64_t kNr = 16;
/// Reduction-dimension cache panel.
inline constexpr int64_t kKc = 128;
/// Column cache panel (multiple of kNr).
inline constexpr int64_t kNc = 64;
/// Below this output width the packed micro-kernel would mostly multiply
/// zero padding; a plain row-major loop nest is used instead.
inline constexpr int64_t kSmallN = 5;

/// C[m, n] += opA(A) · opB(B) with opX = transpose when the flag is set.
/// A is stored [m, k] row-major (or [k, m] when trans_a); B is stored [k, n]
/// (or [n, k] when trans_b). lda/ldb/ldc are the row strides of the STORED
/// matrices, so callers can hand in sub-blocks of larger buffers. C is
/// accumulated into, never overwritten — callers zero it when they want a
/// plain product.
void Gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          const float* a, int64_t lda, const float* b, int64_t ldb, float* c,
          int64_t ldc);

// Named wrappers for the four transpose variants (forward + both gradients
// of a matmul use all four between them).
inline void GemmNN(int64_t m, int64_t n, int64_t k, const float* a,
                   int64_t lda, const float* b, int64_t ldb, float* c,
                   int64_t ldc) {
  Gemm(false, false, m, n, k, a, lda, b, ldb, c, ldc);
}
inline void GemmNT(int64_t m, int64_t n, int64_t k, const float* a,
                   int64_t lda, const float* b, int64_t ldb, float* c,
                   int64_t ldc) {
  Gemm(false, true, m, n, k, a, lda, b, ldb, c, ldc);
}
inline void GemmTN(int64_t m, int64_t n, int64_t k, const float* a,
                   int64_t lda, const float* b, int64_t ldb, float* c,
                   int64_t ldc) {
  Gemm(true, false, m, n, k, a, lda, b, ldb, c, ldc);
}
inline void GemmTT(int64_t m, int64_t n, int64_t k, const float* a,
                   int64_t lda, const float* b, int64_t ldb, float* c,
                   int64_t ldc) {
  Gemm(true, true, m, n, k, a, lda, b, ldb, c, ldc);
}

/// TextCNN building block for one example: slides a width-w window over the
/// [seq_len, d] embedding block `values_ex` (rows contiguous, so a window is
/// w*d contiguous floats), scores every filter at every position
/// (score = bias[c] + window · kernel[:, c], kernel stored [w*d, f]
/// row-major) and max-pools over positions. out_row/argmax_row have f
/// entries; score_scratch is caller-provided workspace of f floats (reused
/// across examples to keep the hot loop allocation-free). Ties keep the
/// first (lowest) position, matching the serial reference.
void Conv1dMaxPoolExample(int64_t seq_len, int64_t w, int64_t d, int64_t f,
                          const float* values_ex, const float* kernel,
                          const float* bias, float* out_row,
                          int64_t* argmax_row, float* score_scratch);

/// Hyperbolic tangent, bit for bit glibc 2.36's `tanhf` (fdlibm's s_tanhf.c
/// over s_expm1f.c, transcribed with the same float operations in the same
/// order), so results do not depend on the platform's libm. Every tanh under
/// src/tensor goes through this or TanhN, keeping the eager ops and the
/// fused kernels on one function.
float Tanh(float x);

/// out[i] = Tanh(in[i]) for i in [0, n), bitwise. Runs 8 lanes per AVX2
/// instruction, every range branch computed and blended; the scalar Tanh
/// takes the n % 8 tail and non-AVX2 builds. `out` may equal `in`.
void TanhN(const float* in, float* out, int64_t n);

/// One step's scalars for AdamUpdate.
struct AdamScalars {
  double lr;
  double beta1;
  double beta2;
  double eps;
  double bias1;  ///< 1 - beta1^t
  double bias2;  ///< 1 - beta2^t
};

/// One Adam step over n parameters p with gradients g and moments m, v. Per
/// element, in double:
///   m = float(beta1 * m + (1 - beta1) * g)
///   v = float(beta2 * v + (1 - beta2) * g * g)
///   p -= float(lr * (m / bias1) / (sqrt(v / bias2) + eps))
/// with every product, quotient, root and sum rounded separately, so the
/// result is a pure function of the element's values. Runs 4 double lanes
/// per AVX2 instruction; a scalar loop of the same expression takes the
/// n % 4 tail and non-AVX2 builds, with the same bits.
void AdamUpdate(int64_t n, const AdamScalars& s, const float* g, float* p,
                float* m, float* v);

/// Numerically stable logistic, shared by the eager Sigmoid op and the fused
/// gate kernels so both graph shapes produce identical bits.
inline float StableSigmoid(float x) {
  if (x >= 0.0f) {
    const float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = std::exp(x);
  return z / (1.0f + z);
}

#ifndef RRRE_RESTRICT
#define RRRE_RESTRICT __restrict__
#endif

// Elementwise helpers over freshly produced output buffers. The restrict
// qualifiers tell the vectorizer the output never aliases the inputs (ops.cc
// always writes into a node-private buffer); inputs may alias each other —
// they are only read.
inline void EwAdd(int64_t n, const float* RRRE_RESTRICT a,
                  const float* RRRE_RESTRICT b, float* RRRE_RESTRICT o) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] + b[i];
}
inline void EwSub(int64_t n, const float* RRRE_RESTRICT a,
                  const float* RRRE_RESTRICT b, float* RRRE_RESTRICT o) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] - b[i];
}
inline void EwMul(int64_t n, const float* RRRE_RESTRICT a,
                  const float* RRRE_RESTRICT b, float* RRRE_RESTRICT o) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] * b[i];
}
inline void EwMulScalar(int64_t n, const float* RRRE_RESTRICT a, float s,
                        float* RRRE_RESTRICT o) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] * s;
}
/// y[i] += alpha * x[i]; y must not alias x.
inline void EwAxpy(int64_t n, float alpha, const float* RRRE_RESTRICT x,
                   float* RRRE_RESTRICT y) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

}  // namespace rrre::tensor::kernels

#endif  // RRRE_TENSOR_KERNELS_H_
