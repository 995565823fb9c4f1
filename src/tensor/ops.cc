#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/threadpool.h"
#include "obs/trace.h"
#include "tensor/grad_sink.h"
#include "tensor/kernels.h"
#include "tensor/tape.h"

namespace rrre::tensor {

using common::ParallelFor;
using internal::TensorImpl;
using kernels::StableSigmoid;

namespace {

// Determinism contract of every kernel here: the arithmetic is a function of
// the operand shapes only, never of the thread count. Loops whose iterations
// write disjoint outputs are split freely; reductions are computed over
// fixed-grain chunks whose partials are combined in chunk order, so results
// are bitwise identical whether the chunks run on 1 thread or 16. The
// blocked GEMM in kernels.cc honors the same contract per output element
// (ascending k within a cache panel, panels in ascending order).

/// Rows per chunk for row-partitioned kernels, sized so a chunk carries
/// roughly kElemGrain scalar operations. Depends only on the shape.
int64_t RowGrain(int64_t cost_per_row) {
  return std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, cost_per_row));
}

/// Weight of one scalar transcendental (libm expf, kernels::Tanh) in cheap
/// elementwise ops, for sizing the chunks of kernels whose cost is those
/// calls. Like every grain it only schedules chunks, never changes a bit.
constexpr int64_t kTranscendentalCost = 16;

/// Packs a float op constant into a replay-verified attr word. Bit pattern,
/// not value, so e.g. -0.0f vs 0.0f scales are distinguished.
uint64_t FloatBits(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Creates a result node whose parents are `parents`; requires_grad is
/// inherited from any parent. `op` is a static name used by the tape's
/// op-sequence fingerprint; the node itself is drawn from the active
/// BatchTape's buffer pool when one is in scope. `attr` packs any op
/// constants a backward closure captures (transpose flags, scalar bits,
/// slice offsets) so a compiled replay step can verify the recorded closure
/// still applies. A node served by replay comes back tape_wired with the
/// recorded parents and closure installed — the wiring below is skipped, and
/// so is closure construction at each call site (the `!tape_wired` gates).
std::shared_ptr<TensorImpl> MakeNode(const char* op, const Shape& shape,
                                     std::vector<Tensor> parents,
                                     uint64_t attr = 0) {
  auto impl = BatchTape::NewNode(op, shape, attr, &parents);
  if (impl->tape_wired) return impl;
  for (const Tensor& p : parents) {
    RRRE_CHECK(p.defined());
    impl->requires_grad = impl->requires_grad || p.requires_grad();
    impl->parents.push_back(p.impl());
  }
  return impl;
}

void CheckSameShape(const Tensor& a, const Tensor& b) {
  RRRE_CHECK(a.shape() == b.shape())
      << ShapeToString(a.shape()) << " vs " << ShapeToString(b.shape());
}

/// C[m, n] += opA(A)·opB(B) with output rows sharded across the pool. Each
/// chunk owns its rows of C outright and the blocked kernel's per-element
/// arithmetic is independent of the row range it is handed, so the result is
/// bitwise identical across thread counts.
void ShardedGemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                 const float* a, int64_t lda, const float* b, int64_t ldb,
                 float* c, int64_t ldc) {
  ParallelFor(0, m, RowGrain(k * n), [=](int64_t lo, int64_t hi) {
    // Row i of opA(A) starts at a + i*lda normally; with trans_a the stored
    // matrix is [k, m] and op-row i is stored column i, i.e. offset a + i.
    const float* a_sub = trans_a ? a + lo : a + lo * lda;
    kernels::Gemm(trans_a, trans_b, hi - lo, n, k, a_sub, lda, b, ldb,
                  c + lo * ldc, ldc);
  });
}

inline float ApplyAct(Activation act, float x) {
  switch (act) {
    case Activation::kNone:
      return x;
    case Activation::kTanh:
      return kernels::Tanh(x);
    case Activation::kSigmoid:
      return StableSigmoid(x);
    case Activation::kRelu:
      return x > 0.0f ? x : 0.0f;
  }
  return x;
}

/// Derivative from the output value, matching the eager UnaryFromOutput
/// derivative expressions bit for bit (relu's x > 0 test is equivalent to
/// y > 0 since y = max(x, 0)).
inline float ActDeriv(Activation act, float y) {
  switch (act) {
    case Activation::kNone:
      return 1.0f;
    case Activation::kTanh:
      return 1.0f - y * y;
    case Activation::kSigmoid:
      return y * (1.0f - y);
    case Activation::kRelu:
      return y > 0.0f ? 1.0f : 0.0f;
  }
  return 1.0f;
}

/// Shared implementation for the binary elementwise ops over operands of one
/// shape. `Kernel` is the kernels::Ew* loop computing a chunk of the output;
/// `grad_a(ga[i], go[i], b[i])` and `grad_b(gb[i], go[i], a[i])` accumulate
/// one element's gradient into an operand, reading the other operand's value.
template <auto Kernel, typename GradA, typename GradB>
Tensor BinaryElementwise(const char* op, const Tensor& a, const Tensor& b,
                         GradA grad_a, GradB grad_b) {
  CheckSameShape(a, b);
  auto out = MakeNode(op, a.shape(), {a, b});
  const int64_t n = static_cast<int64_t>(out->data.size());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out->data.data();
  ParallelFor(0, n, kElemGrain, [=](int64_t lo, int64_t hi) {
    Kernel(hi - lo, pa + lo, pb + lo, po + lo);
  });
  if (out->requires_grad && !out->tape_wired) {
    BatchTape::NoteClosureAlloc();
    TensorImpl* o = out.get();
    TensorImpl* ia = a.impl().get();
    TensorImpl* ib = b.impl().get();
    out->backward_fn = [o, ia, ib, n, grad_a, grad_b]() {
      float* ga = GradBuf(ia);
      float* gb = GradBuf(ib);
      const float* go = o->grad.data();
      const float* da = ia->data.data();
      const float* db = ib->data.data();
      ParallelFor(0, n, kElemGrain, [=](int64_t lo, int64_t hi) {
        if (ga != nullptr) {
          for (int64_t i = lo; i < hi; ++i) grad_a(ga[i], go[i], db[i]);
        }
        if (gb != nullptr) {
          for (int64_t i = lo; i < hi; ++i) grad_b(gb[i], go[i], da[i]);
        }
      });
    };
  }
  return Tensor::WrapImpl(out);
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  const auto pass = [](float& g, float go, float) { g += go; };
  return BinaryElementwise<kernels::EwAdd>("add", a, b, pass, pass);
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryElementwise<kernels::EwSub>(
      "sub", a, b, [](float& g, float go, float) { g += go; },
      [](float& g, float go, float) { g -= go; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  const auto times_other = [](float& g, float go, float other) {
    g += go * other;
  };
  return BinaryElementwise<kernels::EwMul>("mul", a, b, times_other,
                                           times_other);
}

Tensor AddBias(const Tensor& a, const Tensor& bias) {
  RRRE_CHECK_EQ(bias.ndim(), 1);
  const int64_t n = bias.dim(0);
  RRRE_CHECK_EQ(a.dim(-1), n);
  auto out = MakeNode("add_bias", a.shape(), {a, bias});
  const int64_t rows = a.numel() / n;
  const float* pa = a.data();
  const float* pb = bias.data();
  float* po = out->data.data();
  ParallelFor(0, rows, RowGrain(n), [=](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      kernels::EwAdd(n, pa + r * n, pb, po + r * n);
    }
  });
  if (out->requires_grad && !out->tape_wired) {
    BatchTape::NoteClosureAlloc();
    TensorImpl* o = out.get();
    TensorImpl* ia = a.impl().get();
    TensorImpl* ib = bias.impl().get();
    out->backward_fn = [o, ia, ib, rows, n]() {
      const float* go = o->grad.data();
      if (float* ga = GradBuf(ia)) {
        const int64_t total = rows * n;
        ParallelFor(0, total, kElemGrain, [=](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) ga[i] += go[i];
        });
      }
      if (float* gb = GradBuf(ib)) {
        // Bias grad is a cross-row reduction: fixed-grain chunk partials,
        // combined in chunk order.
        const int64_t grain = RowGrain(n);
        const int64_t chunks = (rows + grain - 1) / grain;
        std::vector<std::vector<float>> partials(
            static_cast<size_t>(chunks));
        ParallelFor(0, rows, grain, [&, grain](int64_t lo, int64_t hi) {
          auto& part = partials[static_cast<size_t>(lo / grain)];
          part.assign(static_cast<size_t>(n), 0.0f);
          for (int64_t r = lo; r < hi; ++r) {
            for (int64_t j = 0; j < n; ++j) {
              part[static_cast<size_t>(j)] += go[r * n + j];
            }
          }
        });
        for (const auto& part : partials) {
          for (int64_t j = 0; j < n; ++j) gb[j] += part[static_cast<size_t>(j)];
        }
      }
    };
  }
  return Tensor::WrapImpl(out);
}

Tensor MulScalar(const Tensor& a, float s) {
  // The backward closure captures s, so its bit pattern is replay-verified:
  // a same-shape trace with a different scale re-records instead of
  // replaying a stale closure.
  auto out = MakeNode("mul_scalar", a.shape(), {a}, FloatBits(s));
  const int64_t n = static_cast<int64_t>(out->data.size());
  const float* pa = a.data();
  float* po = out->data.data();
  ParallelFor(0, n, kElemGrain, [=](int64_t lo, int64_t hi) {
    kernels::EwMulScalar(hi - lo, pa + lo, s, po + lo);
  });
  if (out->requires_grad && !out->tape_wired) {
    BatchTape::NoteClosureAlloc();
    TensorImpl* o = out.get();
    TensorImpl* ia = a.impl().get();
    out->backward_fn = [o, ia, n, s]() {
      if (float* ga = GradBuf(ia)) {
        const float* go = o->grad.data();
        ParallelFor(0, n, kElemGrain, [=](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) ga[i] += go[i] * s;
        });
      }
    };
  }
  return Tensor::WrapImpl(out);
}

namespace {

/// Shared implementation for unary elementwise ops where the local derivative
/// can be computed from the output value.
template <typename Fwd, typename DerivFromOut>
Tensor UnaryFromOutput(const char* op, const Tensor& a, Fwd fwd,
                       DerivFromOut deriv) {
  auto out = MakeNode(op, a.shape(), {a});
  const int64_t n = static_cast<int64_t>(out->data.size());
  const float* pa = a.data();
  float* po = out->data.data();
  ParallelFor(0, n, kElemGrain, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) po[i] = fwd(pa[i]);
  });
  if (out->requires_grad && !out->tape_wired) {
    BatchTape::NoteClosureAlloc();
    TensorImpl* o = out.get();
    TensorImpl* ia = a.impl().get();
    out->backward_fn = [o, ia, n, deriv]() {
      if (float* ga = GradBuf(ia)) {
        const float* go = o->grad.data();
        const float* yo = o->data.data();
        const float* xa = ia->data.data();
        ParallelFor(0, n, kElemGrain, [=](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            ga[i] += go[i] * deriv(yo[i], xa[i]);
          }
        });
      }
    };
  }
  return Tensor::WrapImpl(out);
}

}  // namespace

Tensor Tanh(const Tensor& a) {
  return UnaryFromOutput(
      "tanh", a, [](float x) { return kernels::Tanh(x); },
      [](float y, float) { return 1.0f - y * y; });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryFromOutput(
      "sigmoid", a, [](float x) { return StableSigmoid(x); },
      [](float y, float) { return y * (1.0f - y); });
}

Tensor Relu(const Tensor& a) {
  return UnaryFromOutput(
      "relu", a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float, float x) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor Square(const Tensor& a) {
  return UnaryFromOutput(
      "square", a, [](float x) { return x * x; },
      [](float, float x) { return 2.0f * x; });
}

Tensor MatMul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  obs::TraceSpan span("matmul");
  RRRE_CHECK_EQ(a.ndim(), 2);
  RRRE_CHECK_EQ(b.ndim(), 2);
  const int64_t m = trans_a ? a.dim(1) : a.dim(0);
  const int64_t k = trans_a ? a.dim(0) : a.dim(1);
  const int64_t n = trans_b ? b.dim(0) : b.dim(1);
  RRRE_CHECK_EQ(trans_b ? b.dim(1) : b.dim(0), k)
      << "MatMul inner dims: " << ShapeToString(a.shape())
      << (trans_a ? "^T" : "") << " x " << ShapeToString(b.shape())
      << (trans_b ? "^T" : "");
  auto out = MakeNode("matmul", {m, n}, {a, b},
                      static_cast<uint64_t>(trans_a ? 1 : 0) |
                          (static_cast<uint64_t>(trans_b ? 1 : 0) << 1));
  const int64_t lda = a.dim(1);
  const int64_t ldb = b.dim(1);
  ShardedGemm(trans_a, trans_b, m, n, k, a.data(), lda, b.data(), ldb,
              out->data.data(), n);
  if (out->requires_grad && !out->tape_wired) {
    BatchTape::NoteClosureAlloc();
    TensorImpl* o = out.get();
    TensorImpl* ia = a.impl().get();
    TensorImpl* ib = b.impl().get();
    out->backward_fn = [o, ia, ib, m, k, n, lda, ldb, trans_a, trans_b]() {
      const float* go = o->grad.data();
      // Each gradient is itself a GEMM against the stored (untransposed)
      // operand buffers; the dispatch below picks the transpose variant that
      // reads them in place. Both grads accumulate into row-sharded outputs,
      // so the determinism argument is the same as the forward's.
      if (float* ga = GradBuf(ia)) {
        const float* db = ib->data.data();
        if (!trans_a) {
          // dA[m, k] = dC · opB(B)^T.
          ShardedGemm(false, !trans_b, m, k, n, go, n, db, ldb, ga, lda);
        } else if (!trans_b) {
          // A stored [k, m]: dA = B · dC^T.
          ShardedGemm(false, true, k, m, n, db, ldb, go, n, ga, lda);
        } else {
          // A stored [k, m], B stored [n, k]: dA = B^T · dC^T.
          ShardedGemm(true, true, k, m, n, db, ldb, go, n, ga, lda);
        }
      }
      if (float* gb = GradBuf(ib)) {
        const float* da = ia->data.data();
        if (!trans_b) {
          // dB[k, n] = opA(A)^T · dC.
          ShardedGemm(!trans_a, false, k, n, m, da, lda, go, n, gb, ldb);
        } else if (!trans_a) {
          // B stored [n, k]: dB = dC^T · A.
          ShardedGemm(true, false, n, k, m, go, n, da, lda, gb, ldb);
        } else {
          // B stored [n, k], A stored [k, m]: dB = dC^T · A^T.
          ShardedGemm(true, true, n, k, m, go, n, da, lda, gb, ldb);
        }
      }
    };
  }
  return Tensor::WrapImpl(out);
}

Tensor Softmax(const Tensor& a) {
  RRRE_CHECK_EQ(a.ndim(), 2);
  const int64_t rows = a.dim(0);
  const int64_t cols = a.dim(1);
  auto out = MakeNode("softmax", a.shape(), {a});
  const float* pa = a.data();
  float* po = out->data.data();
  ParallelFor(0, rows, RowGrain(cols), [=](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* row = pa + r * cols;
      float maxv = row[0];
      for (int64_t j = 1; j < cols; ++j) maxv = std::max(maxv, row[j]);
      float denom = 0.0f;
      float* orow = po + r * cols;
      for (int64_t j = 0; j < cols; ++j) {
        orow[j] = std::exp(row[j] - maxv);
        denom += orow[j];
      }
      for (int64_t j = 0; j < cols; ++j) orow[j] /= denom;
    }
  });
  if (out->requires_grad && !out->tape_wired) {
    BatchTape::NoteClosureAlloc();
    TensorImpl* o = out.get();
    TensorImpl* ia = a.impl().get();
    out->backward_fn = [o, ia, rows, cols]() {
      float* ga = GradBuf(ia);
      if (ga == nullptr) return;
      const float* yo = o->data.data();
      const float* go = o->grad.data();
      ParallelFor(0, rows, RowGrain(cols), [=](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const float* y = yo + r * cols;
          const float* gy = go + r * cols;
          float dot = 0.0f;
          for (int64_t j = 0; j < cols; ++j) dot += y[j] * gy[j];
          float* gx = ga + r * cols;
          for (int64_t j = 0; j < cols; ++j) {
            gx[j] += y[j] * (gy[j] - dot);
          }
        }
      });
    };
  }
  return Tensor::WrapImpl(out);
}

Tensor Sum(const Tensor& a) {
  auto out = MakeNode("sum", {1}, {a});
  const int64_t n = static_cast<int64_t>(a.impl()->data.size());
  const float* pa = a.data();
  // Fixed-grain chunk partials combined in chunk order: for n <= kElemGrain
  // this is the plain serial double accumulation. Two scrapes of the same
  // buffer — at any thread count — produce bitwise identical sums.
  const int64_t chunks = (n + kElemGrain - 1) / kElemGrain;
  std::vector<double> partials(static_cast<size_t>(std::max<int64_t>(chunks, 1)),
                               0.0);
  ParallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
    double acc = 0.0;
    for (int64_t i = lo; i < hi; ++i) acc += pa[i];
    partials[static_cast<size_t>(lo / kElemGrain)] = acc;
  });
  double total = 0.0;
  for (double p : partials) total += p;
  out->data[0] = static_cast<float>(total);
  if (out->requires_grad && !out->tape_wired) {
    BatchTape::NoteClosureAlloc();
    TensorImpl* o = out.get();
    TensorImpl* ia = a.impl().get();
    out->backward_fn = [o, ia, n]() {
      if (float* ga = GradBuf(ia)) {
        const float g = o->grad[0];
        ParallelFor(0, n, kElemGrain, [=](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) ga[i] += g;
        });
      }
    };
  }
  return Tensor::WrapImpl(out);
}

Tensor Mean(const Tensor& a) {
  return MulScalar(Sum(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor RowSum(const Tensor& a) {
  RRRE_CHECK_EQ(a.ndim(), 2);
  const int64_t rows = a.dim(0);
  const int64_t cols = a.dim(1);
  auto out = MakeNode("row_sum", {rows, 1}, {a});
  const float* pa = a.data();
  float* po = out->data.data();
  ParallelFor(0, rows, RowGrain(cols), [=](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      double acc = 0.0;
      for (int64_t j = 0; j < cols; ++j) acc += pa[r * cols + j];
      po[r] = static_cast<float>(acc);
    }
  });
  if (out->requires_grad && !out->tape_wired) {
    BatchTape::NoteClosureAlloc();
    TensorImpl* o = out.get();
    TensorImpl* ia = a.impl().get();
    out->backward_fn = [o, ia, rows, cols]() {
      if (float* ga = GradBuf(ia)) {
        const float* go = o->grad.data();
        ParallelFor(0, rows, RowGrain(cols), [=](int64_t lo, int64_t hi) {
          for (int64_t r = lo; r < hi; ++r) {
            const float g = go[r];
            float* grow = ga + r * cols;
            for (int64_t j = 0; j < cols; ++j) grow[j] += g;
          }
        });
      }
    };
  }
  return Tensor::WrapImpl(out);
}

Tensor Reshape(const Tensor& a, const Shape& shape) {
  RRRE_CHECK_EQ(NumElements(shape), a.numel())
      << ShapeToString(a.shape()) << " -> " << ShapeToString(shape);
  auto out = MakeNode("reshape", shape, {a});
  out->data = a.impl()->data;
  if (out->requires_grad && !out->tape_wired) {
    BatchTape::NoteClosureAlloc();
    TensorImpl* o = out.get();
    TensorImpl* ia = a.impl().get();
    out->backward_fn = [o, ia]() {
      if (float* ga = GradBuf(ia)) {
        const float* go = o->grad.data();
        const int64_t n = static_cast<int64_t>(o->grad.size());
        ParallelFor(0, n, kElemGrain, [=](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) ga[i] += go[i];
        });
      }
    };
  }
  return Tensor::WrapImpl(out);
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  RRRE_CHECK(!parts.empty());
  const int64_t rows = parts[0].dim(0);
  int64_t total_cols = 0;
  for (const Tensor& p : parts) {
    RRRE_CHECK_EQ(p.ndim(), 2);
    RRRE_CHECK_EQ(p.dim(0), rows);
    total_cols += p.dim(1);
  }
  auto out = MakeNode("concat_cols", {rows, total_cols}, parts);
  int64_t col_offset = 0;
  for (const Tensor& p : parts) {
    const int64_t cols = p.dim(1);
    const float* pp = p.data();
    float* po = out->data.data() + col_offset;
    ParallelFor(0, rows, RowGrain(cols), [=](int64_t lo, int64_t hi) {
      for (int64_t r = lo; r < hi; ++r) {
        std::copy(pp + r * cols, pp + (r + 1) * cols, po + r * total_cols);
      }
    });
    col_offset += cols;
  }
  if (out->requires_grad && !out->tape_wired) {
    BatchTape::NoteClosureAlloc();
    TensorImpl* o = out.get();
    std::vector<TensorImpl*> impls;
    std::vector<int64_t> widths;
    for (const Tensor& p : parts) {
      impls.push_back(p.impl().get());
      widths.push_back(p.dim(1));
    }
    out->backward_fn = [o, impls, widths, rows, total_cols]() {
      int64_t offset = 0;
      for (size_t pi = 0; pi < impls.size(); ++pi) {
        const int64_t cols = widths[pi];
        if (float* gp = GradBuf(impls[pi])) {
          const float* go = o->grad.data() + offset;
          ParallelFor(0, rows, RowGrain(cols), [=](int64_t lo, int64_t hi) {
            for (int64_t r = lo; r < hi; ++r) {
              const float* src = go + r * total_cols;
              float* dst = gp + r * cols;
              for (int64_t j = 0; j < cols; ++j) dst[j] += src[j];
            }
          });
        }
        offset += cols;
      }
    };
  }
  return Tensor::WrapImpl(out);
}

Tensor SliceRows(const Tensor& a, int64_t start, int64_t len) {
  RRRE_CHECK_EQ(a.ndim(), 2);
  RRRE_CHECK_GE(start, 0);
  RRRE_CHECK_GT(len, 0);
  RRRE_CHECK_LE(start + len, a.dim(0));
  const int64_t cols = a.dim(1);
  auto out = MakeNode("slice_rows", {len, cols}, {a},
                      static_cast<uint64_t>(start));
  std::copy(a.data() + start * cols, a.data() + (start + len) * cols,
            out->data.data());
  if (out->requires_grad && !out->tape_wired) {
    BatchTape::NoteClosureAlloc();
    TensorImpl* o = out.get();
    TensorImpl* ia = a.impl().get();
    out->backward_fn = [o, ia, start, len, cols]() {
      if (float* ga = GradBuf(ia)) {
        float* dst = ga + start * cols;
        const float* go = o->grad.data();
        const int64_t total = len * cols;
        ParallelFor(0, total, kElemGrain, [=](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) dst[i] += go[i];
        });
      }
    };
  }
  return Tensor::WrapImpl(out);
}

Tensor SliceCols(const Tensor& a, int64_t start, int64_t len) {
  RRRE_CHECK_EQ(a.ndim(), 2);
  RRRE_CHECK_GE(start, 0);
  RRRE_CHECK_GT(len, 0);
  RRRE_CHECK_LE(start + len, a.dim(1));
  const int64_t rows = a.dim(0);
  const int64_t cols = a.dim(1);
  auto out = MakeNode("slice_cols", {rows, len}, {a},
                      static_cast<uint64_t>(start));
  const float* pa = a.data();
  float* po = out->data.data();
  ParallelFor(0, rows, RowGrain(len), [=](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      std::copy(pa + r * cols + start, pa + r * cols + start + len,
                po + r * len);
    }
  });
  if (out->requires_grad && !out->tape_wired) {
    BatchTape::NoteClosureAlloc();
    TensorImpl* o = out.get();
    TensorImpl* ia = a.impl().get();
    out->backward_fn = [o, ia, start, len, rows, cols]() {
      if (float* ga = GradBuf(ia)) {
        const float* go = o->grad.data();
        ParallelFor(0, rows, RowGrain(len), [=](int64_t lo, int64_t hi) {
          for (int64_t r = lo; r < hi; ++r) {
            const float* src = go + r * len;
            float* dst = ga + r * cols + start;
            for (int64_t j = 0; j < len; ++j) dst[j] += src[j];
          }
        });
      }
    };
  }
  return Tensor::WrapImpl(out);
}

namespace {

/// Examples per chunk in Conv1dMaxPool's backward kernel-gradient reduction.
/// Fixed so the chunk partials (and their combination order) do not depend on
/// the thread count.
constexpr int64_t kConvChunk = 16;

}  // namespace

Tensor Conv1dMaxPool(const Tensor& values, int64_t seq_len,
                     const Tensor& kernel, const Tensor& bias) {
  obs::TraceSpan span("conv1d_maxpool");
  RRRE_CHECK_EQ(values.ndim(), 2);
  RRRE_CHECK_EQ(kernel.ndim(), 2);
  RRRE_CHECK_EQ(bias.ndim(), 1);
  const int64_t d = values.dim(1);
  RRRE_CHECK_GT(seq_len, 0);
  RRRE_CHECK_EQ(values.dim(0) % seq_len, 0)
      << "values rows must be a multiple of seq_len";
  const int64_t b = values.dim(0) / seq_len;
  RRRE_CHECK_EQ(kernel.dim(0) % d, 0)
      << "kernel rows must be a multiple of the embedding dim";
  const int64_t w = kernel.dim(0) / d;
  RRRE_CHECK_LE(w, seq_len) << "window wider than sequence";
  const int64_t f = kernel.dim(1);
  RRRE_CHECK_EQ(bias.dim(0), f);
  const int64_t positions = seq_len - w + 1;

  auto out = MakeNode("conv1d_maxpool", {b, f}, {values, kernel, bias},
                      static_cast<uint64_t>(seq_len));
  // argmax[b*f + c] = best window start for that (example, filter). Stored
  // on the node rather than captured in the closure: a replayed step reuses
  // the recorded closure, which must read the positions this step's forward
  // just wrote.
  out->iscratch.assign(static_cast<size_t>(b * f), int64_t{0});
  const float* pv = values.data();
  const float* pk = kernel.data();
  const float* pb = bias.data();
  float* po = out->data.data();
  int64_t* pam = out->iscratch.data();
  // Examples are independent: partition by bi. A window is w*d contiguous
  // floats of the example's embedding block, so the per-example kernel runs
  // contiguous filter-axis axpys (see kernels.cc); per (t, c) the
  // accumulation still walks the window in ascending (p, e) order.
  ParallelFor(0, b, RowGrain(positions * f * w * d),
              [=](int64_t lo, int64_t hi) {
    std::vector<float> scores(static_cast<size_t>(f));
    for (int64_t bi = lo; bi < hi; ++bi) {
      kernels::Conv1dMaxPoolExample(seq_len, w, d, f, pv + bi * seq_len * d,
                                    pk, pb, po + bi * f, pam + bi * f,
                                    scores.data());
    }
  });

  if (out->requires_grad && !out->tape_wired) {
    BatchTape::NoteClosureAlloc();
    TensorImpl* o = out.get();
    TensorImpl* iv = values.impl().get();
    TensorImpl* ik = kernel.impl().get();
    TensorImpl* ib = bias.impl().get();
    out->backward_fn = [o, iv, ik, ib, b, f, w, d, seq_len]() {
      float* gv = GradBuf(iv);
      float* gk = GradBuf(ik);
      float* gb = GradBuf(ib);
      if (gv == nullptr && gk == nullptr && gb == nullptr) return;
      const float* go = o->grad.data();
      const float* dk = ik->data.data();
      const float* dv = iv->data.data();
      const int64_t* pam2 = o->iscratch.data();
      const int64_t wd = w * d;
      // Transposed kernel [f, w*d]: row c is filter c's window weights in
      // ascending q = p*d + e order, so the value-gradient inner loop is a
      // contiguous axpy over the argmax window while keeping the exact
      // accumulation order of the reference (ascending q per (bi, c)).
      std::vector<float> kt;
      if (gv != nullptr) {
        kt.resize(static_cast<size_t>(f * wd));
        for (int64_t q = 0; q < wd; ++q) {
          for (int64_t c = 0; c < f; ++c) {
            kt[static_cast<size_t>(c * wd + q)] = dk[q * f + c];
          }
        }
      }
      const float* ktp = kt.data();
      // Value grads are private per example; kernel and bias grads are
      // cross-example reductions — accumulate per-chunk partials (fixed
      // kConvChunk examples each) and combine them in chunk order.
      const int64_t ksize = wd * f;
      const int64_t chunks = (b + kConvChunk - 1) / kConvChunk;
      std::vector<std::vector<float>> k_partials(
          static_cast<size_t>(chunks));
      std::vector<std::vector<float>> b_partials(
          static_cast<size_t>(chunks));
      ParallelFor(0, b, kConvChunk, [&, ksize, wd](int64_t lo, int64_t hi) {
        const size_t chunk = static_cast<size_t>(lo / kConvChunk);
        float* kp = nullptr;
        float* bp = nullptr;
        if (gk != nullptr) {
          k_partials[chunk].assign(static_cast<size_t>(ksize), 0.0f);
          kp = k_partials[chunk].data();
        }
        if (gb != nullptr) {
          b_partials[chunk].assign(static_cast<size_t>(f), 0.0f);
          bp = b_partials[chunk].data();
        }
        for (int64_t bi = lo; bi < hi; ++bi) {
          const float* grow = go + bi * f;
          const int64_t* trow = pam2 + bi * f;
          // Bias + value grads, filter-major like the reference: per (bi, c)
          // with a nonzero incoming grad, one contiguous axpy over the
          // argmax window.
          for (int64_t c = 0; c < f; ++c) {
            const float g = grow[c];
            if (g == 0.0f) continue;
            if (bp != nullptr) bp[c] += g;
            if (gv != nullptr) {
              float* win = gv + (bi * seq_len + trow[c]) * d;
              const float* krow = ktp + c * wd;
              for (int64_t q = 0; q < wd; ++q) win[q] += g * krow[q];
            }
          }
          // Kernel grads, q-outer/c-inner so the inner loop writes the
          // partial's contiguous row q*f. Each (q, c) gets at most one
          // contribution per example, so the regrouping relative to the
          // filter-major reference changes nothing bitwise.
          if (kp != nullptr) {
            const float* dvb = dv + bi * seq_len * d;
            for (int64_t q = 0; q < wd; ++q) {
              float* kprow = kp + q * f;
              for (int64_t c = 0; c < f; ++c) {
                const float g = grow[c];
                if (g == 0.0f) continue;
                kprow[c] += g * dvb[trow[c] * d + q];
              }
            }
          }
        }
      });
      for (int64_t c = 0; c < chunks; ++c) {
        if (gk != nullptr && !k_partials[static_cast<size_t>(c)].empty()) {
          const float* kp = k_partials[static_cast<size_t>(c)].data();
          for (int64_t i = 0; i < ksize; ++i) gk[i] += kp[i];
        }
        if (gb != nullptr && !b_partials[static_cast<size_t>(c)].empty()) {
          const float* bp = b_partials[static_cast<size_t>(c)].data();
          for (int64_t i = 0; i < f; ++i) gb[i] += bp[i];
        }
      }
    };
  }
  return Tensor::WrapImpl(out);
}

Tensor EmbeddingLookup(const Tensor& table, const std::vector<int64_t>& ids) {
  RRRE_CHECK_EQ(table.ndim(), 2);
  RRRE_CHECK(!ids.empty());
  const int64_t v = table.dim(0);
  const int64_t d = table.dim(1);
  const int64_t n = static_cast<int64_t>(ids.size());
  auto out = MakeNode("embedding_lookup", {n, d}, {table});
  for (int64_t i = 0; i < n; ++i) {
    RRRE_CHECK_GE(ids[static_cast<size_t>(i)], 0);
    RRRE_CHECK_LT(ids[static_cast<size_t>(i)], v);
  }
  // Ids are stashed on the node: each step's batch looks up different rows,
  // and a replayed step's recorded closure must scatter into the rows this
  // step's forward actually read.
  out->iscratch.assign(ids.begin(), ids.end());
  const float* pt = table.data();
  const int64_t* pid = ids.data();
  float* po = out->data.data();
  ParallelFor(0, n, RowGrain(d), [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      std::copy(pt + pid[i] * d, pt + (pid[i] + 1) * d, po + i * d);
    }
  });
  if (out->requires_grad && !out->tape_wired) {
    BatchTape::NoteClosureAlloc();
    TensorImpl* o = out.get();
    TensorImpl* it = table.impl().get();
    out->backward_fn = [o, it, n, d]() {
      float* gt = GradBuf(it);
      if (gt == nullptr) return;
      // Serial: duplicate ids scatter-add into the same table row.
      const float* go = o->grad.data();
      const int64_t* pid = o->iscratch.data();
      for (int64_t i = 0; i < n; ++i) {
        const float* src = go + i * d;
        float* dst = gt + pid[i] * d;
        for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
      }
    };
  }
  return Tensor::WrapImpl(out);
}

Tensor WeightedPool(const Tensor& values, const Tensor& weights) {
  RRRE_CHECK_EQ(values.ndim(), 2);
  RRRE_CHECK_EQ(weights.ndim(), 2);
  const int64_t b = weights.dim(0);
  const int64_t s = weights.dim(1);
  const int64_t k = values.dim(1);
  RRRE_CHECK_EQ(values.dim(0), b * s)
      << "values rows must equal B*s: " << ShapeToString(values.shape())
      << " with weights " << ShapeToString(weights.shape());
  auto out = MakeNode("weighted_pool", {b, k}, {values, weights});
  const float* pv = values.data();
  const float* pw = weights.data();
  float* po = out->data.data();
  ParallelFor(0, b, RowGrain(s * k), [=](int64_t lo, int64_t hi) {
    for (int64_t bi = lo; bi < hi; ++bi) {
      float* orow = po + bi * k;
      for (int64_t j = 0; j < s; ++j) {
        const float w = pw[bi * s + j];
        if (w == 0.0f) continue;
        const float* vrow = pv + (bi * s + j) * k;
        kernels::EwAxpy(k, w, vrow, orow);
      }
    }
  });
  if (out->requires_grad && !out->tape_wired) {
    BatchTape::NoteClosureAlloc();
    TensorImpl* o = out.get();
    TensorImpl* iv = values.impl().get();
    TensorImpl* iw = weights.impl().get();
    out->backward_fn = [o, iv, iw, b, s, k]() {
      float* gv = GradBuf(iv);
      float* gw = GradBuf(iw);
      if (gv == nullptr && gw == nullptr) return;
      const float* go = o->grad.data();
      const float* dw = iw->data.data();
      const float* dv = iv->data.data();
      // Rows (bi*s + j) and weight entries are private per example.
      ParallelFor(0, b, RowGrain(s * k), [=](int64_t lo, int64_t hi) {
        for (int64_t bi = lo; bi < hi; ++bi) {
          const float* gorow = go + bi * k;
          for (int64_t j = 0; j < s; ++j) {
            const int64_t row = bi * s + j;
            if (gv != nullptr) {
              const float w = dw[bi * s + j];
              float* gvrow = gv + row * k;
              for (int64_t c = 0; c < k; ++c) gvrow[c] += w * gorow[c];
            }
            if (gw != nullptr) {
              const float* vrow = dv + row * k;
              float acc = 0.0f;
              for (int64_t c = 0; c < k; ++c) acc += gorow[c] * vrow[c];
              gw[bi * s + j] += acc;
            }
          }
        }
      });
    };
  }
  return Tensor::WrapImpl(out);
}

Tensor CrossEntropyWithLogits(const Tensor& logits,
                              const std::vector<int64_t>& labels,
                              const std::vector<float>& example_weights) {
  RRRE_CHECK_EQ(logits.ndim(), 2);
  const int64_t b = logits.dim(0);
  const int64_t c = logits.dim(1);
  RRRE_CHECK_EQ(static_cast<int64_t>(labels.size()), b);
  const bool weighted = !example_weights.empty();
  if (weighted) {
    RRRE_CHECK_EQ(static_cast<int64_t>(example_weights.size()), b);
  }
  for (int64_t r = 0; r < b; ++r) {
    RRRE_CHECK_GE(labels[static_cast<size_t>(r)], 0);
    RRRE_CHECK_LT(labels[static_cast<size_t>(r)], c);
  }

  // The node is created up front so the forward writes the backward stash
  // straight onto it: scratch = [probs (b*c) | example weights (b) | norm],
  // iscratch = labels. A replayed step reuses the recorded closure, which
  // reads this stash at closure run time — nothing per-step is captured.
  auto out = MakeNode("cross_entropy", {1}, {logits});
  out->scratch.resize(static_cast<size_t>(b * c + b + 1));
  out->iscratch.assign(labels.begin(), labels.end());

  // Forward: per-row stable log-softmax, gather label log-probability. The
  // (loss, weight) accumulators are reduced over fixed-grain row chunks.
  const float* pl = logits.data();
  const int64_t grain = RowGrain(c);
  const int64_t chunks = (b + grain - 1) / grain;
  std::vector<double> loss_partials(static_cast<size_t>(chunks), 0.0);
  std::vector<double> weight_partials(static_cast<size_t>(chunks), 0.0);
  float* pp = out->scratch.data();
  ParallelFor(0, b, grain, [&, grain](int64_t lo, int64_t hi) {
    double loss_acc = 0.0;
    double weight_acc = 0.0;
    for (int64_t r = lo; r < hi; ++r) {
      const float* row = pl + r * c;
      float maxv = row[0];
      for (int64_t j = 1; j < c; ++j) maxv = std::max(maxv, row[j]);
      float denom = 0.0f;
      for (int64_t j = 0; j < c; ++j) {
        pp[r * c + j] = std::exp(row[j] - maxv);
        denom += pp[r * c + j];
      }
      for (int64_t j = 0; j < c; ++j) pp[r * c + j] /= denom;
      const float w = weighted ? example_weights[static_cast<size_t>(r)] : 1.0f;
      const float logp =
          row[labels[static_cast<size_t>(r)]] - maxv - std::log(denom);
      loss_acc += -static_cast<double>(w) * logp;
      weight_acc += w;
    }
    loss_partials[static_cast<size_t>(lo / grain)] = loss_acc;
    weight_partials[static_cast<size_t>(lo / grain)] = weight_acc;
  });
  double loss_acc = 0.0;
  double weight_acc = 0.0;
  for (int64_t i = 0; i < chunks; ++i) {
    loss_acc += loss_partials[static_cast<size_t>(i)];
    weight_acc += weight_partials[static_cast<size_t>(i)];
  }
  const float norm = static_cast<float>(std::max(weight_acc, 1e-12));

  // Unweighted batches stash 1.0f per example; w == 1.0f multiplies
  // bit-exactly like the old unweighted branch.
  float* stash_w = out->scratch.data() + b * c;
  for (int64_t r = 0; r < b; ++r) {
    stash_w[r] = weighted ? example_weights[static_cast<size_t>(r)] : 1.0f;
  }
  out->scratch[static_cast<size_t>(b * c + b)] = norm;
  out->data[0] = static_cast<float>(loss_acc) / norm;
  if (out->requires_grad && !out->tape_wired) {
    BatchTape::NoteClosureAlloc();
    TensorImpl* o = out.get();
    TensorImpl* il = logits.impl().get();
    out->backward_fn = [o, il, b, c]() {
      float* gl = GradBuf(il);
      if (gl == nullptr) return;
      const float* p = o->scratch.data();
      const float* wts = p + b * c;
      const float norm = p[b * c + b];
      const int64_t* lab = o->iscratch.data();
      const float g = o->grad[0] / norm;
      ParallelFor(0, b, RowGrain(c), [=](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const float w = wts[r];
          if (w == 0.0f) continue;
          float* grow = gl + r * c;
          const int64_t label = lab[r];
          for (int64_t j = 0; j < c; ++j) {
            const float onehot = (j == label) ? 1.0f : 0.0f;
            grow[j] += g * w * (p[r * c + j] - onehot);
          }
        }
      });
    };
  }
  return Tensor::WrapImpl(out);
}

// -- Fused ops ----------------------------------------------------------------
//
// Bitwise contract with the eager chains (checked by tests/test_kernels.cc):
// every float written here — forward values, gradient contributions, and the
// order contributions land in shared buffers — reproduces the exact sequence
// of rounded operations the eager node-by-node graph performs. Intermediate
// values the eager graph would store in a node (e.g. g_o = gh*tc) are
// recomputed as the same single rounded product before the next multiply.

Tensor AddNBiasAct(const std::vector<Tensor>& parts, const Tensor& bias,
                   Activation act) {
  RRRE_CHECK(!parts.empty());
  RRRE_CHECK_EQ(bias.ndim(), 1);
  const int64_t n = bias.dim(0);
  for (const Tensor& p : parts) CheckSameShape(p, parts[0]);
  RRRE_CHECK_EQ(parts[0].dim(-1), n);
  std::vector<Tensor> node_parents = parts;
  node_parents.push_back(bias);
  auto out = MakeNode("addn_bias_act", parts[0].shape(), node_parents,
                      static_cast<uint64_t>(act));
  const int64_t total = parts[0].numel();
  const int64_t rows = total / n;
  std::vector<const float*> part_data;
  part_data.reserve(parts.size());
  for (const Tensor& p : parts) part_data.push_back(p.data());
  const float* pb = bias.data();
  float* po = out->data.data();
  const size_t np = part_data.size();
  const float* const* ppd = part_data.data();
  ParallelFor(0, rows, RowGrain(n * static_cast<int64_t>(np)),
              [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      for (int64_t j = 0; j < n; ++j) {
        const int64_t i = r * n + j;
        // Left-to-right partial sums: each += is a separate rounding, same
        // as the eager Add(Add(p0, p1), p2) nesting, then the bias add.
        float acc = ppd[0][i];
        for (size_t q = 1; q < np; ++q) acc += ppd[q][i];
        acc += pb[j];
        po[i] = ApplyAct(act, acc);
      }
    }
  });
  if (out->requires_grad && !out->tape_wired) {
    BatchTape::NoteClosureAlloc();
    TensorImpl* o = out.get();
    std::vector<TensorImpl*> impls;
    for (const Tensor& p : parts) impls.push_back(p.impl().get());
    TensorImpl* ibias = bias.impl().get();
    out->backward_fn = [o, impls, ibias, rows, n, act]() {
      const float* go = o->grad.data();
      const float* yo = o->data.data();
      const int64_t total = rows * n;
      std::vector<float*> gps;
      gps.reserve(impls.size());
      for (TensorImpl* impl : impls) gps.push_back(GradBuf(impl));
      float* const* gpp = gps.data();
      const size_t np = gps.size();
      ParallelFor(0, total, kElemGrain, [&](int64_t lo, int64_t hi) {
        for (size_t q = 0; q < np; ++q) {
          float* gp = gpp[q];
          if (gp == nullptr) continue;
          // go[i] * deriv(y) is the single rounded product the eager act
          // node would store; the identity add chain then copies it.
          for (int64_t i = lo; i < hi; ++i) {
            gp[i] += go[i] * ActDeriv(act, yo[i]);
          }
        }
      });
      if (float* gb = GradBuf(ibias)) {
        const int64_t grain = RowGrain(n);
        const int64_t chunks = (rows + grain - 1) / grain;
        std::vector<std::vector<float>> partials(
            static_cast<size_t>(chunks));
        ParallelFor(0, rows, grain, [&, grain](int64_t lo, int64_t hi) {
          auto& part = partials[static_cast<size_t>(lo / grain)];
          part.assign(static_cast<size_t>(n), 0.0f);
          for (int64_t r = lo; r < hi; ++r) {
            for (int64_t j = 0; j < n; ++j) {
              part[static_cast<size_t>(j)] +=
                  go[r * n + j] * ActDeriv(act, yo[r * n + j]);
            }
          }
        });
        for (const auto& part : partials) {
          for (int64_t j = 0; j < n; ++j) gb[j] += part[static_cast<size_t>(j)];
        }
      }
    };
  }
  return Tensor::WrapImpl(out);
}

namespace {

/// Float offsets into an LstmSequence node's scratch. Per-step blocks
/// indexed by time t sit at the rows of x they belong to (so the hoisted
/// GEMMs see one contiguous [T*S, .] matrix); the h/c chains are indexed by
/// recurrence step, slot 0 holding the zero initial state. The backward
/// workspace is only laid out when the node requires grad.
struct LstmSequenceLayout {
  LstmSequenceLayout(int64_t steps, int64_t bsz, int64_t hs, bool backward) {
    const int64_t rows = steps * bsz;
    const int64_t g4 = 4 * hs;
    const int64_t bh = bsz * hs;
    int64_t at = 0;
    auto take = [&at](int64_t n) {
      const int64_t off = at;
      at += n;
      return off;
    };
    gates = take(rows * g4);
    tanh_c = take(rows * hs);
    h = take((steps + 1) * bh);
    c = take((steps + 1) * bh);
    hw = take(bsz * g4);
    if (backward) {
      dpre = take(rows * g4);
      dh = take(2 * bh);
      dc = take(bh);
      part = take(g4);
    }
    total = at;
  }

  int64_t gates;   ///< [T*S, 4H]: x·W_ih, then i, f, g, o in place.
  int64_t tanh_c;  ///< [T*S, H]
  int64_t h;       ///< [(T+1)*S, H]
  int64_t c;       ///< [(T+1)*S, H]
  int64_t hw;      ///< [S, 4H]: the step's h·W_hh.
  int64_t dpre = 0;  ///< [T*S, 4H]: gate pre-activation grads.
  int64_t dh = 0;    ///< [2*S, H]: ping-pong h grads.
  int64_t dc = 0;    ///< [S, H]
  int64_t part = 0;  ///< [4H]: one bias chunk partial.
  int64_t total;
};

}  // namespace

Tensor LstmSequence(const Tensor& x, const Tensor& w_ih, const Tensor& w_hh,
                    const Tensor& bias, int64_t num_steps, bool reverse) {
  obs::TraceSpan span("lstm_sequence");
  RRRE_CHECK_EQ(x.ndim(), 2);
  RRRE_CHECK_EQ(w_ih.ndim(), 2);
  RRRE_CHECK_EQ(w_hh.ndim(), 2);
  RRRE_CHECK_EQ(bias.ndim(), 1);
  RRRE_CHECK_GT(num_steps, 0);
  RRRE_CHECK_EQ(x.dim(0) % num_steps, 0)
      << "LstmSequence rows " << x.dim(0) << " not a multiple of "
      << num_steps << " steps";
  const int64_t bsz = x.dim(0) / num_steps;
  const int64_t d = x.dim(1);
  const int64_t hs = w_hh.dim(0);
  const int64_t g4 = 4 * hs;
  RRRE_CHECK_EQ(w_ih.dim(0), d);
  RRRE_CHECK_EQ(w_ih.dim(1), g4);
  RRRE_CHECK_EQ(w_hh.dim(1), g4);
  RRRE_CHECK_EQ(bias.dim(0), g4);
  const int64_t rows = num_steps * bsz;
  const int64_t bh = bsz * hs;

  // attr pins the step count and direction the closure walks by.
  auto out = MakeNode("lstm_sequence", {bsz, hs}, {x, w_ih, w_hh, bias},
                      (static_cast<uint64_t>(num_steps) << 1) |
                          (reverse ? 1u : 0u));
  const LstmSequenceLayout lay(num_steps, bsz, hs, out->requires_grad);
  out->scratch.resize(static_cast<size_t>(lay.total));
  float* st = out->scratch.data();
  float* gates = st + lay.gates;
  float* tanh_c = st + lay.tanh_c;
  float* hbuf = st + lay.h;
  float* cbuf = st + lay.c;
  float* hw = st + lay.hw;

  // GEMMs accumulate, so every output block starts zeroed, as a fresh node
  // buffer would.
  std::fill(gates, gates + rows * g4, 0.0f);
  ShardedGemm(false, false, rows, g4, d, x.data(), d, w_ih.data(), g4, gates,
              g4);
  std::fill(hbuf, hbuf + bh, 0.0f);
  std::fill(cbuf, cbuf + bh, 0.0f);
  const float* pb = bias.data();
  for (int64_t step = 0; step < num_steps; ++step) {
    const int64_t t = reverse ? num_steps - 1 - step : step;
    float* gt = gates + t * bsz * g4;
    float* tc = tanh_c + t * bh;
    const float* c_prev = cbuf + step * bh;
    float* c_next = cbuf + (step + 1) * bh;
    float* h_next = hbuf + (step + 1) * bh;
    // Step 0 multiplies the zero state too, exactly like the eager chain.
    std::fill(hw, hw + bsz * g4, 0.0f);
    ShardedGemm(false, false, bsz, g4, hs, hbuf + step * bh, hs, w_hh.data(),
                g4, hw, g4);
    // A row costs 3H libm expf (the sigmoids) plus 2H TanhN lanes, which
    // run several times cheaper than a scalar call; weighing all 5H as
    // transcendentals errs toward smaller chunks, i.e. a wider spread.
    const int64_t grain = RowGrain(5 * hs * kTranscendentalCost);
    ParallelFor(0, bsz, grain, [=](int64_t lo, int64_t hi) {
      for (int64_t r = lo; r < hi; ++r) {
        float* grow = gt + r * g4;
        const float* hwrow = hw + r * g4;
        // (x·W_ih + h·W_hh) + b: AddNBiasAct's two roundings.
        for (int64_t q = 0; q < g4; ++q) grow[q] = (grow[q] + hwrow[q]) + pb[q];
        kernels::TanhN(grow + 2 * hs, grow + 2 * hs, hs);
        for (int64_t j = 0; j < hs; ++j) {
          const int64_t idx = r * hs + j;
          const float iv = StableSigmoid(grow[j]);
          const float fv = StableSigmoid(grow[hs + j]);
          const float gv = grow[2 * hs + j];
          const float ov = StableSigmoid(grow[3 * hs + j]);
          grow[j] = iv;
          grow[hs + j] = fv;
          grow[3 * hs + j] = ov;
          // c = (f*c_prev) + (i*g): two rounded products, one add.
          const float t1 = fv * c_prev[idx];
          const float t2 = iv * gv;
          c_next[idx] = t1 + t2;
        }
        kernels::TanhN(c_next + r * hs, tc + r * hs, hs);
        for (int64_t j = 0; j < hs; ++j) {
          const int64_t idx = r * hs + j;
          h_next[idx] = grow[3 * hs + j] * tc[idx];
        }
      }
    });
  }
  std::copy(hbuf + num_steps * bh, hbuf + (num_steps + 1) * bh,
            out->data.begin());

  if (out->requires_grad && !out->tape_wired) {
    BatchTape::NoteClosureAlloc();
    TensorImpl* o = out.get();
    TensorImpl* ix = x.impl().get();
    TensorImpl* iwih = w_ih.impl().get();
    TensorImpl* iwhh = w_hh.impl().get();
    TensorImpl* ib = bias.impl().get();
    out->backward_fn = [o, ix, iwih, iwhh, ib, num_steps, bsz, d, hs,
                        reverse]() {
      // The eager chain's reverse-topological schedule, reproduced buffer by
      // buffer: every eager grad buffer starts zeroed and takes `+=`, and the
      // contributions to each shared buffer (bias, W_hh, W_ih, x) land in the
      // same order and grouping. Intermediate grads the eager graph holds in
      // separate nodes (the two GEMM operands of AddNBiasAct, c's grad) are
      // bitwise copies of dpre / dc here.
      const int64_t g4 = 4 * hs;
      const int64_t bh = bsz * hs;
      const int64_t rows = num_steps * bsz;
      const LstmSequenceLayout lay(num_steps, bsz, hs, /*backward=*/true);
      float* st = o->scratch.data();
      const float* gates = st + lay.gates;
      const float* tanh_c = st + lay.tanh_c;
      const float* hbuf = st + lay.h;
      const float* cbuf = st + lay.c;
      float* dpre = st + lay.dpre;
      float* dh = st + lay.dh;
      float* dc = st + lay.dc;
      float* part = st + lay.part;
      const float* px = ix->data.data();
      const float* pwih = iwih->data.data();
      const float* pwhh = iwhh->data.data();
      float* gx = GradBuf(ix);
      float* gwih = GradBuf(iwih);
      float* gwhh = GradBuf(iwhh);
      float* gb = GradBuf(ib);
      std::fill(dpre, dpre + rows * g4, 0.0f);
      std::fill(dc, dc + bh, 0.0f);
      const float* dh_cur = o->grad.data();
      for (int64_t step = num_steps - 1; step >= 0; --step) {
        const int64_t t = reverse ? num_steps - 1 - step : step;
        const float* gt = gates + t * bsz * g4;
        const float* tc = tanh_c + t * bh;
        const float* c_prev = cbuf + step * bh;
        float* dp = dpre + t * bsz * g4;
        ParallelFor(0, bsz, RowGrain(g4), [=](int64_t lo, int64_t hi) {
          for (int64_t r = lo; r < hi; ++r) {
            const float* grow = gt + r * g4;
            float* drow = dp + r * g4;
            for (int64_t j = 0; j < hs; ++j) {
              const int64_t idx = r * hs + j;
              const float iv = grow[j];
              const float fv = grow[hs + j];
              const float gv = grow[2 * hs + j];
              const float ov = grow[3 * hs + j];
              const float tcv = tc[idx];
              // h = o*tanh(c): (gh*tanh c) and (gh*o) are the products the
              // eager Mul node stores, then the activation derivatives.
              const float g = dh_cur[idx];
              drow[3 * hs + j] += (g * tcv) * (ov * (1.0f - ov));
              dc[idx] += (g * ov) * (1.0f - tcv * tcv);
              // c = f*c_prev + i*g, with dc complete: the next step's
              // (g_c*f) landed first, this step's h term second.
              const float gcv = dc[idx];
              drow[j] += (gcv * gv) * (iv * (1.0f - iv));
              drow[hs + j] += (gcv * c_prev[idx]) * (fv * (1.0f - fv));
              drow[2 * hs + j] += (gcv * iv) * (1.0f - gv * gv);
              // c_prev's grad, freshly zeroed: g_c*f is its first term.
              dc[idx] = 0.0f + gcv * fv;
            }
          }
        });
        if (gb != nullptr) {
          // AddNBiasAct's bias reduction: partials over fixed-grain chunks
          // of this step's rows, added in chunk order.
          const int64_t grain = RowGrain(g4);
          for (int64_t lo = 0; lo < bsz; lo += grain) {
            const int64_t hi = std::min(bsz, lo + grain);
            std::fill(part, part + g4, 0.0f);
            for (int64_t r = lo; r < hi; ++r) {
              for (int64_t q = 0; q < g4; ++q) part[q] += dp[r * g4 + q];
            }
            for (int64_t q = 0; q < g4; ++q) gb[q] += part[q];
          }
        }
        // h_prev·W_hh's MatMul backward: dh_prev (zeroed) and dW_hh. The
        // initial state is a constant, so step 0 skips dh but, like the
        // eager chain, still adds its zero-state product into dW_hh.
        float* dh_prev = dh + (step & 1) * bh;
        if (step > 0) {
          std::fill(dh_prev, dh_prev + bh, 0.0f);
          ShardedGemm(false, true, bsz, hs, g4, dp, g4, pwhh, g4, dh_prev, hs);
        }
        if (gwhh != nullptr) {
          ShardedGemm(true, false, hs, g4, bsz, hbuf + step * bh, hs, dp, g4,
                      gwhh, g4);
        }
        dh_cur = dh_prev;
      }
      // x_t·W_ih's MatMul backwards run after the whole recurrence, in
      // ascending step order. dW_ih stays one GEMM per step: a single
      // T*S-deep GEMM would regroup each element's sum by k-panel.
      if (gwih != nullptr) {
        for (int64_t step = 0; step < num_steps; ++step) {
          const int64_t t = reverse ? num_steps - 1 - step : step;
          ShardedGemm(true, false, d, g4, bsz, px + t * bsz * d, d,
                      dpre + t * bsz * g4, g4, gwih, g4);
        }
      }
      // dX rows are disjoint per step, so one GEMM gives every row the bits
      // of its step's own call.
      if (gx != nullptr) {
        ShardedGemm(false, true, rows, d, g4, dpre, g4, pwih, g4, gx, d);
      }
    };
  }
  return Tensor::WrapImpl(out);
}

Tensor GruPointwise(const Tensor& gi, const Tensor& gh, const Tensor& h_prev) {
  RRRE_CHECK_EQ(gi.ndim(), 2);
  RRRE_CHECK_EQ(gh.ndim(), 2);
  RRRE_CHECK_EQ(h_prev.ndim(), 2);
  const int64_t bsz = gi.dim(0);
  const int64_t hs = h_prev.dim(1);
  RRRE_CHECK_EQ(gi.dim(1), 3 * hs);
  RRRE_CHECK_EQ(gh.dim(0), bsz);
  RRRE_CHECK_EQ(gh.dim(1), 3 * hs);
  RRRE_CHECK_EQ(h_prev.dim(0), bsz);
  const int64_t bh = bsz * hs;

  auto out = MakeNode("gru_pointwise", {bsz, hs}, {gi, gh, h_prev});
  // Stash [r | z | n] blocks of B*H for backward.
  out->scratch.assign(static_cast<size_t>(3 * bh), 0.0f);
  const float* pgi = gi.data();
  const float* pgh = gh.data();
  const float* php = h_prev.data();
  float* po = out->data.data();
  float* stash = out->scratch.data();
  ParallelFor(0, bsz, RowGrain(3 * hs), [=](int64_t lo, int64_t hi) {
    for (int64_t bi = lo; bi < hi; ++bi) {
      const float* girow = pgi + bi * 3 * hs;
      const float* ghrow = pgh + bi * 3 * hs;
      for (int64_t j = 0; j < hs; ++j) {
        const int64_t idx = bi * hs + j;
        const float rv = StableSigmoid(girow[j] + ghrow[j]);
        const float zv = StableSigmoid(girow[hs + j] + ghrow[hs + j]);
        // pre_n = gi_n + (r * gh_n): one rounded product then one add,
        // matching the eager Add(gi_n, Mul(r, gh_n)).
        const float nv =
            kernels::Tanh(girow[2 * hs + j] + rv * ghrow[2 * hs + j]);
        const float om = 1.0f - zv;
        const float t1 = om * nv;
        const float t2 = zv * php[idx];
        po[idx] = t1 + t2;
        stash[idx] = rv;
        stash[bh + idx] = zv;
        stash[2 * bh + idx] = nv;
      }
    }
  });

  if (out->requires_grad && !out->tape_wired) {
    BatchTape::NoteClosureAlloc();
    TensorImpl* o = out.get();
    TensorImpl* igi = gi.impl().get();
    TensorImpl* igh = gh.impl().get();
    TensorImpl* ihp = h_prev.impl().get();
    out->backward_fn = [o, igi, igh, ihp, bsz, hs, bh]() {
      const float* go = o->grad.data();
      const float* st = o->scratch.data();
      const float* php = ihp->data.data();
      const float* pgh = igh->data.data();
      float* ggi = GradBuf(igi);
      float* ggh = GradBuf(igh);
      float* ghp = GradBuf(ihp);
      ParallelFor(0, bsz, RowGrain(hs), [=](int64_t lo, int64_t hi) {
        for (int64_t bi = lo; bi < hi; ++bi) {
          for (int64_t j = 0; j < hs; ++j) {
            const int64_t idx = bi * hs + j;
            const float g = go[idx];
            const float rv = st[idx];
            const float zv = st[bh + idx];
            const float nv = st[2 * bh + idx];
            // g_z accumulates (go*h_prev) from Mul(z, h) first, then
            // subtracts (go*n) from the 1-z node — same order as the eager
            // reverse-topological walk.
            const float gz = (g * php[idx]) - (g * nv);
            const float gaddz = gz * (zv * (1.0f - zv));
            // g_n = go * (1 - z); the eager om value is the identical
            // float subtraction.
            const float gaddn = (g * (1.0f - zv)) * (1.0f - nv * nv);
            const float ghn = pgh[bi * 3 * hs + 2 * hs + j];
            const float gaddr =
                (gaddn * ghn) * (rv * (1.0f - rv));
            if (ggi != nullptr) {
              float* row = ggi + bi * 3 * hs;
              row[j] += gaddr;
              row[hs + j] += gaddz;
              row[2 * hs + j] += gaddn;
            }
            if (ggh != nullptr) {
              float* row = ggh + bi * 3 * hs;
              row[j] += gaddr;
              row[hs + j] += gaddz;
              row[2 * hs + j] += gaddn * rv;
            }
            if (ghp != nullptr) ghp[idx] += g * zv;
          }
        }
      });
    };
  }
  return Tensor::WrapImpl(out);
}

Tensor FmPairwise(const Tensor& xv, const Tensor& x2v2) {
  CheckSameShape(xv, x2v2);
  RRRE_CHECK_EQ(xv.ndim(), 2);
  const int64_t b = xv.dim(0);
  const int64_t f = xv.dim(1);
  auto out = MakeNode("fm_pair", {b, 1}, {xv, x2v2});
  const float* pxv = xv.data();
  const float* px2 = x2v2.data();
  float* po = out->data.data();
  ParallelFor(0, b, RowGrain(f), [=](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      // Per element: float square, float subtract, double-accumulated row
      // sum — the same roundings as the eager Square/Sub/RowSum chain —
      // then the 0.5 scale.
      double acc = 0.0;
      for (int64_t j = 0; j < f; ++j) {
        const float s = pxv[r * f + j] * pxv[r * f + j];
        acc += s - px2[r * f + j];
      }
      po[r] = static_cast<float>(acc) * 0.5f;
    }
  });
  if (out->requires_grad && !out->tape_wired) {
    BatchTape::NoteClosureAlloc();
    TensorImpl* o = out.get();
    TensorImpl* ixv = xv.impl().get();
    TensorImpl* ix2 = x2v2.impl().get();
    out->backward_fn = [o, ixv, ix2, b, f]() {
      const float* go = o->grad.data();
      const float* pxv = ixv->data.data();
      float* gxv = GradBuf(ixv);
      float* gx2 = GradBuf(ix2);
      if (gxv == nullptr && gx2 == nullptr) return;
      ParallelFor(0, b, RowGrain(f), [=](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const float g2 = go[r] * 0.5f;
          for (int64_t j = 0; j < f; ++j) {
            const int64_t i = r * f + j;
            if (gxv != nullptr) gxv[i] += g2 * (2.0f * pxv[i]);
            if (gx2 != nullptr) gx2[i] -= g2;
          }
        }
      });
    };
  }
  return Tensor::WrapImpl(out);
}

}  // namespace rrre::tensor
