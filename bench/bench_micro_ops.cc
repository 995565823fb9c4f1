// Google-benchmark microbenchmarks of the tensor/NN substrate: the kernels
// that dominate RRRE training time (matmul, BiLSTM steps, attention blocks,
// TextCNN) plus the non-neural detectors' inner loops (loopy BP, REV2).
//
// Run with RRRE_PROF=1 to additionally dump the span histograms the kernels
// record (span_matmul_us, span_conv1d_maxpool_us, span_attention_forward_us,
// ...) so wall time can be attributed to individual ops across a whole run.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "baselines/rev2.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "data/synthetic.h"
#include "graph/mrf.h"
#include "nn/attention.h"
#include "nn/fm.h"
#include "nn/lstm.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/tape.h"

namespace {

using rrre::common::Rng;
using rrre::tensor::Tensor;

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rrre::tensor::MatMul(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

// Naive-vs-blocked reference pair at matched shapes, single-threaded so the
// times are pure kernel arithmetic (the kernels are single-threaded; ops.cc
// shards rows above them). Comparing BM_GemmNaiveST/n against
// BM_GemmBlockedST/n gives the blocked kernel's speedup; the acceptance bar
// at the model-shaped args (m=384, k=16, n=64 — an LSTM gate block) is >=3x.
void NaiveGemmRef(int64_t m, int64_t n, int64_t k, const float* a,
                  const float* b, float* c) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += a[i * k + kk] * b[kk * n + j];
      c[i * n + j] += acc;
    }
  }
}

struct GemmFixture {
  std::vector<float> a, b, c;
  int64_t m, n, k;
  explicit GemmFixture(benchmark::State& state) {
    m = state.range(0);
    k = state.range(1);
    n = state.range(2);
    Rng rng(1);
    a.resize(static_cast<size_t>(m * k));
    b.resize(static_cast<size_t>(k * n));
    c.assign(static_cast<size_t>(m * n), 0.0f);
    for (auto& v : a) v = static_cast<float>(rng.Normal());
    for (auto& v : b) v = static_cast<float>(rng.Normal());
  }
};

void BM_GemmNaiveST(benchmark::State& state) {
  GemmFixture f(state);
  for (auto _ : state) {
    NaiveGemmRef(f.m, f.n, f.k, f.a.data(), f.b.data(), f.c.data());
    benchmark::DoNotOptimize(f.c.data());
  }
  state.SetItemsProcessed(state.iterations() * f.m * f.n * f.k);
}
BENCHMARK(BM_GemmNaiveST)
    ->Args({384, 16, 64})
    ->Args({384, 32, 16})
    ->Args({128, 128, 128});

void BM_GemmBlockedST(benchmark::State& state) {
  GemmFixture f(state);
  for (auto _ : state) {
    rrre::tensor::kernels::GemmNN(f.m, f.n, f.k, f.a.data(), f.k, f.b.data(),
                                  f.n, f.c.data(), f.n);
    benchmark::DoNotOptimize(f.c.data());
  }
  state.SetItemsProcessed(state.iterations() * f.m * f.n * f.k);
}
BENCHMARK(BM_GemmBlockedST)
    ->Args({384, 16, 64})
    ->Args({384, 32, 16})
    ->Args({128, 128, 128});

void BM_MatMulBackward(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng, 1.0f, true);
  Tensor b = Tensor::Randn({n, n}, rng, 1.0f, true);
  for (auto _ : state) {
    Tensor loss = rrre::tensor::Sum(rrre::tensor::MatMul(a, b));
    loss.Backward();
    benchmark::DoNotOptimize(a.grad().data());
  }
}
BENCHMARK(BM_MatMulBackward)->Arg(32)->Arg(64);

void BM_Softmax(benchmark::State& state) {
  Rng rng(2);
  Tensor a = Tensor::Randn({256, 64}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rrre::tensor::Softmax(a).data());
  }
}
BENCHMARK(BM_Softmax);

void BM_LstmCellStep(benchmark::State& state) {
  const int64_t batch = state.range(0);
  Rng rng(3);
  rrre::nn::LstmCell cell(16, 16, rng);
  Tensor x = Tensor::Randn({batch, 16}, rng);
  auto st = cell.InitialState(batch);
  for (auto _ : state) {
    auto next = cell.Step(x, st);
    benchmark::DoNotOptimize(next.h.data());
  }
}
BENCHMARK(BM_LstmCellStep)->Arg(32)->Arg(384);

void BM_BiLstmEncodeReview(benchmark::State& state) {
  // One RRRE batch worth of reviews: 384 slots x 16 tokens x 16 dims, as
  // the time-major [16*384, 16] input ReviewEncoder builds. Arg 0 is the
  // eager per-step chain; arg 1 the fused graph training runs with --tape,
  // one LstmSequence node per direction, bitwise identical output.
  const bool fused = state.range(0) != 0;
  Rng rng(4);
  rrre::nn::BiLstmEncoder enc(16, 16, rng);
  Tensor x = Tensor::Randn({16 * 384, 16}, rng);
  rrre::tensor::SetFusionEnabled(fused);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.Encode(x, 16).data());
  }
  rrre::tensor::SetFusionEnabled(false);
}
BENCHMARK(BM_BiLstmEncodeReview)->Arg(0)->Arg(1);

void BM_Tanh(benchmark::State& state) {
  // tanh over 4096 gate pre-activations, uniform on [-4, 4]: arg 0 is libm
  // std::tanh, arg 1 the scalar kernels::Tanh, arg 2 the 8-lane
  // kernels::TanhN, bitwise identical to each other on glibc 2.36. Compare
  // the ns_per_elem counter.
  const int64_t leg = state.range(0);
  constexpr int64_t kN = 4096;
  Rng rng(6);
  std::vector<float> in(kN), out(kN);
  for (auto& v : in) v = static_cast<float>(rng.Uniform(-4.0, 4.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(in.data());
    if (leg == 0) {
      for (int64_t i = 0; i < kN; ++i) out[i] = std::tanh(in[i]);
    } else if (leg == 1) {
      for (int64_t i = 0; i < kN; ++i) {
        out[i] = rrre::tensor::kernels::Tanh(in[i]);
      }
    } else {
      rrre::tensor::kernels::TanhN(in.data(), out.data(), kN);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["ns_per_elem"] = benchmark::Counter(
      static_cast<double>(kN) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_Tanh)->Arg(0)->Arg(1)->Arg(2);

void BM_FraudAttention(benchmark::State& state) {
  Rng rng(5);
  rrre::nn::FraudAttention att(32, 16, 16, 16, rng);
  Tensor rev = Tensor::Randn({384, 32}, rng);
  Tensor eu = Tensor::Randn({384, 16}, rng);
  Tensor ei = Tensor::Randn({384, 16}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(att.Forward(rev, eu, ei, 12).data());
  }
}
BENCHMARK(BM_FraudAttention);

void BM_Conv1dMaxPool(benchmark::State& state) {
  Rng rng(6);
  Tensor values = Tensor::Randn({384 * 16, 16}, rng);
  Tensor kernel = Tensor::Randn({3 * 16, 16}, rng);
  Tensor bias = Tensor::Randn({16}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rrre::tensor::Conv1dMaxPool(values, 16, kernel, bias).data());
  }
}
BENCHMARK(BM_Conv1dMaxPool);

void BM_FactorizationMachine(benchmark::State& state) {
  Rng rng(7);
  rrre::nn::FactorizationMachine fm(32, 8, rng);
  Tensor x = Tensor::Randn({256, 32}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fm.Forward(x).data());
  }
}
BENCHMARK(BM_FactorizationMachine);

void BM_LoopyBpIteration(benchmark::State& state) {
  // A SpEagle-shaped graph: 2000 reviews on 200 users x 100 items.
  Rng rng(8);
  rrre::graph::PairwiseMrf mrf;
  std::vector<int64_t> users;
  std::vector<int64_t> items;
  for (int i = 0; i < 200; ++i) users.push_back(mrf.AddNode({0.5, 0.5}));
  for (int i = 0; i < 100; ++i) items.push_back(mrf.AddNode({0.5, 0.5}));
  const rrre::graph::PairwiseMrf::Potential same = {{{0.9, 0.1}, {0.1, 0.9}}};
  for (int r = 0; r < 2000; ++r) {
    const int64_t rev = mrf.AddNode({0.6, 0.4});
    mrf.AddEdge(users[rng.UniformInt(uint64_t{200})], rev, same);
    mrf.AddEdge(rev, items[rng.UniformInt(uint64_t{100})], same);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mrf.RunLoopyBp(5, 0.3, 0.0).beliefs.data());
  }
}
BENCHMARK(BM_LoopyBpIteration);

void BM_Rev2Solve(benchmark::State& state) {
  Rng rng(9);
  auto ds = rrre::data::GenerateSyntheticDataset(
      rrre::data::YelpChiProfile(0.2), rng);
  rrre::baselines::Rev2 rev2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rev2.Solve(ds).reliability.data());
  }
}
BENCHMARK(BM_Rev2Solve);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (rrre::obs::ProfilingEnabled()) {
    std::printf("\n# RRRE_PROF kernel span attribution\n%s",
                rrre::obs::MetricsRegistry::Global().RenderText().c_str());
  }
  return 0;
}
