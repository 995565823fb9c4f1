#include "tensor/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

// This translation unit is compiled with the widest vector ISA the build
// targets (see src/tensor/CMakeLists.txt); everything here is straight-line
// compute with no locks, no allocation on the steady state, and no calls
// back into the graph layer.
//
// Every multiply-accumulate below is an explicit std::fma. This is not a
// style choice: the serving layer asserts that a row scores bitwise
// identically whether it arrives in a micro-batch of 3 or a reference batch
// of 120, which means the per-element arithmetic must not depend on which
// MR-tail instantiation (or small-n fallback) a row lands in. Leaving the
// contraction decision to the compiler lets different instantiations round
// differently; a correctly-rounded fma is the same operation everywhere
// (hardware vfmadd with -mfma, correctly-rounded libm otherwise).
//
// The converse holds too: a product followed by an add must stay two
// roundings. GCC 12 contracts `a * b + c` into vfmadd under -mfma even with
// -std=c++20 (the ISO-mode default of -ffp-contract=off applies to C only),
// and it does so for an _mm256_mul_ps feeding an _mm256_add_ps as well.
// Contracted, Tanh below is an ulp or more off glibc's tanhf on some
// inputs, so src/tensor/CMakeLists.txt pins -ffp-contract=off on this
// library; the GEMM and conv loops, whose every fma is explicit, compile the
// same either way.

namespace rrre::tensor::kernels {

namespace {

/// Packs the [kb, nc] panel of op(B) starting at (k0, j0) into tile-major
/// layout: tile t holds columns [t*kNr, t*kNr + kNr) of the panel with rows
/// contiguous —
///   bp[(t * kb + kk) * kNr + jj] = op(B)(k0 + kk, j0 + t*kNr + jj)
/// — zero-padded on the right so the micro-kernel always runs fixed kNr-wide
/// inner loops. Packing order depends only on the panel coordinates, never
/// on which output rows the caller owns.
void PackB(bool trans_b, const float* b, int64_t ldb, int64_t k0, int64_t kb,
           int64_t j0, int64_t nc, float* bp) {
  const int64_t tiles = (nc + kNr - 1) / kNr;
  for (int64_t t = 0; t < tiles; ++t) {
    const int64_t jbase = j0 + t * kNr;
    const int64_t jb = std::min<int64_t>(kNr, j0 + nc - jbase);
    float* dst = bp + t * kb * kNr;
    for (int64_t kk = 0; kk < kb; ++kk) {
      if (!trans_b) {
        const float* src = b + (k0 + kk) * ldb + jbase;
        for (int64_t jj = 0; jj < jb; ++jj) dst[jj] = src[jj];
      } else {
        // op(B) = B^T with B stored [n, k]: transpose while packing.
        for (int64_t jj = 0; jj < jb; ++jj) {
          dst[jj] = b[(jbase + jj) * ldb + k0 + kk];
        }
      }
      for (int64_t jj = jb; jj < kNr; ++jj) dst[jj] = 0.0f;
      dst += kNr;
    }
  }
}

/// MR x kNr register micro-tile: C held in accumulators across the whole
/// k panel and stored once (the register-blocking win over a loop that
/// reloads the C row every k step). Per element the accumulation runs in
/// ascending k; only the first nb columns are stored back, so the zero
/// padding in the packed panel never reaches C.
///
/// `a` points at op(A)(panel row 0, tile row 0): for ATrans the stored
/// matrix is [k, m] and consecutive tile rows are consecutive floats; for
/// the normal case they are lda apart.
template <int MR, bool ATrans>
void MicroKernel(int64_t kb, const float* RRRE_RESTRICT a, int64_t lda,
                 const float* RRRE_RESTRICT bp, float* RRRE_RESTRICT c,
                 int64_t ldc, int64_t nb) {
#if defined(__AVX2__) && defined(__FMA__)
  // Explicit 8-lane FMA: the auto-vectorizer SLP-splits the fully-unrolled
  // accumulator array into 128-bit halves and spills them to the stack,
  // costing ~4x. _mm256_fmadd_ps is the same correctly-rounded fma per lane
  // as std::fma, and the per-element accumulation order is still ascending
  // kk, so this path is bitwise identical to the scalar fallback below.
  static_assert(kNr == 16, "micro-kernel assumes two 8-lane accumulators");
  __m256 acc[MR][2];
  for (int r = 0; r < MR; ++r) {
    acc[r][0] = _mm256_setzero_ps();
    acc[r][1] = _mm256_setzero_ps();
  }
  for (int64_t kk = 0; kk < kb; ++kk) {
    const float* brow = bp + kk * kNr;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    for (int r = 0; r < MR; ++r) {
      const __m256 av =
          _mm256_set1_ps(ATrans ? a[kk * lda + r] : a[r * lda + kk]);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    alignas(32) float arow[kNr];
    _mm256_store_ps(arow, acc[r][0]);
    _mm256_store_ps(arow + 8, acc[r][1]);
    float* crow = c + r * ldc;
    for (int64_t j = 0; j < nb; ++j) crow[j] += arow[j];
  }
#else
  float acc[MR][kNr] = {};
  for (int64_t kk = 0; kk < kb; ++kk) {
    const float* brow = bp + kk * kNr;
    for (int r = 0; r < MR; ++r) {
      const float av = ATrans ? a[kk * lda + r] : a[r * lda + kk];
      float* arow = acc[r];
      for (int64_t j = 0; j < kNr; ++j) {
        arow[j] = std::fma(av, brow[j], arow[j]);
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    float* crow = c + r * ldc;
    const float* arow = acc[r];
    for (int64_t j = 0; j < nb; ++j) crow[j] += arow[j];
  }
#endif
}

/// Runs the packed panel against all m rows: full kMr tiles first, then one
/// tail tile of 1..3 rows. The per-row arithmetic is identical regardless of
/// which tile a row lands in, so row-sharded callers stay bitwise stable.
template <bool ATrans>
void GemmPanel(int64_t m, int64_t kb, const float* a, int64_t lda,
               const float* bp, int64_t tiles, int64_t nc, float* c,
               int64_t ldc) {
  for (int64_t t = 0; t < tiles; ++t) {
    const int64_t nb = std::min<int64_t>(kNr, nc - t * kNr);
    const float* bpt = bp + t * kb * kNr;
    float* ct = c + t * kNr;
    int64_t i = 0;
    for (; i + kMr <= m; i += kMr) {
      const float* ai = ATrans ? a + i : a + i * lda;
      MicroKernel<kMr, ATrans>(kb, ai, lda, bpt, ct + i * ldc, ldc, nb);
    }
    const float* ai = ATrans ? a + i : a + i * lda;
    switch (m - i) {
      case 3:
        MicroKernel<3, ATrans>(kb, ai, lda, bpt, ct + i * ldc, ldc, nb);
        break;
      case 2:
        MicroKernel<2, ATrans>(kb, ai, lda, bpt, ct + i * ldc, ldc, nb);
        break;
      case 1:
        MicroKernel<1, ATrans>(kb, ai, lda, bpt, ct + i * ldc, ldc, nb);
        break;
      default:
        break;
    }
  }
}

/// Narrow outputs (n < kSmallN, e.g. the attention score and FM linear
/// heads) skip packing: the padded micro-kernel would spend most of its
/// lanes on zeros. Plain loop nests, still ascending-k per element.
template <bool ATrans, bool BTrans>
void GemmSmallN(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
                const float* b, int64_t ldb, float* c, int64_t ldc) {
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    if (!BTrans) {
      for (int64_t kk = 0; kk < k; ++kk) {
        const float av = ATrans ? a[kk * lda + i] : a[i * lda + kk];
        const float* brow = b + kk * ldb;
        for (int64_t j = 0; j < n; ++j) {
          crow[j] = std::fma(av, brow[j], crow[j]);
        }
      }
    } else {
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * ldb;
        float acc = 0.0f;
        for (int64_t kk = 0; kk < k; ++kk) {
          acc = std::fma(ATrans ? a[kk * lda + i] : a[i * lda + kk], brow[kk],
                         acc);
        }
        crow[j] += acc;
      }
    }
  }
}

template <bool ATrans, bool BTrans>
void GemmImpl(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
              const float* b, int64_t ldb, float* c, int64_t ldc) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  if (n < kSmallN) {
    GemmSmallN<ATrans, BTrans>(m, n, k, a, lda, b, ldb, c, ldc);
    return;
  }
  // Packing scratch is thread-local so concurrent row-sharded callers never
  // share it; it grows to the largest panel once and is reused after that.
  thread_local std::vector<float> pack;
  for (int64_t j0 = 0; j0 < n; j0 += kNc) {
    const int64_t nc = std::min(kNc, n - j0);
    const int64_t tiles = (nc + kNr - 1) / kNr;
    for (int64_t k0 = 0; k0 < k; k0 += kKc) {
      const int64_t kb = std::min(kKc, k - k0);
      pack.resize(static_cast<size_t>(tiles * kb * kNr));
      PackB(BTrans, b, ldb, k0, kb, j0, nc, pack.data());
      const float* a_sub = ATrans ? a + k0 * lda : a + k0;
      GemmPanel<ATrans>(m, kb, a_sub, lda, pack.data(), tiles, nc, c + j0,
                        ldc);
    }
  }
}

}  // namespace

void Gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          const float* a, int64_t lda, const float* b, int64_t ldb, float* c,
          int64_t ldc) {
  if (!trans_a && !trans_b) {
    GemmImpl<false, false>(m, n, k, a, lda, b, ldb, c, ldc);
  } else if (!trans_a && trans_b) {
    GemmImpl<false, true>(m, n, k, a, lda, b, ldb, c, ldc);
  } else if (trans_a && !trans_b) {
    GemmImpl<true, false>(m, n, k, a, lda, b, ldb, c, ldc);
  } else {
    GemmImpl<true, true>(m, n, k, a, lda, b, ldb, c, ldc);
  }
}

void Conv1dMaxPoolExample(int64_t seq_len, int64_t w, int64_t d, int64_t f,
                          const float* values_ex, const float* kernel,
                          const float* bias, float* out_row,
                          int64_t* argmax_row, float* score_scratch) {
  const int64_t positions = seq_len - w + 1;
  const int64_t wd = w * d;
  for (int64_t c = 0; c < f; ++c) {
    out_row[c] = -std::numeric_limits<float>::infinity();
    argmax_row[c] = 0;
  }
  for (int64_t t = 0; t < positions; ++t) {
    const float* win = values_ex + t * d;  // w*d contiguous floats.
    for (int64_t c = 0; c < f; ++c) score_scratch[c] = bias[c];
    // Filter axis innermost: contiguous axpy rows of the kernel, and per
    // (t, c) the accumulation order is ascending q = p*d + e — the same
    // window-position-major order as the serial reference.
    for (int64_t q = 0; q < wd; ++q) {
      const float v = win[q];
      const float* RRRE_RESTRICT krow = kernel + q * f;
      float* RRRE_RESTRICT sc = score_scratch;
      for (int64_t c = 0; c < f; ++c) sc[c] = std::fma(v, krow[c], sc[c]);
    }
    for (int64_t c = 0; c < f; ++c) {
      if (score_scratch[c] > out_row[c]) {
        out_row[c] = score_scratch[c];
        argmax_row[c] = t;
      }
    }
  }
}


// -- tanh ---------------------------------------------------------------------
//
// A transcription of glibc 2.36's sysdeps/ieee754/flt-32/s_tanhf.c and
// s_expm1f.c (fdlibm's float versions): the same IEEE single-precision
// operations in the same order, so every result equals that libm's tanhf bit
// for bit. fdlibm's exponent adds on int32 words run in uint32_t here (the
// same bits, no signed overflow). Only the expm1f paths tanhf reaches are
// kept: it passes x = 2|v| for 1 <= |v| < 22 and x = -2|v| for |v| < 1, so
// expm1f's |x| >= 27 ln2 filter (overflow, -1, inf and NaN) and its k == 1
// reduction never run.

namespace {

constexpr float FloatFromBits(uint32_t w) { return std::bit_cast<float>(w); }

// s_expm1f.c's constants, by bit pattern.
constexpr float kLn2Hi = FloatFromBits(0x3f317180u);   // 6.9313812256e-01
constexpr float kLn2Lo = FloatFromBits(0x3717f7d1u);   // 9.0580006145e-06
constexpr float kInvLn2 = FloatFromBits(0x3fb8aa3bu);  // 1.4426950216e+00
constexpr float kQ1 = FloatFromBits(0xbd088889u);      // -3.3333335072e-02
constexpr float kQ2 = FloatFromBits(0x3ad00d01u);      // 1.5873016091e-03
constexpr float kQ3 = FloatFromBits(0xb8a670cdu);      // -7.9365076090e-05
constexpr float kQ4 = FloatFromBits(0x36867e54u);      // 4.0082177293e-06
constexpr float kQ5 = FloatFromBits(0xb457edbbu);      // -2.0109921195e-07
// s_tanhf.c's: 1 - tiny rounds to 1 (fdlibm subtracts it to raise inexact).
constexpr float kTiny = 1.0e-30f;

/// fdlibm's SET_FLOAT_WORD(y, GET_FLOAT_WORD(y) + (k << 23)): y * 2^k
/// through the exponent field.
inline float AddExponent(float y, int32_t k) {
  return std::bit_cast<float>(std::bit_cast<uint32_t>(y) +
                              (static_cast<uint32_t>(k) << 23));
}

/// __expm1f(x) for the arguments __tanhf passes it (see above).
float Expm1ForTanh(float x) {
  const uint32_t hx = std::bit_cast<uint32_t>(x) & 0x7fffffffu;
  const bool xsb = std::signbit(x);
  int32_t k;
  float c = 0.0f;
  if (hx > 0x3eb17218u) {  // |x| > 0.5 ln2
    float hi, lo;
    if (hx < 0x3f851592u) {  // and |x| < 1.5 ln2; only x < 0 lands here
      hi = x + kLn2Hi;
      lo = -kLn2Lo;
      k = -1;
    } else {
      k = static_cast<int32_t>(kInvLn2 * x + (xsb ? -0.5f : 0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // t*ln2_hi is exact here
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25
    return x;  // fdlibm's x - (t - (huge + x)) with t = huge + x
  } else {
    k = 0;
  }
  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);  // c is 0
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k <= -2 || k > 56) {  // exp(x) - 1 suffices
    return AddExponent(1.0f - (e - x), k) - 1.0f;
  }
  if (k < 23) {
    t = FloatFromBits(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    return AddExponent(t - (e - x), k);
  }
  t = FloatFromBits((0x7fu - static_cast<uint32_t>(k)) << 23);  // 2^-k
  float y = x - (e + t);
  y += 1.0f;
  return AddExponent(y, k);
}

#if defined(__AVX2__) && defined(__FMA__)
/// mask ? a : b per lane; blendv reads only each mask lane's top bit.
inline __m256 Select(__m256i mask, __m256 a, __m256 b) {
  return _mm256_blendv_ps(b, a, _mm256_castsi256_ps(mask));
}
inline __m256i Above(__m256i v, int32_t bound) {
  return _mm256_cmpgt_epi32(v, _mm256_set1_epi32(bound));
}
inline __m256i Below(__m256i v, int32_t bound) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(bound), v);
}
inline __m256 AddExponent8(__m256 y, __m256i k) {
  return _mm256_castsi256_ps(
      _mm256_add_epi32(_mm256_castps_si256(y), _mm256_slli_epi32(k, 23)));
}

/// Tanh on 8 lanes. Each lane runs the float operations its scalar branch
/// would; every branch is computed and the range tests blend the results.
/// Word compares are signed, which is exact for the nonnegative |x| words
/// and for k.
__m256 Tanh8(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256i sign = _mm256_set1_epi32(static_cast<int32_t>(0x80000000u));
  const __m256i jx = _mm256_castps_si256(x);
  const __m256i ix = _mm256_andnot_si256(sign, jx);
  const __m256 ax = _mm256_castsi256_ps(ix);

  // expm1f(a), a = 2|x| for |x| >= 1 and -2|x| below.
  const __m256i big = Above(ix, 0x3f7fffff);
  const __m256 a = Select(big, _mm256_mul_ps(two, ax),
                          _mm256_mul_ps(_mm256_set1_ps(-2.0f), ax));
  const __m256i ha = _mm256_andnot_si256(sign, _mm256_castps_si256(a));
  // One reduction serves fdlibm's three cases. For |a| > 0.5 ln2, k is the
  // rounded quotient; on 0.5 ln2 < |a| < 1.5 ln2, where a < 0, that is -1
  // for every input, and t*ln2_hi and t*ln2_lo are exact at t = -1, which
  // gives fdlibm's k = -1 case (hi = a + ln2_hi, lo = -ln2_lo). Below
  // 0.5 ln2, k = 0 leaves a as it is and c = 0.
  const __m256 rnd = Select(big, half, _mm256_set1_ps(-0.5f));
  __m256i k = _mm256_cvttps_epi32(
      _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(kInvLn2), a), rnd));
  k = _mm256_and_si256(k, Above(ha, 0x3eb17218));
  const __m256 tk = _mm256_cvtepi32_ps(k);
  const __m256 hi = _mm256_sub_ps(a, _mm256_mul_ps(tk, _mm256_set1_ps(kLn2Hi)));
  const __m256 lo = _mm256_mul_ps(tk, _mm256_set1_ps(kLn2Lo));
  const __m256 xr = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);

  const __m256 hfx = _mm256_mul_ps(half, xr);
  const __m256 hxs = _mm256_mul_ps(xr, hfx);
  __m256 p = _mm256_add_ps(_mm256_set1_ps(kQ4),
                           _mm256_mul_ps(hxs, _mm256_set1_ps(kQ5)));
  p = _mm256_add_ps(_mm256_set1_ps(kQ3), _mm256_mul_ps(hxs, p));
  p = _mm256_add_ps(_mm256_set1_ps(kQ2), _mm256_mul_ps(hxs, p));
  p = _mm256_add_ps(_mm256_set1_ps(kQ1), _mm256_mul_ps(hxs, p));
  const __m256 r1 = _mm256_add_ps(one, _mm256_mul_ps(hxs, p));
  const __m256 t = _mm256_sub_ps(_mm256_set1_ps(3.0f), _mm256_mul_ps(r1, hfx));
  __m256 e = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, t),
                         _mm256_sub_ps(_mm256_set1_ps(6.0f),
                                       _mm256_mul_ps(xr, t))));
  const __m256 r_k0 =
      _mm256_sub_ps(xr, _mm256_sub_ps(_mm256_mul_ps(xr, e), hxs));
  e = _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e, c)), c);
  e = _mm256_sub_ps(e, hxs);
  const __m256 r_km1 =
      _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(xr, e)), half);
  const __m256 e_x = _mm256_sub_ps(e, xr);
  const __m256 r_far =
      _mm256_sub_ps(AddExponent8(_mm256_sub_ps(one, e_x), k), one);
  const __m256 t_mid = _mm256_castsi256_ps(_mm256_sub_epi32(  // 1 - 2^-k
      _mm256_set1_epi32(0x3f800000),
      _mm256_srlv_epi32(_mm256_set1_epi32(0x1000000), k)));
  const __m256 r_mid = AddExponent8(_mm256_sub_ps(t_mid, e_x), k);
  const __m256 t_high = _mm256_castsi256_ps(  // 2^-k
      _mm256_slli_epi32(_mm256_sub_epi32(_mm256_set1_epi32(0x7f), k), 23));
  const __m256 r_high = AddExponent8(
      _mm256_add_ps(_mm256_sub_ps(xr, _mm256_add_ps(e, t_high)), one), k);
  __m256 em1 = r_far;  // k <= -2 or k > 56
  em1 = Select(_mm256_and_si256(Above(k, 1), Below(k, 23)), r_mid, em1);
  em1 = Select(_mm256_and_si256(Above(k, 22), Below(k, 57)), r_high, em1);
  em1 = Select(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(-1)), r_km1, em1);
  em1 = Select(_mm256_cmpeq_epi32(k, _mm256_setzero_si256()), r_k0, em1);
  em1 = Select(Below(ha, 0x33000000), a, em1);  // |a| < 2^-25

  // tanhf: 1 - 2/(t + 2) for |x| >= 1, -t/(t + 2) below — one division.
  const __m256 neg_em1 = _mm256_xor_ps(em1, _mm256_castsi256_ps(sign));
  const __m256 q =
      _mm256_div_ps(Select(big, two, neg_em1), _mm256_add_ps(em1, two));
  __m256 z = Select(big, _mm256_sub_ps(one, q), q);
  z = Select(Above(ix, 0x41afffff), _mm256_set1_ps(1.0f - kTiny), z);
  z = _mm256_xor_ps(z, _mm256_castsi256_ps(_mm256_and_si256(jx, sign)));
  z = Select(Below(ix, 0x24000000), _mm256_mul_ps(x, _mm256_add_ps(one, x)),
             z);
  // inf and NaN: 1/x + 1, or 1/x - 1 when the sign bit is set.
  const __m256i nonfinite = Above(ix, 0x7f7fffff);
  if (!_mm256_testz_si256(nonfinite, nonfinite)) {
    const __m256 r = _mm256_div_ps(one, x);
    z = Select(nonfinite,
               Select(jx, _mm256_sub_ps(r, one), _mm256_add_ps(r, one)), z);
  }
  return z;
}
#endif

}  // namespace

float Tanh(float x) {
  const uint32_t jx = std::bit_cast<uint32_t>(x);
  const uint32_t ix = jx & 0x7fffffffu;
  const bool neg = (jx >> 31) != 0;
  if (ix >= 0x7f800000u) {  // tanh(+-inf) = +-1, tanh(NaN) = NaN
    return neg ? 1.0f / x - 1.0f : 1.0f / x + 1.0f;
  }
  float z;
  if (ix < 0x41b00000u) {     // |x| < 22
    if (ix == 0) return x;    // +-0
    if (ix < 0x24000000u) {   // |x| < 2^-55
      return x * (1.0f + x);  // tanh(small) = small
    }
    if (ix >= 0x3f800000u) {  // |x| >= 1
      const float t = Expm1ForTanh(2.0f * std::fabs(x));
      z = 1.0f - 2.0f / (t + 2.0f);
    } else {
      const float t = Expm1ForTanh(-2.0f * std::fabs(x));
      z = -t / (t + 2.0f);
    }
  } else {  // |x| >= 22: +-1
    z = 1.0f - kTiny;
  }
  return neg ? -z : z;
}

void TanhN(const float* in, float* out, int64_t n) {
  int64_t i = 0;
#if defined(__AVX2__) && defined(__FMA__)
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, Tanh8(_mm256_loadu_ps(in + i)));
  }
#endif
  for (; i < n; ++i) out[i] = Tanh(in[i]);
}

// -- Adam ---------------------------------------------------------------------
//
// +, -, *, / and sqrt are correctly rounded in every lane, and float <->
// double conversions round the same way vector or scalar, so the lanes give
// the scalar loop's bits as long as no product is fused into a sum: this
// library's -ffp-contract=off keeps them apart.

void AdamUpdate(int64_t n, const AdamScalars& s, const float* g, float* p,
                float* m, float* v) {
  const double c1 = 1.0 - s.beta1;
  const double c2 = 1.0 - s.beta2;
  int64_t i = 0;
#if defined(__AVX2__) && defined(__FMA__)
  const __m256d beta1 = _mm256_set1_pd(s.beta1);
  const __m256d beta2 = _mm256_set1_pd(s.beta2);
  const __m256d vc1 = _mm256_set1_pd(c1);
  const __m256d vc2 = _mm256_set1_pd(c2);
  const __m256d lr = _mm256_set1_pd(s.lr);
  const __m256d eps = _mm256_set1_pd(s.eps);
  const __m256d bias1 = _mm256_set1_pd(s.bias1);
  const __m256d bias2 = _mm256_set1_pd(s.bias2);
  for (; i + 4 <= n; i += 4) {
    const __m256d gd = _mm256_cvtps_pd(_mm_loadu_ps(g + i));
    const __m256d md = _mm256_cvtps_pd(_mm_loadu_ps(m + i));
    const __m256d vd = _mm256_cvtps_pd(_mm_loadu_ps(v + i));
    const __m128 mf = _mm256_cvtpd_ps(
        _mm256_add_pd(_mm256_mul_pd(beta1, md), _mm256_mul_pd(vc1, gd)));
    const __m128 vf = _mm256_cvtpd_ps(_mm256_add_pd(
        _mm256_mul_pd(beta2, vd), _mm256_mul_pd(_mm256_mul_pd(vc2, gd), gd)));
    _mm_storeu_ps(m + i, mf);
    _mm_storeu_ps(v + i, vf);
    const __m256d mhat = _mm256_div_pd(_mm256_cvtps_pd(mf), bias1);
    const __m256d vhat = _mm256_div_pd(_mm256_cvtps_pd(vf), bias2);
    const __m256d step =
        _mm256_div_pd(_mm256_mul_pd(lr, mhat),
                      _mm256_add_pd(_mm256_sqrt_pd(vhat), eps));
    _mm_storeu_ps(p + i,
                  _mm_sub_ps(_mm_loadu_ps(p + i), _mm256_cvtpd_ps(step)));
  }
#endif
  for (; i < n; ++i) {
    const double gd = g[i];
    m[i] = static_cast<float>(s.beta1 * m[i] + c1 * gd);
    v[i] = static_cast<float>(s.beta2 * v[i] + c2 * gd * gd);
    const double mhat = m[i] / s.bias1;
    const double vhat = v[i] / s.bias2;
    p[i] -= static_cast<float>(s.lr * mhat / (std::sqrt(vhat) + s.eps));
  }
}

}  // namespace rrre::tensor::kernels
