// AVX-512F backend: 8-lane __m512d blocked reductions, scalar tails.
// Gathers use vgatherdpd (zmm form) over the int32 index lists exactly as
// laid out in the arenas; only the F foundation subset is required, so the
// backend runs on every AVX-512 part from Skylake-SP onward. This
// translation unit is compiled with a per-file -mavx512f
// (src/CMakeLists.txt) and only dispatched to when
// __builtin_cpu_supports("avx512f") holds.
//
// Gathers and mins use the masked forms with an explicit zero source and
// an all-lanes mask: the unmasked _mm512_i32gather_pd and _mm512_min_pd
// pass an undefined pass-through operand that g++ -O3 -Wall reports as
// maybe-uninitialized. Every lane is computed either way, so the result is
// the same.
//
// Bit-identity: every candidate is the same left-associated IEEE sum as the
// scalar reference, vminpd returns one of its operands, and the
// horizontal fold compares with `<` exactly like the reference loop, so no
// reduction-order choice can change a bit (tests/minplus_kernels_test.cc).

#include <limits>

#include <immintrin.h>

#include "src/index/kernels/kernel_table.h"

namespace ifls {
namespace kernels {
namespace internal {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Below one 8-lane block the vector main loops do no work and the
/// broadcast/horizontal-fold overhead makes this backend slower than the
/// reference, so such calls defer to the scalar table (bit-identical by
/// construction — it IS the reference).
inline const KernelTable& Scalar() { return *GetScalarKernelTable(); }

/// min over the 8 lanes, folded against `tail` (value-exact: every operand
/// is one of the candidate sums, so picking between equals is bit-neutral).
inline double HorizontalMin(__m512d acc, double tail) {
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, acc);
  double best = tail;
  for (int l = 0; l < 8; ++l) {
    if (lanes[l] < best) best = lanes[l];
  }
  return best;
}

inline __m256i LoadIdx8(const std::int32_t* idx) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
}

/// row[vidx[l]] for the 8 lanes.
inline __m512d Gather(const double* row, __m256i vidx) {
  return _mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xFF, vidx, row, 8);
}

/// Lane-wise min; returns one of its operands per lane like vminpd.
inline __m512d Min(__m512d a, __m512d b) {
  return _mm512_maskz_min_pd(0xFF, a, b);
}

double MinPlusJoin(const double* a, const std::int32_t* rows, std::size_t nr,
                   const double* b, const std::int32_t* cols, std::size_t nc,
                   const double* m, std::size_t stride) {
  if (nc < 8) return Scalar().min_plus_join(a, rows, nr, b, cols, nc, m, stride);
  __m512d acc = _mm512_set1_pd(kInf);
  double tail_best = kInf;
  const std::size_t nc8 = nc & ~std::size_t{7};
  for (std::size_t i = 0; i < nr; ++i) {
    const double ai = a[i];
    const double* row = m + static_cast<std::size_t>(rows[i]) * stride;
    const __m512d va = _mm512_set1_pd(ai);
    for (std::size_t j = 0; j < nc8; j += 8) {
      const __m512d g = Gather(row, LoadIdx8(cols + j));
      const __m512d vb = _mm512_loadu_pd(b + j);
      const __m512d cand = _mm512_add_pd(_mm512_add_pd(va, g), vb);
      acc = Min(acc, cand);
    }
    for (std::size_t j = nc8; j < nc; ++j) {
      const double cand = (ai + row[cols[j]]) + b[j];
      if (cand < tail_best) tail_best = cand;
    }
  }
  return HorizontalMin(acc, tail_best);
}

void MinPlusCompose(const double* a, const std::int32_t* rows, std::size_t nr,
                    const std::int32_t* cols, std::size_t nc, const double* m,
                    std::size_t stride, double* out) {
  if (nc < 8) return Scalar().min_plus_compose(a, rows, nr, cols, nc, m, stride, out);
  const std::size_t nc8 = nc & ~std::size_t{7};
  for (std::size_t j = 0; j < nc8; j += 8) {
    __m512d acc = _mm512_set1_pd(kInf);
    const __m256i vidx = LoadIdx8(cols + j);
    for (std::size_t i = 0; i < nr; ++i) {
      const double* row = m + static_cast<std::size_t>(rows[i]) * stride;
      const __m512d g = Gather(row, vidx);
      const __m512d cand = _mm512_add_pd(_mm512_set1_pd(a[i]), g);
      acc = Min(acc, cand);
    }
    _mm512_storeu_pd(out + j, acc);
  }
  for (std::size_t j = nc8; j < nc; ++j) {
    double best = kInf;
    for (std::size_t i = 0; i < nr; ++i) {
      const double cand =
          a[i] + m[static_cast<std::size_t>(rows[i]) * stride + cols[j]];
      if (cand < best) best = cand;
    }
    out[j] = best;
  }
}

double MinPlusGather(double s, const double* row, const std::int32_t* idx,
                     std::size_t n) {
  if (n < 8) return Scalar().min_plus_gather(s, row, idx, n);
  __m512d acc = _mm512_set1_pd(kInf);
  const __m512d vs = _mm512_set1_pd(s);
  const std::size_t n8 = n & ~std::size_t{7};
  for (std::size_t j = 0; j < n8; j += 8) {
    const __m512d g = Gather(row, LoadIdx8(idx + j));
    acc = Min(acc, _mm512_add_pd(vs, g));
  }
  double tail_best = kInf;
  for (std::size_t j = n8; j < n; ++j) {
    const double cand = s + row[idx[j]];
    if (cand < tail_best) tail_best = cand;
  }
  return HorizontalMin(acc, tail_best);
}

double MinPlusGatherAdd(double s, const double* row, const std::int32_t* idx,
                        const double* b, std::size_t n) {
  if (n < 8) return Scalar().min_plus_gather_add(s, row, idx, b, n);
  __m512d acc = _mm512_set1_pd(kInf);
  const __m512d vs = _mm512_set1_pd(s);
  const std::size_t n8 = n & ~std::size_t{7};
  for (std::size_t j = 0; j < n8; j += 8) {
    const __m512d g = Gather(row, LoadIdx8(idx + j));
    const __m512d vb = _mm512_loadu_pd(b + j);
    acc = Min(acc, _mm512_add_pd(_mm512_add_pd(vs, g), vb));
  }
  double tail_best = kInf;
  for (std::size_t j = n8; j < n; ++j) {
    const double cand = (s + row[idx[j]]) + b[j];
    if (cand < tail_best) tail_best = cand;
  }
  return HorizontalMin(acc, tail_best);
}

double MinPlusPairwise(const double* a, const double* b, std::size_t n) {
  if (n < 8) return Scalar().min_plus_pairwise(a, b, n);
  __m512d acc = _mm512_set1_pd(kInf);
  const std::size_t n8 = n & ~std::size_t{7};
  for (std::size_t k = 0; k < n8; k += 8) {
    const __m512d cand =
        _mm512_add_pd(_mm512_loadu_pd(a + k), _mm512_loadu_pd(b + k));
    acc = Min(acc, cand);
  }
  double tail_best = kInf;
  for (std::size_t k = n8; k < n; ++k) {
    const double cand = a[k] + b[k];
    if (cand < tail_best) tail_best = cand;
  }
  return HorizontalMin(acc, tail_best);
}

/// Two passes: a vectorized min over the sums, then a scalar scan for the
/// first index attaining it — trivially reproduces the reference tie-break.
std::size_t MinPlusArgmin(double s, const double* row, std::size_t n) {
  if (n < 8) return Scalar().min_plus_argmin(s, row, n);
  __m512d acc = _mm512_set1_pd(kInf);
  const __m512d vs = _mm512_set1_pd(s);
  const std::size_t n8 = n & ~std::size_t{7};
  for (std::size_t k = 0; k < n8; k += 8) {
    acc = Min(acc, _mm512_add_pd(vs, _mm512_loadu_pd(row + k)));
  }
  double best = kInf;
  for (std::size_t k = n8; k < n; ++k) {
    const double cand = s + row[k];
    if (cand < best) best = cand;
  }
  best = HorizontalMin(acc, best);
  for (std::size_t k = 0; k < n; ++k) {
    if (s + row[k] == best) return k;
  }
  // best == +inf with every sum +inf (or NaN inputs, which the distance
  // arrays never contain): the reference scan returns index 0.
  return 0;
}

void GatherCells(const double* row, const std::int32_t* idx, std::size_t n,
                 double* out) {
  if (n < 8) return Scalar().gather_cells(row, idx, n, out);
  const std::size_t n8 = n & ~std::size_t{7};
  for (std::size_t i = 0; i < n8; i += 8) {
    _mm512_storeu_pd(out + i, Gather(row, LoadIdx8(idx + i)));
  }
  for (std::size_t i = n8; i < n; ++i) out[i] = row[idx[i]];
}

constexpr KernelTable kTable = {
    "avx512",        MinPlusJoin,   MinPlusCompose, MinPlusGather,
    MinPlusGatherAdd, MinPlusPairwise, MinPlusArgmin, GatherCells,
};

}  // namespace

const KernelTable* GetAvx512KernelTable() { return &kTable; }

}  // namespace internal
}  // namespace kernels
}  // namespace ifls
