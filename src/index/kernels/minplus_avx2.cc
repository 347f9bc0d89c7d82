// AVX2 backend: 4-lane __m256d blocked reductions, scalar tails. Gathers
// use vgatherdpd over the int32 index lists exactly as laid out in the
// arenas. This translation unit is compiled with a per-file -mavx2
// (src/CMakeLists.txt) and only dispatched to when
// __builtin_cpu_supports("avx2") holds.
//
// Gathers use the masked form with an explicit zero source and an all-ones
// mask: the unmasked _mm256_i32gather_pd passes an undefined pass-through
// operand that g++ -O3 -Wall reports as maybe-uninitialized. Every lane is
// loaded either way, so the result is the same.
//
// Bit-identity: every candidate is the same left-associated IEEE sum as the
// scalar reference, _mm256_min_pd returns one of its operands, and the
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

/// Below one 4-lane block the vector main loops do no work and the
/// broadcast/horizontal-fold overhead makes this backend slower than the
/// reference, so such calls defer to the scalar table (bit-identical by
/// construction — it IS the reference).
inline const KernelTable& Scalar() { return *GetScalarKernelTable(); }

/// row[vidx[l]] for the 4 lanes.
inline __m256d Gather(const double* row, __m128i vidx) {
  const __m256d all_lanes = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), row, vidx, all_lanes,
                                  8);
}

/// min over the 4 lanes, folded against `tail` (value-exact: every operand
/// is one of the candidate sums, so picking between equals is bit-neutral).
inline double HorizontalMin(__m256d acc, double tail) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double best = tail;
  for (int l = 0; l < 4; ++l) {
    if (lanes[l] < best) best = lanes[l];
  }
  return best;
}

double MinPlusJoin(const double* a, const std::int32_t* rows, std::size_t nr,
                   const double* b, const std::int32_t* cols, std::size_t nc,
                   const double* m, std::size_t stride) {
  if (nc < 4) return Scalar().min_plus_join(a, rows, nr, b, cols, nc, m, stride);
  __m256d acc = _mm256_set1_pd(kInf);
  double tail_best = kInf;
  const std::size_t nc4 = nc & ~std::size_t{3};
  for (std::size_t i = 0; i < nr; ++i) {
    const double ai = a[i];
    const double* row = m + static_cast<std::size_t>(rows[i]) * stride;
    const __m256d va = _mm256_set1_pd(ai);
    for (std::size_t j = 0; j < nc4; j += 4) {
      const __m128i vidx =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(cols + j));
      const __m256d g = Gather(row, vidx);
      const __m256d vb = _mm256_loadu_pd(b + j);
      const __m256d cand = _mm256_add_pd(_mm256_add_pd(va, g), vb);
      acc = _mm256_min_pd(acc, cand);
    }
    for (std::size_t j = nc4; j < nc; ++j) {
      const double cand = (ai + row[cols[j]]) + b[j];
      if (cand < tail_best) tail_best = cand;
    }
  }
  return HorizontalMin(acc, tail_best);
}

void MinPlusCompose(const double* a, const std::int32_t* rows, std::size_t nr,
                    const std::int32_t* cols, std::size_t nc, const double* m,
                    std::size_t stride, double* out) {
  if (nc < 4) return Scalar().min_plus_compose(a, rows, nr, cols, nc, m, stride, out);
  const std::size_t nc4 = nc & ~std::size_t{3};
  for (std::size_t j = 0; j < nc4; j += 4) {
    __m256d acc = _mm256_set1_pd(kInf);
    const __m128i vidx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cols + j));
    for (std::size_t i = 0; i < nr; ++i) {
      const double* row = m + static_cast<std::size_t>(rows[i]) * stride;
      const __m256d g = Gather(row, vidx);
      const __m256d cand = _mm256_add_pd(_mm256_set1_pd(a[i]), g);
      acc = _mm256_min_pd(acc, cand);
    }
    _mm256_storeu_pd(out + j, acc);
  }
  for (std::size_t j = nc4; j < nc; ++j) {
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
  if (n < 4) return Scalar().min_plus_gather(s, row, idx, n);
  __m256d acc = _mm256_set1_pd(kInf);
  const __m256d vs = _mm256_set1_pd(s);
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t j = 0; j < n4; j += 4) {
    const __m128i vidx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + j));
    const __m256d g = Gather(row, vidx);
    acc = _mm256_min_pd(acc, _mm256_add_pd(vs, g));
  }
  double tail_best = kInf;
  for (std::size_t j = n4; j < n; ++j) {
    const double cand = s + row[idx[j]];
    if (cand < tail_best) tail_best = cand;
  }
  return HorizontalMin(acc, tail_best);
}

double MinPlusGatherAdd(double s, const double* row, const std::int32_t* idx,
                        const double* b, std::size_t n) {
  if (n < 4) return Scalar().min_plus_gather_add(s, row, idx, b, n);
  __m256d acc = _mm256_set1_pd(kInf);
  const __m256d vs = _mm256_set1_pd(s);
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t j = 0; j < n4; j += 4) {
    const __m128i vidx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + j));
    const __m256d g = Gather(row, vidx);
    const __m256d vb = _mm256_loadu_pd(b + j);
    acc = _mm256_min_pd(acc, _mm256_add_pd(_mm256_add_pd(vs, g), vb));
  }
  double tail_best = kInf;
  for (std::size_t j = n4; j < n; ++j) {
    const double cand = (s + row[idx[j]]) + b[j];
    if (cand < tail_best) tail_best = cand;
  }
  return HorizontalMin(acc, tail_best);
}

double MinPlusPairwise(const double* a, const double* b, std::size_t n) {
  if (n < 4) return Scalar().min_plus_pairwise(a, b, n);
  __m256d acc = _mm256_set1_pd(kInf);
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t k = 0; k < n4; k += 4) {
    const __m256d cand =
        _mm256_add_pd(_mm256_loadu_pd(a + k), _mm256_loadu_pd(b + k));
    acc = _mm256_min_pd(acc, cand);
  }
  double tail_best = kInf;
  for (std::size_t k = n4; k < n; ++k) {
    const double cand = a[k] + b[k];
    if (cand < tail_best) tail_best = cand;
  }
  return HorizontalMin(acc, tail_best);
}

/// Two passes: a vectorized min over the sums, then a scalar scan for the
/// first index attaining it — trivially reproduces the reference tie-break.
std::size_t MinPlusArgmin(double s, const double* row, std::size_t n) {
  if (n < 4) return Scalar().min_plus_argmin(s, row, n);
  __m256d acc = _mm256_set1_pd(kInf);
  const __m256d vs = _mm256_set1_pd(s);
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t k = 0; k < n4; k += 4) {
    acc = _mm256_min_pd(acc, _mm256_add_pd(vs, _mm256_loadu_pd(row + k)));
  }
  double best = kInf;
  for (std::size_t k = n4; k < n; ++k) {
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
  if (n < 4) return Scalar().gather_cells(row, idx, n, out);
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m128i vidx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + i));
    _mm256_storeu_pd(out + i, Gather(row, vidx));
  }
  for (std::size_t i = n4; i < n; ++i) out[i] = row[idx[i]];
}

constexpr KernelTable kTable = {
    "avx2",          MinPlusJoin,   MinPlusCompose, MinPlusGather,
    MinPlusGatherAdd, MinPlusPairwise, MinPlusArgmin, GatherCells,
};

}  // namespace

const KernelTable* GetAvx2KernelTable() { return &kTable; }

}  // namespace internal
}  // namespace kernels
}  // namespace ifls
