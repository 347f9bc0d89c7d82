// Portable scalar reference backend. These loops ARE the specification:
// every SIMD backend must reproduce them bit for bit (same left-associated
// sums, min picks an operand, argmin ties to the lowest index). Compiled
// with the project's baseline flags — no ISA extensions — so this table is
// runnable on any CPU the binary loads on.

#include <limits>

#include "src/index/kernels/kernel_table.h"

namespace ifls {
namespace kernels {
namespace internal {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double MinPlusJoin(const double* a, const std::int32_t* rows, std::size_t nr,
                   const double* b, const std::int32_t* cols, std::size_t nc,
                   const double* m, std::size_t stride) {
  double best = kInf;
  for (std::size_t i = 0; i < nr; ++i) {
    const double ai = a[i];
    const double* row = m + static_cast<std::size_t>(rows[i]) * stride;
    for (std::size_t j = 0; j < nc; ++j) {
      const double cand = (ai + row[cols[j]]) + b[j];
      if (cand < best) best = cand;
    }
  }
  return best;
}

void MinPlusCompose(const double* a, const std::int32_t* rows, std::size_t nr,
                    const std::int32_t* cols, std::size_t nc, const double* m,
                    std::size_t stride, double* out) {
  for (std::size_t j = 0; j < nc; ++j) out[j] = kInf;
  for (std::size_t i = 0; i < nr; ++i) {
    const double ai = a[i];
    const double* row = m + static_cast<std::size_t>(rows[i]) * stride;
    for (std::size_t j = 0; j < nc; ++j) {
      const double cand = ai + row[cols[j]];
      if (cand < out[j]) out[j] = cand;
    }
  }
}

double MinPlusGather(double s, const double* row, const std::int32_t* idx,
                     std::size_t n) {
  double best = kInf;
  for (std::size_t j = 0; j < n; ++j) {
    const double cand = s + row[idx[j]];
    if (cand < best) best = cand;
  }
  return best;
}

double MinPlusGatherAdd(double s, const double* row, const std::int32_t* idx,
                        const double* b, std::size_t n) {
  double best = kInf;
  for (std::size_t j = 0; j < n; ++j) {
    const double cand = (s + row[idx[j]]) + b[j];
    if (cand < best) best = cand;
  }
  return best;
}

double MinPlusPairwise(const double* a, const double* b, std::size_t n) {
  double best = kInf;
  for (std::size_t k = 0; k < n; ++k) {
    const double cand = a[k] + b[k];
    if (cand < best) best = cand;
  }
  return best;
}

std::size_t MinPlusArgmin(double s, const double* row, std::size_t n) {
  std::size_t best_k = 0;
  double best = s + row[0];
  for (std::size_t k = 1; k < n; ++k) {
    const double cand = s + row[k];
    if (cand < best) {
      best = cand;
      best_k = k;
    }
  }
  return best_k;
}

void GatherCells(const double* row, const std::int32_t* idx, std::size_t n,
                 double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = row[idx[i]];
}

constexpr KernelTable kTable = {
    "scalar",        MinPlusJoin,   MinPlusCompose, MinPlusGather,
    MinPlusGatherAdd, MinPlusPairwise, MinPlusArgmin, GatherCells,
};

}  // namespace

const KernelTable* GetScalarKernelTable() { return &kTable; }

}  // namespace internal
}  // namespace kernels
}  // namespace ifls
