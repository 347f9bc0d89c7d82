// Runtime dispatch for the min-plus kernels: one immutable function table
// per backend (kernel_table.h), chosen once at first use by cpuid —
// avx512f, else avx2, else the scalar reference. Nothing a user sets can
// change the choice; every backend is bit-identical to scalar, so the
// choice only moves time, never an answer.
//
// The selected backend is logged once, published as the
// ifls_kernel_backend info metric and stamped into the trace exporter's
// metadata block; the bench envelope (src/benchlib/json_report) and the
// cost ledger read ActiveKernelName() directly.

#include <string>

#include "src/common/logging.h"
#include "src/common/metrics_registry.h"
#include "src/common/trace.h"
#include "src/index/kernels/kernel_table.h"
#include "src/index/minplus_kernels.h"

namespace ifls {
namespace kernels {

namespace internal {

std::vector<const KernelTable*> SupportedKernelTables() {
  std::vector<const KernelTable*> tables = {GetScalarKernelTable()};
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) tables.push_back(GetAvx2KernelTable());
  if (__builtin_cpu_supports("avx512f")) {
    tables.push_back(GetAvx512KernelTable());
  }
#endif
  return tables;
}

}  // namespace internal

namespace {

using internal::KernelTable;

/// The one-time choice: the widest table this CPU runs, published where
/// the backend is surfaced.
const KernelTable& SelectTable() {
  const KernelTable* best = internal::SupportedKernelTables().back();
  MetricsRegistry::Global()
      .GetGauge("ifls_kernel_backend",
                std::string("tier=\"") + best->name + "\"")
      ->Set(1.0);
  TraceRecorder::Global().SetMetadata("kernel_backend", best->name);
  IFLS_LOG(INFO) << "min-plus kernel dispatch: tier=" << best->name;
  return *best;
}

/// Kept small so it inlines into every entry point: after the first call
/// it is one guard check and one load.
inline const KernelTable& Active() {
  static const KernelTable& table = SelectTable();
  return table;
}

}  // namespace

const char* ActiveKernelName() { return Active().name; }

double MinPlusJoin(const double* a, const std::int32_t* rows, std::size_t nr,
                   const double* b, const std::int32_t* cols, std::size_t nc,
                   const double* m, std::size_t stride) {
  return Active().min_plus_join(a, rows, nr, b, cols, nc, m, stride);
}

void MinPlusCompose(const double* a, const std::int32_t* rows, std::size_t nr,
                    const std::int32_t* cols, std::size_t nc, const double* m,
                    std::size_t stride, double* out) {
  Active().min_plus_compose(a, rows, nr, cols, nc, m, stride, out);
}

double MinPlusGather(double s, const double* row, const std::int32_t* idx,
                     std::size_t n) {
  return Active().min_plus_gather(s, row, idx, n);
}

double MinPlusGatherAdd(double s, const double* row, const std::int32_t* idx,
                        const double* b, std::size_t n) {
  return Active().min_plus_gather_add(s, row, idx, b, n);
}

double MinPlusPairwise(const double* a, const double* b, std::size_t n) {
  return Active().min_plus_pairwise(a, b, n);
}

std::size_t MinPlusArgmin(double s, const double* row, std::size_t n) {
  return Active().min_plus_argmin(s, row, n);
}

void GatherCells(const double* row, const std::int32_t* idx, std::size_t n,
                 double* out) {
  Active().gather_cells(row, idx, n, out);
}

}  // namespace kernels
}  // namespace ifls
