#ifndef IFLS_INDEX_KERNELS_KERNEL_TABLE_H_
#define IFLS_INDEX_KERNELS_KERNEL_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ifls {
namespace kernels {
namespace internal {

/// One immutable function table per backend. Each backend's translation
/// unit (minplus_<isa>.cc, compiled with that ISA's per-file -m<isa> flag)
/// defines exactly one of the Get*KernelTable() factories below;
/// dispatch.cc picks one of them once, by cpuid.
///
/// Every entry implements the same bit-identity contract as the scalar
/// reference in minplus_scalar.cc: left-associated sums, min returns an
/// operand, argmin ties to the lowest index. See minplus_kernels.h.
struct KernelTable {
  const char* name;
  double (*min_plus_join)(const double*, const std::int32_t*, std::size_t,
                          const double*, const std::int32_t*, std::size_t,
                          const double*, std::size_t);
  void (*min_plus_compose)(const double*, const std::int32_t*, std::size_t,
                           const std::int32_t*, std::size_t, const double*,
                           std::size_t, double*);
  double (*min_plus_gather)(double, const double*, const std::int32_t*,
                            std::size_t);
  double (*min_plus_gather_add)(double, const double*, const std::int32_t*,
                                const double*, std::size_t);
  double (*min_plus_pairwise)(const double*, const double*, std::size_t);
  std::size_t (*min_plus_argmin)(double, const double*, std::size_t);
  void (*gather_cells)(const double*, const std::int32_t*, std::size_t,
                       double*);
};

/// Always present: the portable reference backend.
const KernelTable* GetScalarKernelTable();

#if defined(__x86_64__)
const KernelTable* GetAvx2KernelTable();
const KernelTable* GetAvx512KernelTable();
#endif

/// Every table this CPU can run, scalar (the reference) first, then in
/// ascending lane width. The last entry is the one dispatch selects. Tests
/// call the tables directly instead of swapping the live one.
std::vector<const KernelTable*> SupportedKernelTables();

}  // namespace internal
}  // namespace kernels
}  // namespace ifls

#endif  // IFLS_INDEX_KERNELS_KERNEL_TABLE_H_
