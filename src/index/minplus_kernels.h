#ifndef IFLS_INDEX_MINPLUS_KERNELS_H_
#define IFLS_INDEX_MINPLUS_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace ifls {
namespace kernels {

/// Every IFLS objective bottoms out in min-plus reductions over VIP-tree
/// door matrices: min_k (src[k] + M[k][j] + dst[j]) and friends, executed
/// millions of times per workload directly on the arena-resident matrix
/// spans. This family implements those reductions as blocked, contiguous
/// kernels with three backends, one translation unit each
/// (src/index/kernels/):
///
///  * scalar    — portable reference, always compiled, the only backend
///                off x86-64;
///  * avx2      — 4-lane __m256d blocks with vgatherdpd (-mavx2);
///  * avx512    — 8-lane __m512d blocks (-mavx512f).
///
/// On x86-64 both SIMD translation units are compiled with their own
/// per-file ISA flag (no global -m<isa>; the rest of the binary keeps the
/// baseline ISA and still runs anywhere). At first use one cpuid check
/// (__builtin_cpu_supports) picks avx512, else avx2, else scalar, for the
/// life of the process. There is no knob: every backend is bit-identical.
///
/// Bit-identity contract: every backend produces bit-identical doubles. The
/// candidate terms are the exact same IEEE expressions — left-associated
/// sums like (a[i] + m) + b[j], no FMA contraction, no reassociation — and
/// the reduction operator `min` always returns one of its operands, so the
/// reduction order (scalar loop vs 4/8-lane tree) cannot change a single
/// bit. Argmin kernels additionally pin the tie-break: lowest index
/// attaining the minimal sum wins, matching the reference `cand < best`
/// loops. tests/minplus_kernels_test.cc checks both properties for every
/// backend the running CPU supports.

/// Name of the backend dispatch selected: "scalar", "avx2" or "avx512".
/// Bench envelopes, the cost ledger's tier label, the ifls_kernel_backend
/// metric and trace metadata all carry it.
const char* ActiveKernelName();

// ---------------------------------------------------------------------------
// Kernels. All matrices are row-major with a fixed row stride; `rows`/`cols`
// are int32 index lists selecting matrix rows/columns (the arena layout's
// access-door index maps are exactly that). Empty inputs reduce to
// +infinity / are no-ops.
// ---------------------------------------------------------------------------

/// Row+matrix+col join (the DoorToDoor LCA composition):
///   min over i,j of (a[i] + m[rows[i]*stride + cols[j]]) + b[j].
double MinPlusJoin(const double* a, const std::int32_t* rows, std::size_t nr,
                   const double* b, const std::int32_t* cols, std::size_t nc,
                   const double* m, std::size_t stride);

/// Fold distances through a matrix (IP-mode chain composition):
///   out[j] = min over i of a[i] + m[rows[i]*stride + cols[j]].
void MinPlusCompose(const double* a, const std::int32_t* rows, std::size_t nr,
                    const std::int32_t* cols, std::size_t nc, const double* m,
                    std::size_t stride, double* out);

/// Scalar-source gather reduce: min over j of s + row[idx[j]].
double MinPlusGather(double s, const double* row, const std::int32_t* idx,
                     std::size_t n);

/// Scalar-source gather join: min over j of (s + row[idx[j]]) + b[j].
double MinPlusGatherAdd(double s, const double* row, const std::int32_t* idx,
                        const double* b, std::size_t n);

/// Batched pairwise reduce (many-clients-one-candidate):
///   min over k of a[k] + b[k].
double MinPlusPairwise(const double* a, const double* b, std::size_t n);

/// First-hop extraction: the lowest index k attaining
///   min over k of s + row[k].
/// Precondition: n > 0. Ties resolve to the lowest index, matching the
/// reference `cand < best` scan.
std::size_t MinPlusArgmin(double s, const double* row, std::size_t n);

/// out[i] = row[idx[i]] (row extraction by access-door index map).
void GatherCells(const double* row, const std::int32_t* idx, std::size_t n,
                 double* out);

}  // namespace kernels
}  // namespace ifls

#endif  // IFLS_INDEX_MINPLUS_KERNELS_H_
