// Equivalence suite for the min-plus kernels: the scalar reference loops
// are the specification, and every SIMD backend (avx2 / avx512) must
// reproduce them bit for bit — EXPECT_EQ on doubles throughout, never
// EXPECT_NEAR. Each case calls every table this CPU can run directly
// (internal::SupportedKernelTables), so one run covers every backend the
// machine supports without touching the live dispatch.

#include "src/index/minplus_kernels.h"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/index/kernels/kernel_table.h"

namespace ifls {
namespace kernels {
namespace {

using internal::KernelTable;

constexpr double kInf = std::numeric_limits<double>::infinity();

const std::vector<const KernelTable*>& Tables() {
  static const std::vector<const KernelTable*> tables =
      internal::SupportedKernelTables();
  return tables;
}

/// Runs `fn(table)` on every supported table and returns the results in
/// Tables() order (scalar — the reference — is always index 0).
template <typename Fn>
auto AllTables(Fn&& fn) {
  std::vector<decltype(fn(*Tables()[0]))> results;
  for (const KernelTable* table : Tables()) results.push_back(fn(*table));
  return results;
}

/// EXPECT_EQ of every backend's result against the scalar reference.
template <typename T>
void ExpectAllTablesEqual(const std::vector<T>& results,
                          const std::string& what) {
  ASSERT_EQ(results.size(), Tables().size());
  for (std::size_t t = 1; t < results.size(); ++t) {
    EXPECT_EQ(results[0], results[t])
        << what << ": backend " << Tables()[t]->name
        << " diverged from scalar";
  }
}

struct RandomInstance {
  std::vector<double> matrix;  // rows x stride, row-major
  std::size_t stride = 0;
  std::vector<std::int32_t> row_idx;
  std::vector<std::int32_t> col_idx;
  std::vector<double> a;  // aligned with row_idx
  std::vector<double> b;  // aligned with col_idx
};

/// Random door-matrix-shaped instance: distances in [0, 1000], a sprinkle
/// of +inf cells (disconnected components), duplicated indices (access
/// doors repeat across levels) and coarse quantization on request (exact
/// ties across lanes).
RandomInstance MakeInstance(Rng& rng, std::size_t matrix_dim, std::size_t nr,
                            std::size_t nc, bool quantized = false) {
  RandomInstance inst;
  inst.stride = matrix_dim;
  inst.matrix.resize(matrix_dim * matrix_dim);
  for (double& v : inst.matrix) {
    v = quantized ? static_cast<double>(rng.NextInt(0, 8)) * 0.5
                  : rng.NextUniform(0.0, 1000.0);
    if (rng.NextUniform(0.0, 1.0) < 0.05) v = kInf;
  }
  const auto rand_idx = [&] {
    return static_cast<std::int32_t>(
        rng.NextInt(0, static_cast<int>(matrix_dim) - 1));
  };
  inst.row_idx.resize(nr);
  inst.col_idx.resize(nc);
  for (auto& r : inst.row_idx) r = rand_idx();
  for (auto& c : inst.col_idx) c = rand_idx();
  inst.a.resize(nr);
  inst.b.resize(nc);
  for (double& v : inst.a) {
    v = quantized ? static_cast<double>(rng.NextInt(0, 4)) * 0.25
                  : rng.NextUniform(0.0, 500.0);
    if (rng.NextUniform(0.0, 1.0) < 0.05) v = kInf;
  }
  for (double& v : inst.b) {
    v = quantized ? static_cast<double>(rng.NextInt(0, 4)) * 0.25
                  : rng.NextUniform(0.0, 500.0);
  }
  return inst;
}

// Sizes straddle every lane-block boundary (4 for avx2, 8 for avx512):
// empty, tiny, each remainder class mod 8, and a couple of larger shapes.
const std::size_t kSizes[] = {0u, 1u,  2u,  3u,  4u,  5u,  6u, 7u,
                              8u, 9u,  13u, 16u, 17u, 33u, 64u};

TEST(MinPlusKernelsTest, ActiveKernelIsBestTierTheCpuReports) {
  const char* expected = "scalar";
  std::size_t num_tables = 1;
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) {
    expected = "avx2";
    ++num_tables;
  }
  if (__builtin_cpu_supports("avx512f")) {
    expected = "avx512";
    ++num_tables;
  }
#endif
  EXPECT_STREQ(ActiveKernelName(), expected);
  ASSERT_EQ(Tables().size(), num_tables);
  EXPECT_STREQ(Tables().front()->name, "scalar");
  EXPECT_STREQ(Tables().back()->name, expected);
}

TEST(MinPlusKernelsTest, JoinBitIdenticalAcrossTiers) {
  Rng rng(20260806);
  for (const std::size_t nr : {0u, 1u, 3u, 4u, 5u, 8u, 17u}) {
    for (const std::size_t nc : kSizes) {
      for (int trial = 0; trial < 4; ++trial) {
        const RandomInstance in =
            MakeInstance(rng, 64, nr, nc, /*quantized=*/trial % 2 == 1);
        const auto results = AllTables([&](const KernelTable& k) {
          return k.min_plus_join(in.a.data(), in.row_idx.data(), nr,
                                 in.b.data(), in.col_idx.data(), nc,
                                 in.matrix.data(), in.stride);
        });
        ExpectAllTablesEqual(results, "join nr=" + std::to_string(nr) +
                                          " nc=" + std::to_string(nc));
        if (nr == 0 || nc == 0) {
          EXPECT_EQ(results[0], kInf);
        }
      }
    }
  }
}

TEST(MinPlusKernelsTest, ComposeBitIdenticalAcrossTiers) {
  Rng rng(20260807);
  for (const std::size_t nr : {0u, 1u, 4u, 9u}) {
    for (const std::size_t nc : kSizes) {
      const RandomInstance in = MakeInstance(rng, 48, nr, nc);
      const auto results = AllTables([&](const KernelTable& k) {
        std::vector<double> out(nc, -1.0);
        k.min_plus_compose(in.a.data(), in.row_idx.data(), nr,
                           in.col_idx.data(), nc, in.matrix.data(), in.stride,
                           out.data());
        return out;
      });
      ExpectAllTablesEqual(results, "compose nr=" + std::to_string(nr) +
                                        " nc=" + std::to_string(nc));
      if (nr == 0) {
        for (const double v : results[0]) EXPECT_EQ(v, kInf);
      }
    }
  }
}

TEST(MinPlusKernelsTest, GatherFamilyBitIdenticalAcrossTiers) {
  Rng rng(20260808);
  for (const std::size_t n : kSizes) {
    for (int trial = 0; trial < 4; ++trial) {
      const RandomInstance in =
          MakeInstance(rng, 128, n, n, /*quantized=*/trial % 2 == 1);
      const double s0 = rng.NextUniform(0.0, 100.0);
      const double* row = in.matrix.data();  // any row works
      const std::string suffix = " n=" + std::to_string(n);
      ExpectAllTablesEqual(AllTables([&](const KernelTable& k) {
        return k.min_plus_gather(s0, row, in.col_idx.data(), n);
      }), "gather" + suffix);
      ExpectAllTablesEqual(AllTables([&](const KernelTable& k) {
        return k.min_plus_gather_add(s0, row, in.col_idx.data(), in.b.data(),
                                     n);
      }), "gather_add" + suffix);
      ExpectAllTablesEqual(AllTables([&](const KernelTable& k) {
        return k.min_plus_pairwise(in.a.data(), in.b.data(), n);
      }), "pairwise" + suffix);
      ExpectAllTablesEqual(AllTables([&](const KernelTable& k) {
        std::vector<double> out(n, -1.0);
        k.gather_cells(row, in.col_idx.data(), n, out.data());
        return out;
      }), "gather_cells" + suffix);
    }
  }
}

TEST(MinPlusKernelsTest, ArgminBitIdenticalAndLowestIndexTieBreak) {
  Rng rng(20260809);
  for (const std::size_t n : {1u, 2u, 4u, 5u, 8u, 9u, 16u, 32u, 77u}) {
    for (int trial = 0; trial < 16; ++trial) {
      std::vector<double> row(n);
      for (double& v : row) {
        // Coarse quantization to force plenty of exact ties.
        v = static_cast<double>(rng.NextInt(0, 8)) * 0.5;
      }
      const double s0 = rng.NextUniform(0.0, 4.0);
      const auto results = AllTables([&](const KernelTable& k) {
        return k.min_plus_argmin(s0, row.data(), n);
      });
      ExpectAllTablesEqual(results, "argmin n=" + std::to_string(n));
      // Lowest-index contract, checked against a fresh scan.
      double best = kInf;
      std::size_t best_k = 0;
      for (std::size_t k = 0; k < n; ++k) {
        if (s0 + row[k] < best) {
          best = s0 + row[k];
          best_k = k;
        }
      }
      EXPECT_EQ(results[0], best_k);
    }
  }
}

TEST(MinPlusKernelsTest, ArgminAllInfinityReturnsIndexZero) {
  std::vector<double> row(11, kInf);
  const auto results = AllTables([&](const KernelTable& k) {
    return k.min_plus_argmin(3.0, row.data(), row.size());
  });
  for (const std::size_t k : results) EXPECT_EQ(k, 0u);
}

TEST(MinPlusKernelsTest, InfinityRowsNeverBeatFiniteCandidates) {
  // The DoorToDoor caller dropped its dist_a[i] == inf skip when moving to
  // the kernel; this is the property that makes the drop safe.
  const std::vector<double> a = {kInf, 2.0};
  const std::vector<double> b = {1.0, kInf};
  const std::vector<std::int32_t> rows = {0, 1};
  const std::vector<std::int32_t> cols = {0, 1};
  const std::vector<double> m = {0.5, kInf, 1.5, 2.5};  // 2x2, stride 2
  const auto results = AllTables([&](const KernelTable& k) {
    return k.min_plus_join(a.data(), rows.data(), 2, b.data(), cols.data(), 2,
                           m.data(), 2);
  });
  ExpectAllTablesEqual(results, "inf-join");
  EXPECT_EQ(results[0], (2.0 + 1.5) + 1.0);
  // The public entry point runs the dispatched table and agrees.
  EXPECT_EQ(MinPlusJoin(a.data(), rows.data(), 2, b.data(), cols.data(), 2,
                        m.data(), 2),
            results[0]);
}

}  // namespace
}  // namespace kernels
}  // namespace ifls
