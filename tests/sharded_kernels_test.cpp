// Intra-kernel sharding tests.  The load-bearing property is the
// determinism contract of kernels/detail.hpp: the shard decomposition
// is a function of the work size alone, so one SpMM run produces
// bit-identical C and bit-identical simulated metrics at every
// --jobs value, in both memory modes, for every kernel family.
//
// The small ShardedKernels.* cases run under the tsan preset (data-race
// coverage of the shard fan-out); the KernelShardingSweep.* cases are
// the exhaustive 9-kernel × mode × jobs matrix on a large-enough
// matrix that every family actually splits into multiple shards.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <initializer_list>

#include "kernels/detail.hpp"
#include "kernels/spmm.hpp"
#include "formats/retype.hpp"
#include "matgen/generators.hpp"
#include "util/rng.hpp"

namespace nmdt {
namespace {

constexpr KernelKind kAllKernels[] = {
    KernelKind::kCsrCStationaryRowWarp,  KernelKind::kCsrCStationaryRowThread,
    KernelKind::kDcsrCStationary,        KernelKind::kTiledCsrBStationary,
    KernelKind::kTiledDcsrBStationary,   KernelKind::kTiledDcsrOnline,
    KernelKind::kAStationary,            KernelKind::kMergeCStationary,
    KernelKind::kHongHybrid,
};

void expect_bitwise_equal(const DenseMatrix& x, const DenseMatrix& y) {
  ASSERT_EQ(x.rows(), y.rows());
  ASSERT_EQ(x.cols(), y.cols());
  const auto xs = x.data();
  const auto ys = y.data();
  i64 mismatches = 0;
  for (usize i = 0; i < xs.size(); ++i) mismatches += xs[i] != ys[i] ? 1 : 0;
  EXPECT_EQ(mismatches, 0);
}

/// Every observable of an SpMM run, compared exactly.
void expect_identical(const SpmmResult& a, const SpmmResult& b) {
  expect_bitwise_equal(a.C, b.C);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.mem, b.mem);
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.engine_busy_ns, b.engine_busy_ns);
  EXPECT_EQ(a.offline_prep_ns, b.offline_prep_ns);
  EXPECT_EQ(a.timing.total_ns, b.timing.total_ns);
}

DenseMatrix random_b(index_t rows, index_t cols, u64 seed) {
  Rng rng(seed);
  DenseMatrix B(rows, cols);
  B.randomize(rng);
  return B;
}

// ---------------------------------------------------------------------
// Decomposition units.
// ---------------------------------------------------------------------

TEST(ShardedKernels, ShardCountDependsOnWorkSizeOnly) {
  using detail::kMaxKernelShards;
  using detail::shard_count;
  EXPECT_EQ(shard_count(0, 16), 1);
  EXPECT_EQ(shard_count(1, 16), 1);
  EXPECT_EQ(shard_count(15, 16), 1);
  EXPECT_EQ(shard_count(16, 16), 1);
  EXPECT_EQ(shard_count(32, 16), 2);
  EXPECT_EQ(shard_count(33, 16), 2);
  EXPECT_EQ(shard_count(16 * kMaxKernelShards, 16), kMaxKernelShards);
  EXPECT_EQ(shard_count(1 << 20, 16), kMaxKernelShards);  // clamped
}

TEST(ShardedKernels, ShardRangesPartitionTheWork) {
  using detail::shard_count;
  using detail::shard_range;
  for (i64 items : {1, 16, 33, 100, 4097}) {
    const int n = shard_count(items, 16);
    i64 covered = 0;
    for (int s = 0; s < n; ++s) {
      const auto r = shard_range(items, n, s);
      EXPECT_EQ(r.begin, covered) << "gap before shard " << s;
      EXPECT_LE(r.end - r.begin, (items + n - 1) / n + 1);
      covered = r.end;
    }
    EXPECT_EQ(covered, items);
  }
}

// ---------------------------------------------------------------------
// Race coverage (runs under the tsan preset): a multi-shard matrix at
// jobs 4, checked against the serial run.  2048 columns split the
// strip-sharded kernels into 2 shards and 2048 rows give the parallel
// partial-C reduction 16 row blocks, so the jobs = 4 run also races
// the reduction's workers.
// ---------------------------------------------------------------------

TEST(ShardedKernels, CountingRunIsIdenticalAtAnyJobCount) {
  const Csr A = gen_uniform(2048, 2048, 0.002, 7);
  const DenseMatrix B = random_b(2048, 32, 11);
  for (KernelKind kind : {KernelKind::kCsrCStationaryRowWarp,
                          KernelKind::kTiledDcsrBStationary,
                          KernelKind::kTiledDcsrOnline}) {
    SpmmConfig cfg;
    cfg.jobs = 1;
    const SpmmResult serial = run_spmm(kind, A, B, cfg);
    cfg.jobs = 4;
    const SpmmResult parallel = run_spmm(kind, A, B, cfg);
    SCOPED_TRACE(kernel_name(kind));
    expect_identical(serial, parallel);
  }
}

// ---------------------------------------------------------------------
// Compact partial C.  The strip-sharded kernels keep, per shard, only
// the C rows the shard's strips touch; C must equal bit for bit a
// test-local reduction of full-height per-shard partials summed in
// shard order, at every precision, in both memory modes.
// ---------------------------------------------------------------------

constexpr KernelKind kStripShardedKernels[] = {
    KernelKind::kTiledCsrBStationary,
    KernelKind::kTiledDcsrBStationary,
    KernelKind::kTiledDcsrOnline,
    KernelKind::kAStationary,
};

/// Full-height partials, one per shard of the kernels' strip split: each
/// starts at +0.0 and takes the shard's non-zeros in column order (the
/// kernels' strips-ascending order), then shards are summed in index
/// order.  Returned through store_result_c, as the kernels return C.
template <class V>
SpmmResult dense_partial_reduction(const CsrT<V>& A, const DenseMatrixT<V>& B,
                                   index_t strip_width) {
  using CT = typename VTraits<V>::compute_t;
  const i64 strips = (A.cols + strip_width - 1) / strip_width;
  const int shards = detail::shard_count(strips, detail::kStripGrain);
  DenseMatrixT<CT> sum;
  for (int s = 0; s < shards; ++s) {
    const detail::ShardRange range = detail::shard_range(strips, shards, s);
    DenseMatrixT<CT> part(A.rows, B.cols(), CT{});
    for (index_t r = 0; r < A.rows; ++r) {
      for (index_t j = A.row_ptr[r]; j < A.row_ptr[r + 1]; ++j) {
        const i64 strip = A.col_idx[j] / strip_width;
        if (strip < range.begin || strip >= range.end) continue;
        detail::axpy_row(A.val[j], B.row(A.col_idx[j]).data(), part.row(r).data(), B.cols());
      }
    }
    if (s == 0) {
      sum = std::move(part);
      continue;
    }
    for (usize i = 0; i < sum.data().size(); ++i) sum.data()[i] += part.data()[i];
  }
  SpmmResult out;
  detail::store_result_c<V>(out, std::move(sum));
  return out;
}

template <class T>
bool same_bits(const DenseMatrixT<T>& x, const DenseMatrixT<T>& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  return x.data().empty() ||  // memcmp must not see the null data of an empty C64
         std::memcmp(x.data().data(), y.data().data(), x.data().size() * sizeof(T)) == 0;
}

/// Every strip-sharded kernel × f32/f64/bf16 × counting/cache-sim at
/// jobs 4 against the dense reduction; `check` sees each C.
template <class Check>
void expect_matches_dense_reduction(const Csr& A32, const DenseMatrix& B32, Check&& check) {
  const auto run_all = [&]<class V>(V) {
    const CsrT<V> A = retype<V>(A32);
    const DenseMatrixT<V> B = retype<V>(B32);
    for (bool cache_sim : {false, true}) {
      SpmmConfig cfg = cache_sim ? evaluation_config(A.cols, B.cols()) : SpmmConfig{};
      cfg.jobs = 4;
      const SpmmResult want = dense_partial_reduction(A, B, cfg.tiling.strip_width);
      for (KernelKind kind : kStripShardedKernels) {
        SCOPED_TRACE(std::string(kernel_name(kind)) + " " + precision_name(VTraits<V>::kPrecision) +
                     (cache_sim ? " cache-sim" : " counting"));
        const SpmmResult got =
            run_spmm_t<V>(kind, operands_for(kind, A, cfg.tiling).bundle(), B, cfg);
        EXPECT_TRUE(same_bits(got.C, want.C));
        EXPECT_TRUE(same_bits(got.C64, want.C64));
        check(got.C);
      }
    }
  };
  run_all(float{});
  run_all(double{});
  run_all(bf16_t{});
}

value_t random_value(Rng& rng) { return static_cast<value_t>(rng.uniform(-1.0, 1.0)); }

/// CSR from per-row (column, value) lists.
Csr csr_of(index_t rows, index_t cols,
           const std::vector<std::vector<std::pair<index_t, value_t>>>& entries) {
  Csr A;
  A.rows = rows;
  A.cols = cols;
  A.row_ptr.push_back(0);
  for (const auto& row : entries) {
    for (const auto& [c, v] : row) {
      A.col_idx.push_back(c);
      A.val.push_back(v);
    }
    A.row_ptr.push_back(static_cast<index_t>(A.col_idx.size()));
  }
  A.validate();
  return A;
}

TEST(ShardedKernels, CompactPartialCMatchesDenseReductionWithEmptyAndFullShards) {
  // 4096 columns → 64 strips → 4 shards of 1024 columns.  Shard 0
  // touches every row, shard 1 none, shards 2 and 3 a random subset.
  constexpr index_t kRows = 192;
  Rng rng(29);
  std::vector<std::vector<std::pair<index_t, value_t>>> entries(kRows);
  for (index_t r = 0; r < kRows; ++r) {
    entries[r].push_back({static_cast<index_t>(rng.below(1024)), random_value(rng)});
    for (index_t c = 2048; c < 4096; ++c) {
      if (rng.chance(0.002)) entries[r].push_back({c, random_value(rng)});
    }
  }
  const Csr A = csr_of(kRows, 4096, entries);
  ASSERT_EQ(detail::shard_count(64, detail::kStripGrain), 4);
  expect_matches_dense_reduction(A, random_b(4096, 24, 31), [](const DenseMatrix&) {});
}

TEST(ShardedKernels, CompactPartialCKeepsPositiveZeroWhereAShardSkipsTheRow) {
  // 2048 columns → 2 shards.  Rows 0-2 receive only −0.0 products
  // (A = −0.0, B = 1.0): row 0 from shard 1 alone, row 1 from shard 0
  // alone, row 2 from both; row 3 from none.  A partial starts at +0.0,
  // so every one of them sums to +0.0, as full-height partials did.
  constexpr index_t kRows = 160;
  Rng rng(37);
  std::vector<std::vector<std::pair<index_t, value_t>>> entries(kRows);
  entries[0] = {{1500, -0.0f}, {1900, -0.0f}};
  entries[1] = {{10, -0.0f}};
  entries[2] = {{20, -0.0f}, {1200, -0.0f}};
  for (index_t r = 4; r < kRows; ++r) {
    for (index_t c = 0; c < 2048; c += 1 + static_cast<index_t>(rng.below(400))) {
      entries[r].push_back({c, random_value(rng)});
    }
  }
  const Csr A = csr_of(kRows, 2048, entries);
  DenseMatrix B = random_b(2048, 16, 41);
  for (index_t c : {10, 20, 1200, 1500, 1900}) {
    for (auto& b : B.row(c)) b = 1.0f;
  }
  expect_matches_dense_reduction(A, B, [](const DenseMatrix& C) {
    for (index_t r = 0; r < 4; ++r) {
      for (const value_t v : C.row(r)) {
        EXPECT_EQ(v, 0.0f) << "row " << r;
        EXPECT_FALSE(std::signbit(v)) << "row " << r;
      }
    }
  });
}

// ---------------------------------------------------------------------
// The exhaustive sweep: every kernel family, both memory modes, on a
// matrix large enough that every family's work axis splits into
// multiple shards (4096 cols → 64 strips → 4 shards; 4096 rows → 128
// warp groups → 4 shards; ~4k dense rows → 4 merge shards).
// ---------------------------------------------------------------------

const Csr& sweep_matrix() {
  static const Csr A = gen_uniform(4096, 4096, 0.002, 13);
  return A;
}

const DenseMatrix& sweep_b() {
  static const DenseMatrix B = random_b(4096, 32, 17);
  return B;
}

class KernelShardingSweep : public ::testing::TestWithParam<KernelKind> {};

TEST_P(KernelShardingSweep, CountingModeIdenticalAcrossJobs) {
  SpmmConfig cfg;
  cfg.jobs = 1;
  const SpmmResult serial = run_spmm(GetParam(), sweep_matrix(), sweep_b(), cfg);
  cfg.jobs = 4;
  const SpmmResult parallel = run_spmm(GetParam(), sweep_matrix(), sweep_b(), cfg);
  expect_identical(serial, parallel);
}

TEST_P(KernelShardingSweep, CacheSimModeIdenticalAcrossJobs) {
  SpmmConfig cfg = evaluation_config(4096, 32);
  cfg.jobs = 1;
  const SpmmResult serial = run_spmm(GetParam(), sweep_matrix(), sweep_b(), cfg);
  cfg.jobs = 4;
  const SpmmResult parallel = run_spmm(GetParam(), sweep_matrix(), sweep_b(), cfg);
  expect_identical(serial, parallel);
}

TEST_P(KernelShardingSweep, TraversalOrderDoesNotChangeC) {
  // Per C element the contribution order is strips-ascending under
  // either traversal, so even the B-stationary families produce
  // bit-identical output (the traversal changes locality, not math).
  SpmmConfig cfg;
  cfg.jobs = 2;
  cfg.traversal = TraversalOrder::kColumnMajor;
  const SpmmResult col = run_spmm(GetParam(), sweep_matrix(), sweep_b(), cfg);
  cfg.traversal = TraversalOrder::kRowMajor;
  const SpmmResult row = run_spmm(GetParam(), sweep_matrix(), sweep_b(), cfg);
  expect_bitwise_equal(col.C, row.C);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelShardingSweep, ::testing::ValuesIn(kAllKernels),
                         [](const ::testing::TestParamInfo<KernelKind>& param) {
                           return std::string(kernel_name(param.param));
                         });

}  // namespace
}  // namespace nmdt
