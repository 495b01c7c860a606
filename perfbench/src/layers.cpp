#include "layers.hpp"

#include <array>

#include "analysis/profile.hpp"
#include "core/executor.hpp"
#include "formats/convert.hpp"
#include "formats/fingerprint.hpp"
#include "formats/tiling.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"
#include "transform/engine.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace perfbench {

using namespace nmdt;

namespace {

/// The four Fig. 16 arm kernels (cache-sim) and the two kernels the
/// multivector plans pick (counting mode).
constexpr std::array<KernelKind, 4> kArmKernels = {
    KernelKind::kCsrCStationaryRowWarp, KernelKind::kDcsrCStationary,
    KernelKind::kTiledDcsrOnline, KernelKind::kTiledDcsrBStationary};
constexpr std::array<KernelKind, 2> kCountingKernels = {KernelKind::kDcsrCStationary,
                                                        KernelKind::kTiledDcsrOnline};
constexpr std::array<const char*, 3> kFamilies = {"uniform", "powerlaw", "banded"};

// Conversion-engine work done by the probe (probe_one runs on one
// thread).
u64 g_probe_tiles = 0;
u64 g_probe_comparator_ops = 0;

const char* mode_tag(MemMode m) { return m == MemMode::kCacheSim ? "cachesim" : "counting"; }

std::string kernel_key(MemMode mode, KernelKind k, bool jn) {
  return std::string(mode_tag(mode)) + "." + kernel_name(k) + (jn ? ".jN" : ".j1");
}

void run_kernel(const SpmmPlan& plan, const DenseMatrix& B, SpmmConfig cfg, MemMode mode,
                KernelKind kind, int jobs) {
  cfg.mem_mode = mode;
  cfg.jobs = jobs;
  Span sp("kernel", kernel_key(mode, kind, jobs > 1));
  (void)SpmmExecutor(cfg).execute(kind, plan, B);
}

void probe_one(const ProbeMatrix& pm, int threads) {
  Csr A;
  {
    Span sp("matgen.generate", pm.family);
    A = pm.make();
  }
  const TilingSpec tiling = pm.cfg.tiling;
  {
    Span sp("formats.fingerprint");
    (void)fingerprint_of(A);
  }
  {
    Span sp("analysis.profile");
    (void)profile_matrix(A, tiling);
  }
  Csc csc;
  {
    Span sp("formats.convert", "csc_from_csr");
    csc = csc_from_csr(A);
  }
  {
    Span sp("formats.convert", "dcsr_from_csr");
    (void)dcsr_from_csr(A);
  }
  {
    Span sp("formats.convert", "tiled_dcsr_from_csr");
    (void)tiled_dcsr_from_csr(A, tiling);
  }
  {
    Span sp("formats.convert", "tiled_csr_from_csr");
    (void)tiled_csr_from_csr(A, tiling);
  }
  {
    Span sp("formats.convert", "strip_nnz_of");
    (void)strip_nnz_of(A, tiling);
  }
  std::shared_ptr<const SpmmPlan> plan;
  {
    Span sp("plan.build", pm.family);
    plan = build_plan(A, PlanOptions{tiling, default_ssf_threshold(), 1.0, Precision::kF32});
  }

  // The near-memory engine over every strip of the matrix, tile by
  // tile, with the consumption-point integrity check.
  {
    ConversionEngine engine(pm.cfg.engine_hw);
    u64 tiles = 0;
    {
      Span sp("transform.convert_tile", pm.family);
      for (index_t s = 0; s < tiling.num_strips(csc.cols); ++s) {
        StripCursor cursor(csc, s, tiling);
        for (index_t r = 0; r < csc.rows; r += tiling.tile_height) {
          (void)engine.convert_tile_checked(csc, cursor, r, tiling);
          ++tiles;
        }
      }
    }
    g_probe_tiles += tiles;
    g_probe_comparator_ops += engine.stats().comparator_ops;
  }

  Rng rng(pm.b_seed);
  DenseMatrix B(A.cols, pm.k);
  B.randomize(rng);

  // Arithmetic floor: one axpy per stored non-zero over K columns.
  {
    DenseMatrix C(A.rows, pm.k, 0.0f);
    Span sp("simd.axpy", pm.family);
    for (index_t r = 0; r < A.rows; ++r) {
      float* c = C.row(r).data();
      for (index_t j = A.row_ptr[r]; j < A.row_ptr[r + 1]; ++j) {
        simd::axpy<float>(A.val[j], B.row(A.col_idx[j]).data(), c, pm.k);
      }
    }
  }

  // The workload's own call on this matrix: the plan's kernel in the
  // workload's mode at T shard threads.
  {
    SpmmConfig cfg = pm.cfg;
    cfg.jobs = threads;
    Span sp("executor.execute", pm.family);
    (void)SpmmExecutor(cfg).execute(*plan, B);
  }

  // Kernel legs.  Counting-mode j1 of the arm kernels is the baseline
  // gpusim.memsim_ms subtracts from the cache-sim j1.
  for (const KernelKind k : kArmKernels) {
    run_kernel(*plan, B, pm.cfg, MemMode::kCacheSim, k, 1);
    run_kernel(*plan, B, pm.cfg, MemMode::kCacheSim, k, threads);
    run_kernel(*plan, B, pm.cfg, MemMode::kCounting, k, 1);
  }
  for (const KernelKind k : kCountingKernels) {
    run_kernel(*plan, B, pm.cfg, MemMode::kCounting, k, threads);
  }
}

double total_of(const std::map<std::string, SpanAgg>& agg, const std::string& key) {
  const auto it = agg.find(key);
  return it == agg.end() ? 0.0 : it->second.total_ms;
}

}  // namespace

std::string family_tag(MatrixFamily f) {
  switch (f) {
    case MatrixFamily::kUniform: return "uniform";
    case MatrixFamily::kPowerlawRows:
    case MatrixFamily::kPowerlawCols: return "powerlaw";
    case MatrixFamily::kBanded: return "banded";
    default: return "other";
  }
}

void probe_layers(const std::vector<ProbeMatrix>& matrices, int threads) {
  for (const auto& pm : matrices) probe_one(pm, threads);
}

void WorkLedger::add(const SpmmResult& r) {
  ++runs;
  modelled_ns += r.timing.total_ns;
  l2_accesses += r.mem.l2.accesses;
  l2_hits += r.mem.l2.sector_hits;
  dram_bytes += r.mem.total_dram_bytes();
  tiles += r.engine.requests;
  comparator_ops += r.engine.comparator_ops;
}

void WorkLedger::write(Outcome& out) const {
  out.ledger_u64("runs", runs);
  out.ledger_f64("modelled_ns", modelled_ns);
  out.ledger_u64("l2_accesses", l2_accesses);
  out.ledger_u64("l2_hits", l2_hits);
  out.ledger_i64("dram_bytes", dram_bytes);
  out.ledger_u64("tiles", tiles);
  out.ledger_u64("comparator_ops", comparator_ops);
}

void per_layer_metrics(const std::vector<SpanRecord>& spans, const WorkLedger& ledger,
                       const WorkloadCounters& c, Outcome& out) {
  const auto by_name = aggregate(spans);
  const auto by_arg = aggregate(spans, /*by_arg=*/true);

  out.metric("matgen.generate_ms", total_of(by_name, "matgen.generate"), "ms");
  out.metric("formats.convert_ms", total_of(by_name, "formats.convert"), "ms");
  out.metric("formats.fingerprint_ms", total_of(by_name, "formats.fingerprint"), "ms");
  out.metric("analysis.profile_ms", total_of(by_name, "analysis.profile"), "ms");
  out.metric("plan.build_ms", total_of(by_name, "plan.build"), "ms");

  const u64 lookups = c.plan_cache.hits + c.plan_cache.misses;
  out.metric("plan_cache.lookups", static_cast<double>(lookups), "count");
  out.metric("plan_cache.hit_ratio",
             lookups == 0 ? 0.0 : static_cast<double>(c.plan_cache.hits) / lookups, "ratio");
  for (const char* fam : kFamilies) {
    const auto it = by_arg.find(std::string("executor.execute|") + fam);
    out.metric(std::string("executor.exec_ms_p50.") + fam,
               it == by_arg.end() ? 0.0 : median(it->second.each_ms), "ms");
  }

  auto kernel_metrics = [&](MemMode mode, KernelKind k) {
    const double j1 = total_of(by_arg, "kernel|" + kernel_key(mode, k, false));
    const double jn = total_of(by_arg, "kernel|" + kernel_key(mode, k, true));
    const std::string base = std::string("kernels.") + mode_tag(mode) + "." + kernel_name(k);
    out.metric(base + ".j1_ms", j1, "ms");
    out.metric(base + ".jN_ms", jn, "ms");
    out.metric(base + ".speedup", jn > 0.0 ? j1 / jn : 0.0, "x");
  };
  for (const KernelKind k : kArmKernels) kernel_metrics(MemMode::kCacheSim, k);
  for (const KernelKind k : kCountingKernels) kernel_metrics(MemMode::kCounting, k);

  for (const KernelKind k : kArmKernels) {
    const double sim = total_of(by_arg, "kernel|" + kernel_key(MemMode::kCacheSim, k, false));
    const double cnt = total_of(by_arg, "kernel|" + kernel_key(MemMode::kCounting, k, false));
    out.metric(std::string("gpusim.memsim_ms.") + kernel_name(k), sim - cnt, "ms");
  }
  out.metric("gpusim.modelled_ms", ledger.modelled_ns * 1e-6, "ms");
  out.metric("gpusim.l2_accesses", static_cast<double>(ledger.l2_accesses), "count");
  out.metric("gpusim.l2_hit_rate",
             ledger.l2_accesses == 0
                 ? 0.0
                 : static_cast<double>(ledger.l2_hits) / static_cast<double>(ledger.l2_accesses),
             "ratio");
  out.metric("gpusim.dram_bytes", static_cast<double>(ledger.dram_bytes), "bytes");

  out.metric("transform.convert_tile_ms", total_of(by_name, "transform.convert_tile"), "ms");
  out.metric("transform.tiles", static_cast<double>(g_probe_tiles), "count");
  out.metric("transform.comparator_ops", static_cast<double>(g_probe_comparator_ops), "count");
  out.metric("simd.axpy_ms", total_of(by_name, "simd.axpy"), "ms");

  out.metric("service.latency_ms_p99", c.service_latency_ms_p99, "ms");
  out.metric("service.queue_ms_p99", c.service_queue_ms_p99, "ms");
  out.metric("service.exec_ms_p50", c.service_exec_ms_p50, "ms");
  out.metric("service.coalesced_share.open", c.coalesced_share_open, "ratio");
  out.metric("service.coalesced_share.burst", c.coalesced_share_burst, "ratio");
  out.metric("service.batch_size_mean.open", c.batch_size_mean_open, "count");
  out.metric("service.batch_size_mean.burst", c.batch_size_mean_burst, "count");
  out.metric("service.shed", static_cast<double>(c.service_shed), "count");
  out.metric("service.gen_lateness_p99_ms", c.gen_lateness_p99_ms, "ms");

  // The supervisor's own counters (src/proc) in the process registry.
  auto& reg = obs::MetricsRegistry::global();
  out.metric("proc.cpu_ratio", c.proc_cpu_ratio, "ratio");
  out.metric("proc.isolated_ops_per_s", c.proc_isolated_ops_per_s, "1/s");
  out.metric("proc.spawns", static_cast<double>(reg.counter("proc.spawns").value()), "count");
  out.metric("proc.crashes", static_cast<double>(reg.counter("proc.crashes").value()), "count");
  out.metric("proc.retries", static_cast<double>(reg.counter("proc.retries").value()), "count");

  out.metric("obs.trace_overhead_share", c.trace_overhead_share, "ratio");
}

}  // namespace perfbench
