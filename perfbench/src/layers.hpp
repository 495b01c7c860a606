// Per-layer attribution from outside the library.
//
// `probe_layers` replays a workload's own matrices through each
// layer's public entry points one at a time — matgen, the formats
// converters, fingerprint_of, profile_matrix, build_plan,
// ConversionEngine::convert_tile_checked over every strip,
// simd::axpy, SpmmExecutor::execute per kernel at 1 and T shard
// threads — with a benchmark-side Span around every call.
// `per_layer_metrics` turns the recorded spans, the work ledger and
// the workload's own counters into the named per-layer metrics.
#pragma once

#include <functional>

#include "common.hpp"
#include "core/plan.hpp"
#include "kernels/spmm.hpp"
#include "spans.hpp"

namespace perfbench {

/// Family tag used in per-family metric names: uniform, powerlaw,
/// banded, or other.
std::string family_tag(nmdt::MatrixFamily f);

/// One matrix of a workload as the probe sees it.
struct ProbeMatrix {
  std::string family;                 ///< family_tag
  std::function<nmdt::Csr()> make;    ///< the workload's own generator call
  nmdt::index_t k = 64;               ///< B columns the workload uses
  u64 b_seed = 1;
  nmdt::SpmmConfig cfg;               ///< the workload's execution config
};

/// Run every probe matrix through each layer (spans recorded while
/// SpanLog is enabled).  Kernel timings use `threads` shard threads for
/// the jN leg.
void probe_layers(const std::vector<ProbeMatrix>& matrices, int threads);

/// Deterministic work totals over a set of kernel runs.  Add results in
/// a fixed order so the floating-point sum repeats exactly.
struct WorkLedger {
  u64 runs = 0;
  double modelled_ns = 0.0;
  u64 l2_accesses = 0;
  u64 l2_hits = 0;
  i64 dram_bytes = 0;
  u64 tiles = 0;           ///< conversion-engine tile requests
  u64 comparator_ops = 0;  ///< conversion-engine comparator operations

  void add(const nmdt::SpmmResult& r);
  void write(Outcome& out) const;  ///< append to out.ledger
};

/// Workload-level counters only the workload itself can observe.
struct WorkloadCounters {
  nmdt::PlanCacheStats plan_cache{};
  double trace_overhead_share = 0.0;
  // service layer (serve_open)
  double service_latency_ms_p99 = 0.0;  ///< open loop, from the due time
  double service_queue_ms_p99 = 0.0;
  double service_exec_ms_p50 = 0.0;
  double coalesced_share_open = 0.0;
  double coalesced_share_burst = 0.0;
  double batch_size_mean_open = 0.0;
  double batch_size_mean_burst = 0.0;
  u64 service_shed = 0;
  double gen_lateness_p99_ms = 0.0;
  // process isolation (fig16_sweep)
  double proc_cpu_ratio = 0.0;
  double proc_isolated_ops_per_s = 0.0;
};

/// Append every per-layer metric (same names on every workload; a
/// layer a workload does not exercise reads 0) to `out`.
void per_layer_metrics(const std::vector<SpanRecord>& spans, const WorkLedger& ledger,
                       const WorkloadCounters& counters, Outcome& out);

}  // namespace perfbench
