// fig16_sweep: the paper's headline experiment, the four Fig. 16
// kernel arms over the medium standard suite (K = 64, cache-sim) on T
// in-process pool threads.  One op is one (matrix, kernel) arm; one
// sweep runs every arm once.  The traced run also sweeps through T
// supervised worker processes (run_suite_isolated) to cost process
// isolation.
#include <array>
#include <cstring>
#include <iostream>

#include "core/executor.hpp"
#include "layers.hpp"
#include "proc/suite.hpp"
#include "spans.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace nmdt;

namespace {

constexpr index_t kK = 64;
constexpr std::array<KernelKind, SuiteRow::kArmCount> kArms = {
    KernelKind::kCsrCStationaryRowWarp, KernelKind::kDcsrCStationary,
    KernelKind::kTiledDcsrOnline, KernelKind::kTiledDcsrBStationary};

/// The medium standard suite with every spec re-seeded from --seed:
/// same families, shapes and densities, different draws.
std::vector<MatrixSpec> seeded_suite(u64 seed) {
  auto specs = standard_suite(SuiteScale::kMedium);
  for (auto& s : specs) s.seed = mix_seed(seed, s.seed);
  return specs;
}

SpmmConfig sweep_config() { return evaluation_config(4096, kK); }

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_row(const SuiteRow& a, const SuiteRow& b) {
  return a.spec.name == b.spec.name && a.error == b.error && a.arm_error == b.arm_error &&
         same_bits(a.t_baseline_ms, b.t_baseline_ms) && same_bits(a.t_dcsr_c_ms, b.t_dcsr_c_ms) &&
         same_bits(a.t_online_b_ms, b.t_online_b_ms) &&
         same_bits(a.t_offline_b_ms, b.t_offline_b_ms) &&
         same_bits(a.offline_prep_ms, b.offline_prep_ms) &&
         same_bits(a.profile.ssf, b.profile.ssf) && same_bits(a.profile.h_norm, b.profile.h_norm) &&
         a.profile.total_tile_row_segments == b.profile.total_tile_row_segments;
}

struct Sweep {
  std::vector<SuiteRow> rows;
  double ms = 0.0;
  double cpu_s = 0.0;  ///< this process plus reaped workers
};

Sweep run_sweep(const std::vector<MatrixSpec>& specs, int threads, bool isolated) {
  SuiteOptions so;
  so.jobs = threads;
  const Usage self0 = usage_self();
  const Usage kids0 = usage_children();
  const auto t0 = Clock::now();
  Sweep s;
  if (isolated) {
    Span sp("suite.run_isolated");
    proc::ProcOptions po;
    po.workers = threads;
    s.rows = proc::run_suite_isolated(specs, sweep_config(), kK, {}, so, po);
  } else {
    Span sp("suite.run");
    s.rows = run_suite(specs, sweep_config(), kK, {}, so);
  }
  s.ms = ms_since(t0);
  s.cpu_s = usage_self().cpu_s() - self0.cpu_s() + usage_children().cpu_s() - kids0.cpu_s();
  return s;
}

/// Count every arm of `got` as attempted; an arm fails when its row is
/// not ok() or differs from the reference row.
void check_sweep(const Sweep& got, const std::vector<SuiteRow>& ref, Outcome& out) {
  out.attempted += static_cast<u64>(got.rows.size()) * SuiteRow::kArmCount;
  if (got.rows.size() != ref.size()) {
    out.failed += static_cast<u64>(got.rows.size()) * SuiteRow::kArmCount;
    out.fail("sweep returned " + std::to_string(got.rows.size()) + " rows, reference " +
             std::to_string(ref.size()));
    return;
  }
  for (usize i = 0; i < got.rows.size(); ++i) {
    const SuiteRow& r = got.rows[i];
    if (!r.ok()) {
      out.failed += SuiteRow::kArmCount;
      out.fail("row " + r.spec.name + ": " + r.failure_summary());
    } else if (!same_row(r, ref[i])) {
      out.failed += SuiteRow::kArmCount;
      out.fail("row " + r.spec.name + " differs from the reference sweep");
    }
  }
}

/// Set-up: a single-threaded warm-up sweep of the smoke suite (code
/// pages, allocator arenas, SIMD dispatch) before the first timed
/// sweep.  The sweep's users pay generation and planning inside the
/// sweep itself.
double setup_once() {
  return time_s([] { (void)run_suite(smoke_suite(), sweep_config(), kK, {}, 1); });
}

/// Every arm of every row re-run through SpmmExecutor with run_suite's
/// per-row B, summed in row order.  Checks the modelled times against
/// `rows` when given.
WorkLedger sweep_ledger(const std::vector<MatrixSpec>& specs, int threads,
                        const std::vector<SuiteRow>* rows, Outcome& out) {
  const SpmmConfig cfg = sweep_config();
  std::vector<std::array<SpmmResult, SuiteRow::kArmCount>> results(specs.size());
  std::vector<char> skipped(specs.size(), 0);
  run_indexed(threads, static_cast<i64>(specs.size()), [&](i64 idx) {
    const Csr A = specs[static_cast<usize>(idx)].generate();
    if (A.nnz() == 0) {
      skipped[static_cast<usize>(idx)] = 1;
      return;
    }
    const auto plan =
        build_plan(A, PlanOptions{cfg.tiling, default_ssf_threshold(), 1.0, cfg.precision});
    Rng b_rng(0xb0b0 + static_cast<u64>(idx));
    DenseMatrix B(A.cols, kK);
    B.randomize(b_rng);
    SpmmConfig c = cfg;
    c.jobs = threads;
    for (usize a = 0; a < kArms.size(); ++a) {
      SpmmResult r = SpmmExecutor(c).execute(kArms[a], *plan, B);
      r.C = DenseMatrix();  // keep the counts, drop the output panel
      results[static_cast<usize>(idx)][a] = std::move(r);
    }
  });
  WorkLedger ledger;
  usize row = 0;
  for (usize i = 0; i < specs.size(); ++i) {
    if (skipped[i]) continue;
    for (const auto& r : results[i]) ledger.add(r);
    if (rows != nullptr && row < rows->size()) {
      const SuiteRow& sr = (*rows)[row];
      const double t[] = {sr.t_baseline_ms, sr.t_dcsr_c_ms, sr.t_online_b_ms, sr.t_offline_b_ms};
      for (usize a = 0; a < kArms.size(); ++a) {
        if (!same_bits(t[a], results[i][a].timing.total_ms())) {
          out.fail("ledger: " + specs[i].name + "/" + kernel_name(kArms[a]) +
                   " modelled time differs from the sweep row");
        }
      }
    }
    ++row;
  }
  if (rows != nullptr && row != rows->size()) out.fail("ledger: row count differs from sweep");
  return ledger;
}

/// Probe set: every third suite matrix, in suite order.
std::vector<ProbeMatrix> probe_set(const std::vector<MatrixSpec>& specs) {
  std::vector<ProbeMatrix> out;
  for (usize i = 0; i < specs.size(); i += 3) {
    const MatrixSpec spec = specs[i];
    out.push_back({family_tag(spec.family), [spec] { return spec.generate(); }, kK,
                   0xb0b0 + static_cast<u64>(i), sweep_config()});
  }
  return out;
}

}  // namespace

Outcome run_fig16(const Options& opt) {
  Outcome out;
  const auto specs = seeded_suite(opt.seed);

  if (opt.ledger_only) {
    sweep_ledger(specs, opt.threads, nullptr, out).write(out);
    return out;
  }

  std::vector<double> setups;
  for (int i = 0; i < 9; ++i) setups.push_back(setup_once());

  // Reference rows, from an untimed sweep that also warms the process
  // (allocator arenas, page tables) so the timed sweeps all start alike.
  const Sweep warm = run_sweep(specs, opt.threads, false);
  std::cerr << "fig16_sweep: warm-up sweep ms " << warm.ms << "\n";
  const std::vector<SuiteRow>& ref = warm.rows;

  if (opt.trace) {
    WorkloadCounters counters;
    // Overhead: the sweep untraced and traced, twice each, alternating.
    std::vector<Sweep> plain, traced;
    for (int i = 0; i < 4; ++i) {
      SpanLog::set_enabled(i % 2 == 1);
      (i % 2 == 1 ? traced : plain).push_back(run_sweep(specs, opt.threads, false));
    }
    counters.trace_overhead_share =
        (traced[0].ms + traced[1].ms) / (plain[0].ms + plain[1].ms) - 1.0;
    // Process isolation: one sweep through T worker processes, costed
    // against the last traced in-process sweep.
    Sweep isolated = run_sweep(specs, opt.threads, true);
    counters.proc_cpu_ratio = isolated.cpu_s / traced[1].cpu_s;
    counters.proc_isolated_ops_per_s =
        static_cast<double>(isolated.rows.size() * SuiteRow::kArmCount) / (isolated.ms / 1e3);
    for (const Sweep* s : {&plain[0], &plain[1], &traced[0], &traced[1], &isolated}) {
      check_sweep(*s, ref, out);
    }

    const WorkLedger ledger = sweep_ledger(specs, opt.threads, &ref, out);
    ledger.write(out);
    probe_layers(probe_set(specs), opt.threads);
    SpanLog::set_enabled(false);
    per_layer_metrics(SpanLog::collect(), ledger, counters, out);
    return out;
  }

  std::vector<Sweep> sweeps;
  const auto t0 = Clock::now();
  do {
    sweeps.push_back(run_sweep(specs, opt.threads, false));
  } while (ms_since(t0) < opt.seconds * 1e3);

  std::vector<double> rates, wall_ms;
  for (const auto& s : sweeps) {
    check_sweep(s, ref, out);
    rates.push_back(static_cast<double>(s.rows.size() * SuiteRow::kArmCount) / (s.ms / 1e3));
    wall_ms.push_back(s.ms);
  }
  std::cerr << "fig16_sweep: sweep ms";
  for (const double v : wall_ms) std::cerr << " " << v;
  std::cerr << "\n";
  out.metric("setup_s", median(setups), "s");
  out.metric("ops_per_s", median(rates), "1/s");
  out.metric("op_p50_ms", median(wall_ms), "ms");
  out.metric("peak_rss_mb", usage_self().max_rss_mb, "MB");
  return out;
}

}  // namespace perfbench
