// multivector: the Sec. 2 reuse pattern (block eigensolvers, GNN
// layers).  Three 16384-row matrices are planned once in set-up; the
// timed phase multiplies each plan's chosen kernel against fresh
// K = 256 B blocks in counting mode at T shard threads, looking the
// plan up in a PlanCache on every call the way an engine does.  One op
// is one SpMM call.
#include <cstring>
#include <iostream>

#include "core/executor.hpp"
#include "layers.hpp"
#include "spans.hpp"
#include "transform/comparator.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace nmdt;

namespace {

constexpr index_t kRows = 16384;
constexpr index_t kK = 256;
constexpr int kBlocks = 2;  ///< distinct B blocks cycled through the calls

struct MvMatrix {
  MatrixSpec spec;
  KernelKind expected;  ///< the kernel the plan is expected to pick
  int weight;           ///< calls per mix cycle
};

/// Weights give each matrix about a third of the timed phase.
std::vector<MvMatrix> mv_matrices(u64 seed) {
  return {
      {{.name = "uniform", .family = MatrixFamily::kUniform, .rows = kRows, .cols = kRows,
        .density = 1e-3, .seed = mix_seed(seed, 1)},
       KernelKind::kDcsrCStationary, 32},
      {{.name = "powerlaw", .family = MatrixFamily::kPowerlawRows, .rows = kRows,
        .cols = kRows, .density = 1e-3, .skew = 1.4, .seed = mix_seed(seed, 2)},
       KernelKind::kTiledDcsrOnline, 2},
      {{.name = "banded", .family = MatrixFamily::kBanded, .rows = kRows, .cols = kRows,
        .density = 0.25, .aux = 64, .seed = mix_seed(seed, 3)},
       KernelKind::kTiledDcsrOnline, 2},
  };
}

/// Smooth weighted round-robin order of one mix cycle.
std::vector<usize> mix_cycle(const std::vector<MvMatrix>& ms) {
  int total = 0;
  for (const auto& m : ms) total += m.weight;
  std::vector<int> credit(ms.size(), 0);
  std::vector<usize> order;
  for (int i = 0; i < total; ++i) {
    usize best = 0;
    for (usize m = 0; m < ms.size(); ++m) {
      credit[m] += ms[m].weight;
      if (credit[m] > credit[best]) best = m;
    }
    credit[best] -= total;
    order.push_back(best);
  }
  return order;
}

struct Inputs {
  std::vector<Csr> A;
  std::vector<DenseMatrix> B;
  PlanCache cache;
};

PlanOptions plan_options() { return PlanOptions{}; }

/// Set-up: generate the three matrices and the B blocks, plan each
/// matrix through the cache.  Single-threaded.
void set_up(const std::vector<MvMatrix>& ms, u64 seed, Inputs& in) {
  for (const auto& m : ms) {
    in.A.push_back(m.spec.generate());
    (void)in.cache.get_or_build(in.A.back(), plan_options());
  }
  for (int b = 0; b < kBlocks; ++b) {
    Rng rng(mix_seed(seed, 100 + static_cast<u64>(b)));
    in.B.emplace_back(kRows, kK);
    in.B.back().randomize(rng);
  }
}

SpmmConfig call_config(int jobs) {
  SpmmConfig cfg;  // counting mode
  cfg.jobs = jobs;
  return cfg;
}

struct Reference {
  std::vector<std::vector<DenseMatrix>> C;  ///< [matrix][block]
  WorkLedger ledger;
};

/// Every (matrix, block) product at `jobs` shard threads, in order.
/// Checks each plan picked its expected kernel and that the first
/// block's C is within the fSPMV tolerance bound of the binary64
/// reference.
Reference reference(const std::vector<MvMatrix>& ms, Inputs& in, int jobs, bool tolerance,
                    Outcome& out) {
  Reference ref;
  const ToleranceComparator cmp(default_tolerance(Precision::kF32));
  for (usize m = 0; m < ms.size(); ++m) {
    const auto plan = in.cache.get_or_build(in.A[m], plan_options());
    if (plan->kernel() != ms[m].expected) {
      out.fail(ms[m].spec.name + ": plan picked " + kernel_name(plan->kernel()) + ", expected " +
               kernel_name(ms[m].expected));
    }
    ref.C.emplace_back();
    for (int b = 0; b < kBlocks; ++b) {
      SpmmResult r = SpmmExecutor(call_config(jobs)).execute(*plan, in.B[b]);
      ref.ledger.add(r);
      const auto bits = r.C.data();
      out.ledger_u64("crc." + ms[m].spec.name + "." + std::to_string(b),
                     crc32(bits.data(), bits.size() * sizeof(float)));
      if (tolerance && b == 0) {
        const auto expected = spmm_reference_f64(in.A[m], in.B[b]);
        DenseMatrixT<double> actual(r.C.rows(), r.C.cols());
        for (usize i = 0; i < bits.size(); ++i) actual.data()[i] = bits[i];
        const auto verdict = cmp.compare(expected, actual, in.A[m], in.B[b]);
        if (!verdict.pass) {
          out.fail(ms[m].spec.name + ": C outside the fSPMV bound (" +
                   std::to_string(verdict.mismatched) + " elements)");
        }
      }
      ref.C.back().push_back(std::move(r.C));
    }
  }
  return ref;
}

struct CallLog {
  std::vector<double> ms;
  u64 attempted = 0;
  u64 failed = 0;
};

/// Run `calls` calls of the mix, each timed from the plan lookup to the
/// returned C; C is compared against the reference outside the timing.
void run_calls(const std::vector<MvMatrix>& ms, Inputs& in, const Reference& ref,
               const std::vector<usize>& cycle, int jobs, u64 first_call, u64 calls,
               CallLog& log, Outcome& out) {
  const SpmmExecutor exec(call_config(jobs));
  for (u64 c = first_call; c < first_call + calls; ++c) {
    const usize m = cycle[c % cycle.size()];
    const int b = static_cast<int>(c % kBlocks);
    const auto t0 = Clock::now();
    bool hit = false;
    std::shared_ptr<const SpmmPlan> plan;
    {
      Span sp("plan_cache.lookup", ms[m].spec.name);
      plan = in.cache.get_or_build(in.A[m], plan_options(), &hit);
    }
    SpmmResult r;
    {
      Span sp("executor.execute", ms[m].spec.name);
      r = exec.execute(*plan, in.B[static_cast<usize>(b)]);
    }
    log.ms.push_back(ms_since(t0));
    ++log.attempted;
    const auto got = r.C.data();
    const auto want = ref.C[m][static_cast<usize>(b)].data();
    if (!hit || got.size() != want.size() ||
        std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) != 0) {
      ++log.failed;
      out.fail(ms[m].spec.name + " call " + std::to_string(c) +
               (hit ? ": C differs from the jobs=1 reference" : ": plan cache missed"));
    }
  }
}

std::vector<ProbeMatrix> probe_set(const std::vector<MvMatrix>& ms, u64 seed) {
  std::vector<ProbeMatrix> out;
  for (const auto& m : ms) {
    const MatrixSpec spec = m.spec;
    out.push_back({family_tag(spec.family), [spec] { return spec.generate(); }, kK,
                   mix_seed(seed, 100), call_config(1)});
  }
  return out;
}

}  // namespace

Outcome run_multivector(const Options& opt) {
  Outcome out;
  const auto ms = mv_matrices(opt.seed);
  const auto cycle = mix_cycle(ms);

  if (opt.ledger_only) {
    Inputs in;
    set_up(ms, opt.seed, in);
    reference(ms, in, opt.threads, false, out).ledger.write(out);
    return out;
  }

  std::vector<double> setups;
  std::unique_ptr<Inputs> in;
  for (int i = 0; i < 3; ++i) {
    in = std::make_unique<Inputs>();
    setups.push_back(time_s([&] { set_up(ms, opt.seed, *in); }));
  }
  const Reference ref = reference(ms, *in, 1, true, out);

  CallLog log;
  if (opt.trace) {
    WorkloadCounters counters;
    // Overhead: after one warm-up cycle, one mix cycle untraced and one
    // traced, twice each, alternating.
    double plain_ms = 0.0, traced_ms = 0.0;
    for (int i = 0; i < 5; ++i) {
      SpanLog::set_enabled(i > 0 && i % 2 == 0);
      const auto t0 = Clock::now();
      run_calls(ms, *in, ref, cycle, opt.threads, 0, cycle.size(), log, out);
      if (i > 0) (i % 2 == 0 ? traced_ms : plain_ms) += ms_since(t0);
    }
    counters.trace_overhead_share = traced_ms / plain_ms - 1.0;
    counters.plan_cache = in->cache.stats();
    probe_layers(probe_set(ms, opt.seed), opt.threads);
    SpanLog::set_enabled(false);
    ref.ledger.write(out);
    per_layer_metrics(SpanLog::collect(), ref.ledger, counters, out);
  } else {
    // One untimed mix cycle first, so shard pools and partial-C buffers
    // exist before timing starts.
    CallLog warm;
    run_calls(ms, *in, ref, cycle, opt.threads, 0, cycle.size(), warm, out);
    log.attempted += warm.attempted;
    log.failed += warm.failed;
    const auto t0 = Clock::now();
    u64 next = cycle.size();
    while (ms_since(t0) < opt.seconds * 1e3) {
      run_calls(ms, *in, ref, cycle, opt.threads, next, 1, log, out);
      ++next;
    }
    // Calls per second of call time, per complete mix cycle; the median
    // over cycles (a cycle gives every matrix its share of the calls).
    // Timed calls start on a cycle boundary, so call i used matrix
    // cycle[i % cycle.size()].
    double busy_ms = 0.0;
    std::vector<double> per_matrix_ms(ms.size(), 0.0);
    std::vector<double> cycle_rates;
    double cycle_ms = 0.0;
    for (usize i = 0; i < log.ms.size(); ++i) {
      busy_ms += log.ms[i];
      per_matrix_ms[cycle[i % cycle.size()]] += log.ms[i];
      cycle_ms += log.ms[i];
      if ((i + 1) % cycle.size() == 0) {
        cycle_rates.push_back(static_cast<double>(cycle.size()) / (cycle_ms / 1e3));
        cycle_ms = 0.0;
      }
    }
    if (cycle_rates.empty()) cycle_rates.push_back(log.ms.size() / (busy_ms / 1e3));
    std::cerr << "multivector: share of call time";
    for (usize m = 0; m < ms.size(); ++m) {
      std::cerr << " " << ms[m].spec.name << "=" << per_matrix_ms[m] / busy_ms;
    }
    std::cerr << "; call ms p50=" << median(log.ms) << " p99=" << quantile(log.ms, 0.99) << "\n";
    ref.ledger.write(out);
    out.metric("setup_s", median(setups), "s");
    out.metric("ops_per_s", median(cycle_rates), "1/s");
    out.metric("op_p50_ms", median(log.ms), "ms");
    out.metric("peak_rss_mb", usage_self().max_rss_mb, "MB");
  }
  out.attempted += log.attempted;
  out.failed += log.failed;
  return out;
}

}  // namespace perfbench
