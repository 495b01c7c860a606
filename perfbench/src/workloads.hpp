// The benchmark's named workloads.  Each fills an Outcome: ops
// attempted and failed, the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run), and the deterministic work ledger.
#pragma once

#include "common.hpp"

namespace perfbench {

/// Fig. 16 sweep over the seeded medium standard suite (run_suite).
Outcome run_fig16(const Options& opt);

/// Sec. 2 reuse: three fixed 16384-row plans against fresh B blocks.
Outcome run_multivector(const Options& opt);

/// In-process SpmmServer: open-loop Poisson phase, then bursts.
Outcome run_serve_open(const Options& opt);

}  // namespace perfbench
