// Crash-isolated suite execution: run_suite's Fig. 4 / Fig. 16 sweep
// with every matrix generation, plan, and kernel arm executed inside
// supervised worker *processes* (proc/supervisor.hpp) instead of
// in-process pool threads.
//
// Bit-identity contract: rows are identical to in-process run_suite at
// any worker count — both are the suite driver (core/suite_driver.hpp)
// over different backends.  Workers are forked without exec, so task
// payloads carry only (row, arm) coordinates; a worker computes a task
// through the same suite_row_inputs / run_suite_arm functions as the
// in-process backend and ships back raw f64 / encoded-profile bits.
// Only the suite driver in the parent writes the journal, so --resume
// composes across modes.
//
// Failure semantics: a worker crash (SIGSEGV / SIGKILL / abort /
// RLIMIT_AS breach / missed heartbeat) re-dispatches the in-flight
// task with capped backoff; a task whose worker died max_retries times
// is quarantined as a typed WorkerError row/arm failure (exit code 8
// under fail_fast) — one poison arm degrades one table cell, never the
// sweep.  Handler-level typed errors (TimeoutError, FaultError …)
// behave exactly as in-process: journaled, ranked, never retried.
#pragma once

#include <array>
#include <vector>

#include "core/executor.hpp"
#include "proc/supervisor.hpp"

namespace nmdt::proc {

/// Per-(row, arm) CRC32 of the C output, computed inside the worker
/// that ran the arm.  Lets tests pin cross-process value bit-identity
/// without shipping C panels over the pipe.  Arms replayed from a
/// journal (which stores no checksum) and failed arms stay 0.
using SuiteCrcs = std::vector<std::array<u32, SuiteRow::kArmCount>>;

/// Process-isolated run_suite.  Same contract as the in-process
/// overload — identical rows, progress semantics, journal entries,
/// cancellation / deadline behaviour and fail-fast ranking — plus the
/// supervisor's crash-recovery semantics above.  `cfg.fault` (and any
/// already-installed FaultScope) is inherited by the workers, so
/// worker_abort / worker_hang plans crash them deterministically.
std::vector<SuiteRow> run_suite_isolated(std::span<const MatrixSpec> specs,
                                         const SpmmConfig& cfg, index_t K,
                                         const SuiteProgress& progress,
                                         const SuiteOptions& opts,
                                         const ProcOptions& proc_opts,
                                         SuiteCrcs* c_crc_out = nullptr);

}  // namespace nmdt::proc
