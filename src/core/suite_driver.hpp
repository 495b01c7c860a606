// The one suite-sweep driver behind run_suite and run_suite_isolated.
//
// drive_suite is a single-threaded coordinator on the calling thread.
// It owns the checkpoint journal (fingerprint check, replay, torn-tail
// truncation, every append), replay prefill, the bounded row window,
// failure ranking, progress, cancellation and result assembly.  A
// backend only executes tasks — plan a row, or run one of its arms —
// on a ThreadPool (core/executor.cpp) or in supervised worker processes
// (proc/suite.cpp).  Both compute every task through suite_row_inputs
// and run_suite_arm, so rows are bit-identical across backends by
// construction.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/executor.hpp"
#include "obs/trace.hpp"

namespace nmdt {

/// The kernel behind suite arm `arm` (SuiteRow::Arm).
KernelKind suite_arm_kernel(int arm);

/// What the arms of one suite row share.
struct SuiteRowInputs {
  std::shared_ptr<const SpmmPlan> plan;
  DenseMatrix B;
};

/// Generate row `idx`'s matrix, plan it under `cfg`, and draw its B from
/// Rng(0xb0b0 + idx).  nullptr when the spec drew an empty matrix (a
/// degenerate row: nothing to measure, never reported).
std::shared_ptr<const SuiteRowInputs> suite_row_inputs(const MatrixSpec& spec, usize idx,
                                                       const SpmmConfig& cfg, index_t K);

/// Run arm `arm` of row `idx`: arm `arm_token`'s deadline (when
/// arm_timeout_ms > 0) and install it, poll it, pass the kSuiteArm fault
/// point, then SpmmExecutor(cfg).execute the arm's kernel on the row.
SpmmResult run_suite_arm(const SuiteRowInputs& row, usize idx, int arm,
                         const SpmmConfig& cfg, const CancelToken& arm_token,
                         double arm_timeout_ms);

/// An arm's contribution to its SuiteRow: modelled time, and offline
/// preprocessing cost (0 for every arm but the offline one).
struct SuiteArmTimes {
  double t_ms = 0.0;
  double prep_ms = 0.0;
};
SuiteArmTimes suite_arm_times(int arm, const SpmmResult& res);

/// Plan row `row` (arm == kPlan), or run one of its arms.
struct SuiteTask {
  static constexpr int kPlan = -1;
  usize row = 0;
  int arm = kPlan;
  /// In-process arm tasks: the row their plan task returned.  The arms
  /// share ownership, so the plan lives only while they are pending.
  std::shared_ptr<const SuiteRowInputs> inputs;
};

struct SuiteTaskResult {
  enum class Status {
    kOk,
    kDegenerate,  ///< plan task: the spec drew an empty matrix
    kFailed,      ///< typed failure described by `error`
    kCancelled,   ///< abandoned by sweep cancellation: never journaled
  };
  SuiteTask task;
  Status status = Status::kOk;
  std::string error;
  MatrixProfile profile;                         ///< plan task
  std::shared_ptr<const SuiteRowInputs> inputs;  ///< plan task, in-process
  SuiteArmTimes times;                           ///< arm task
};

/// Where suite tasks execute; both calls come from the suite driver's thread.
/// Destroying a backend abandons whatever is still in flight.
class SuiteBackend {
 public:
  explicit SuiteBackend(int workers) : workers_(workers) {}
  virtual ~SuiteBackend() = default;
  SuiteBackend(const SuiteBackend&) = delete;
  SuiteBackend& operator=(const SuiteBackend&) = delete;

  /// Parallel capacity; the suite driver admits 2·workers + 2 rows at once.
  int workers() const { return workers_; }

  virtual void submit(SuiteTask task) = 0;
  /// The next completed task, or nullopt after `timeout_ms` without one.
  virtual std::optional<SuiteTaskResult> wait(double timeout_ms) = 0;

 private:
  int workers_;
};

/// Called once live work remains, with the sweep's token (a child of
/// SuiteOptions::cancel carrying the suite deadline).
using SuiteBackendFactory =
    std::function<std::unique_ptr<SuiteBackend>(const CancelToken& suite_token)>;

/// A suite sweep under run_suite's contract (core/executor.hpp), its
/// tasks run by the backend `make_backend` builds.  `span` is the
/// caller's open suite.run span.
std::vector<SuiteRow> drive_suite(std::span<const MatrixSpec> specs, const SpmmConfig& cfg,
                                  index_t K, const SuiteProgress& progress,
                                  const SuiteOptions& opts, obs::TraceSpan& span,
                                  const SuiteBackendFactory& make_backend);

}  // namespace nmdt
