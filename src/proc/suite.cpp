#include "proc/suite.hpp"

#include <map>

#include "core/journal.hpp"
#include "core/suite_driver.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "proc/frame.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace nmdt::proc {

namespace {

// Task kinds on the supervisor pipe.
constexpr u8 kTaskPlanRow = 1;  ///< payload {u32 row} → u8 status [+ profile]
constexpr u8 kTaskRunArm = 2;   ///< payload {u32 row, u8 arm} → {f64 t, f64 prep, u32 crc}

u32 c_crc_of(const SpmmResult& r) {
  if (r.precision == Precision::kF64) {
    const auto d = r.C64.data();
    return crc32(d.data(), d.size() * sizeof(double));
  }
  const auto d = r.C.data();
  return crc32(d.data(), d.size() * sizeof(float));
}

/// Worker-process state: the last row this worker planned.  Task
/// affinity keys on the row, so the common case is four arm tasks
/// reusing the plan/B their own worker just built; a miss (retry on a
/// fresh worker, affinity steal) rebuilds them — the inputs are a pure
/// function of (spec, cfg, K, row), so a rebuild cannot change results,
/// only cost time.
struct WorkerRowCache {
  usize idx = static_cast<usize>(-1);
  std::shared_ptr<const SuiteRowInputs> inputs;
};

TaskHandler make_suite_handler(std::vector<MatrixSpec> specs, SpmmConfig cfg, index_t K,
                               double arm_timeout_ms) {
  auto cache = std::make_shared<WorkerRowCache>();
  return [specs = std::move(specs), cfg = std::move(cfg), K, arm_timeout_ms,
          cache](u8 kind, u64 /*key*/, const std::string& payload) -> std::string {
    WireReader r(payload);
    const usize idx = r.get_u32("task row");
    auto plan_row = [&] {
      cache->inputs = suite_row_inputs(specs[idx], idx, cfg, K);
      cache->idx = idx;
    };
    WireWriter w;
    if (kind == kTaskPlanRow) {
      r.expect_done("plan task");
      plan_row();
      w.put_u8(cache->inputs ? 1 : 0);  // 0: degenerate draw, nothing to measure
      if (cache->inputs) w.put_str(encode_profile(cache->inputs->plan->profile()));
      return w.out;
    }
    const int arm = static_cast<int>(r.get_u8("arm-task arm"));
    r.expect_done("arm task");
    if (cache->idx != idx) plan_row();
    if (!cache->inputs) {
      // The parent only dispatches arms for rows whose plan task
      // reported non-degenerate; a degenerate rebuild means the spec's
      // generator is not a pure function — surface loudly.
      throw ParseError("arm task for row " + std::to_string(idx) +
                       " regenerated as a degenerate matrix");
    }
    // The worker sees no sweep token: a fresh root token carries only
    // the arm's own deadline.
    const SpmmResult res =
        run_suite_arm(*cache->inputs, idx, arm, cfg, CancelToken{}, arm_timeout_ms);
    const SuiteArmTimes times = suite_arm_times(arm, res);
    w.put_f64(times.t_ms);
    w.put_f64(times.prep_ms);
    w.put_u32(c_crc_of(res));
    return w.out;
  };
}

/// Isolated suite backend: every task runs in a supervised worker
/// process and comes back as a pipe-encoded completion.
class SupervisorSuiteBackend final : public SuiteBackend {
 public:
  SupervisorSuiteBackend(const ProcOptions& proc_opts, TaskHandler handler, SuiteCrcs* crcs)
      : SuiteBackend(proc_opts.workers), sup_(proc_opts, std::move(handler)), crcs_(crcs) {}

  void submit(SuiteTask task) override {
    const u64 row = static_cast<u64>(task.row);
    WireWriter w;
    w.put_u32(static_cast<u32>(task.row));
    u64 id = 0;
    if (task.arm == SuiteTask::kPlan) {
      id = sup_.submit(kTaskPlanRow, fault::mix(0x704c, row), std::move(w.out), row);
    } else {
      w.put_u8(static_cast<u8>(task.arm));
      id = sup_.submit(kTaskRunArm, fault::mix(row, static_cast<u64>(task.arm)),
                       std::move(w.out), row);
    }
    inflight_.emplace(id, SuiteTask{task.row, task.arm, nullptr});
  }

  std::optional<SuiteTaskResult> wait(double timeout_ms) override {
    auto c = sup_.wait_completion(timeout_ms);
    if (!c) return std::nullopt;
    const auto it = inflight_.find(c->id);
    if (it == inflight_.end()) return std::nullopt;
    SuiteTaskResult res;
    res.task = it->second;
    inflight_.erase(it);
    if (!c->outcome.ok) {
      // A typed handler failure, or a WorkerError quarantine after the
      // task's workers crashed max_retries times.
      res.status = SuiteTaskResult::Status::kFailed;
      res.error = c->outcome.error;
      return res;
    }
    WireReader r(c->outcome.payload);
    if (res.task.arm == SuiteTask::kPlan) {
      if (r.get_u8("plan result status") == 0) {
        res.status = SuiteTaskResult::Status::kDegenerate;
      } else {
        res.profile = decode_profile(r.get_str("plan result profile"));
      }
      r.expect_done("plan result");
      return res;
    }
    res.times.t_ms = r.get_f64("arm result time");
    res.times.prep_ms = r.get_f64("arm result prep");
    const u32 crc = r.get_u32("arm result crc");
    r.expect_done("arm result");
    if (crcs_) (*crcs_)[res.task.row][static_cast<usize>(res.task.arm)] = crc;
    return res;
  }

 private:
  Supervisor sup_;
  SuiteCrcs* crcs_;
  std::map<u64, SuiteTask> inflight_;  ///< supervisor task id → suite task
};

}  // namespace

std::vector<SuiteRow> run_suite_isolated(std::span<const MatrixSpec> specs,
                                         const SpmmConfig& cfg, index_t K,
                                         const SuiteProgress& progress,
                                         const SuiteOptions& opts,
                                         const ProcOptions& proc_opts,
                                         SuiteCrcs* c_crc_out) {
  obs::TraceSpan span("suite.run");
  span.arg("isolated_workers", proc_opts.workers);
  if (c_crc_out) {
    c_crc_out->assign(specs.size(), std::array<u32, SuiteRow::kArmCount>{});
  }
  // The supervisor forks its workers only once the suite driver has installed
  // the sweep's fault plan and found live work: a pure replay forks
  // nothing.
  return drive_suite(specs, cfg, K, progress, opts, span, [&](const CancelToken&) {
    return std::make_unique<SupervisorSuiteBackend>(
        proc_opts,
        make_suite_handler(std::vector<MatrixSpec>(specs.begin(), specs.end()), cfg, K,
                           opts.arm_timeout_ms),
        c_crc_out);
  });
}

}  // namespace nmdt::proc
