#include "core/executor.hpp"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <type_traits>

#include "core/suite_driver.hpp"
#include "formats/retype.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace nmdt {

std::string SuiteRow::failure_summary() const {
  static constexpr std::array<const char*, kArmCount> kArmNames = {
      "baseline", "dcsr_c", "online_b", "offline_b"};
  if (!error.empty()) return "FAILED(" + error + ")";
  std::string out;
  for (int a = 0; a < kArmCount; ++a) {
    if (arm_error[static_cast<usize>(a)].empty()) continue;
    if (!out.empty()) out += "; ";
    out += std::string(kArmNames[static_cast<usize>(a)]) + ": " +
           arm_error[static_cast<usize>(a)];
  }
  return out.empty() ? std::string{} : "FAILED(" + out + ")";
}

SuiteErrorPolicy parse_error_policy(const std::string& name) {
  if (name == "fail_fast") return SuiteErrorPolicy::kFailFast;
  if (name == "continue") return SuiteErrorPolicy::kContinue;
  throw ConfigError("unknown suite error policy '" + name +
                    "' (expected fail_fast or continue)");
}

const char* error_policy_name(SuiteErrorPolicy policy) {
  return policy == SuiteErrorPolicy::kFailFast ? "fail_fast" : "continue";
}

SpmmExecutor::SpmmExecutor(SpmmConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.arch.validate();
  cfg_.tiling.validate();
}

SpmmResult SpmmExecutor::execute(const SpmmPlan& plan, const DenseMatrix& B) const {
  return execute(plan.kernel(), plan, B);
}

SpmmResult SpmmExecutor::execute(KernelKind kind, const SpmmPlan& plan,
                                 const DenseMatrix& B) const {
  // A plan's tiled artifacts are only valid under the tiling they were
  // built with (the kernels would reject them); name the real mistake.
  NMDT_CHECK_CONFIG(plan.options().tiling == cfg_.tiling,
                    "plan was built under a different TilingSpec than the executor's");
  // Same for the value precision: running an f32 plan under a bf16
  // config would silently measure the wrong value traffic.
  NMDT_CHECK_CONFIG(plan.precision() == cfg_.precision,
                    "plan was built at a different precision than the executor's");
  return dispatch_precision(plan.precision(), [&](auto tag) -> SpmmResult {
    using V = typename decltype(tag)::type;
    const SpmmOperandsT<V> ops = plan.operands_at<V>().bundle();
    if constexpr (std::is_same_v<V, value_t>) {
      return run_spmm_t<V>(kind, ops, B, cfg_);
    } else {
      // B arrives at the canonical f32 precision; retype per call (the
      // plan amortizes A's conversions, B changes every block anyway).
      const DenseMatrixT<V> b = retype<V>(B);
      return run_spmm_t<V>(kind, ops, b, cfg_);
    }
  });
}

namespace {

/// In-process suite backend: tasks run on a ThreadPool of
/// SuiteOptions::jobs threads and complete into a queue the suite driver
/// drains.
class PoolSuiteBackend final : public SuiteBackend {
 public:
  PoolSuiteBackend(std::span<const MatrixSpec> specs, const SpmmConfig& cfg, index_t K,
                   const SuiteOptions& opts, const CancelToken& suite_token)
      : SuiteBackend(opts.jobs > 0 ? opts.jobs : ThreadPool::default_jobs()),
        specs_(specs),
        cfg_(cfg),
        k_(K),
        arm_timeout_ms_(opts.arm_timeout_ms),
        suite_token_(suite_token),
        // Row/arm tracks derive from the *caller's* track, so the merged
        // trace is independent of worker scheduling.
        suite_track_(obs::TraceTrack::current()),
        pool_(workers()) {}

  void submit(SuiteTask task) override {
    pool_.submit([this, task = std::move(task)] {
      SuiteTaskResult r;
      r.task.row = task.row;
      r.task.arm = task.arm;
      if (task.arm == SuiteTask::kPlan) {
        plan_row(r);
      } else {
        run_arm(r, *task.inputs);
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        done_.push_back(std::move(r));
      }
      cv_.notify_one();
    });
  }

  std::optional<SuiteTaskResult> wait(double timeout_ms) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_for(lock, std::chrono::duration<double, std::milli>(timeout_ms),
                      [this] { return !done_.empty(); })) {
      return std::nullopt;
    }
    SuiteTaskResult r = std::move(done_.front());
    done_.pop_front();
    return r;
  }

 private:
  using Status = SuiteTaskResult::Status;

  void plan_row(SuiteTaskResult& r) {
    const usize idx = r.task.row;
    obs::TraceTrack track(suite_track_, "suite_row", static_cast<u64>(idx));
    // Planning polls inside the conversion engine's tile loops, so a
    // cancelled sweep unwinds even mid-plan.
    CancelScope cancel_scope(suite_token_);
    try {
      poll_cancellation();
      r.inputs = suite_row_inputs(specs_[idx], idx, cfg_, k_);
      if (r.inputs) r.profile = r.inputs->plan->profile();
      else r.status = Status::kDegenerate;
    } catch (const CancelledError&) {
      r.status = Status::kCancelled;
    } catch (...) {
      r.status = Status::kFailed;
      r.error = describe_current_exception();
    }
  }

  void run_arm(SuiteTaskResult& r, const SuiteRowInputs& row) {
    const usize idx = r.task.row;
    const KernelKind kind = suite_arm_kernel(r.task.arm);
    // A child token per arm: its deadline never leaks into siblings.
    const CancelToken arm_token = CancelToken::child_of(suite_token_);
    // One span per matrix × kernel arm, on a (kernel, row) track.
    obs::TraceTrack arm_track(suite_track_, kernel_name(kind), static_cast<u64>(idx));
    obs::TraceSpan sp("suite.arm");
    obs::ProfScope prof(sp);  // hw.* args when profiling is enabled
    sp.arg("matrix", specs_[idx].name.c_str()).arg("kernel", kernel_name(kind));
    try {
      const SpmmResult res =
          run_suite_arm(row, idx, r.task.arm, cfg_, arm_token, arm_timeout_ms_);
      r.times = suite_arm_times(r.task.arm, res);
      sp.arg("jobs", cfg_.jobs).arg("modelled_ms", r.times.t_ms);
    } catch (const CancelledError&) {
      r.status = Status::kCancelled;
      sp.arg("cancelled", i64{1});
    } catch (...) {
      r.status = Status::kFailed;
      r.error = describe_current_exception();
      sp.arg("error", r.error.c_str());
    }
  }

  std::span<const MatrixSpec> specs_;
  const SpmmConfig& cfg_;
  index_t k_;
  double arm_timeout_ms_;
  CancelToken suite_token_;
  u64 suite_track_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<SuiteTaskResult> done_;
  ThreadPool pool_;  ///< last: destroyed (drained) before what its tasks use
};

}  // namespace

std::vector<SuiteRow> run_suite(std::span<const MatrixSpec> specs, const SpmmConfig& cfg,
                                index_t K, const SuiteProgress& progress, int jobs,
                                SuiteErrorPolicy policy) {
  SuiteOptions opts;
  opts.jobs = jobs;
  opts.policy = policy;
  return run_suite(specs, cfg, K, progress, opts);
}

std::vector<SuiteRow> run_suite(std::span<const MatrixSpec> specs, const SpmmConfig& cfg,
                                index_t K, const SuiteProgress& progress,
                                const SuiteOptions& opts) {
  obs::TraceSpan span("suite.run");
  span.arg("jobs", opts.jobs);
  return drive_suite(specs, cfg, K, progress, opts, span, [&](const CancelToken& suite_token) {
    return std::make_unique<PoolSuiteBackend>(specs, cfg, K, opts, suite_token);
  });
}

SsfThreshold train_threshold(std::span<const SuiteRow> rows) {
  std::vector<SsfSample> samples;
  samples.reserve(rows.size());
  for (const auto& r : rows) {
    samples.push_back({r.profile.ssf, r.ratio_c_over_b()});
  }
  return learn_ssf_threshold(samples);
}

}  // namespace nmdt
